"""Acceptance suite: golden scenarios, translation fidelity, oracle
equivalence, structural properties, and the reachability golden file.

Each criterion runs at its stated tolerance (exact equality / zero
disagreements) and prints one pass line; run with -s to see them.
"""

from __future__ import annotations

import json
import random
import time
from pathlib import Path
from dataclasses import replace

import pytest

from flowcheck import (
    Cidr,
    Direction,
    Endpoint,
    EndpointUnknown,
    MatchMode,
    Message,
    Namespace,
    Policy,
    PolicySet,
    PolicyViolation,
    assemble_state,
    compute_reachability,
    create_endpoint,
    create_policy,
    deploy_application,
    evaluate,
    expand_rules,
    new_system,
    parse_cilium_policy,
    parse_scenario,
    parse_topology,
    run_scenario,
    send_data,
    transfer_data,
)
from flowcheck.matching import permitting
from flowcheck.model import endpoint_to_dict

from test_ingest import declared_endpoint
from test_reachability import allowed_keys
from oracles import (
    block_addresses,
    contains_by_ipaddress,
    random_endpoint,
    random_probe,
    random_system,
    state_fingerprint,
    transfer_precondition_holds,
)

TEST_DATA = Path(__file__).resolve().parent / "data"

def _report(number: int, text: str) -> None:
    print(f"criterion {number}: PASS - {text}")


@pytest.fixture(scope="module")
def corpus():
    """Shared random corpus: (state, sender, receiver-id, target) probes."""
    rng = random.Random(0xC1D2)
    probes = []
    for _ in range(1000):
        state = random_system(rng)
        for _ in range(3):
            sender, rid, rep = random_probe(rng, state)
            probes.append((state, sender, rid, rep))
    return probes


def test_criterion_1_client_flow_golden(scenario_texts):
    start = time.perf_counter()

    script = parse_scenario(scenario_texts["client_to_webui"])
    report = run_scenario(script.steps, mode=script.mode)
    assert report.passed
    assert report.outcomes[-1].actual == "ok"
    assert len(report.final_state.app_data[2]) == 1

    violation = parse_scenario(scenario_texts["client_to_webui_denied"])
    vreport = run_scenario(violation.steps, mode=violation.mode)
    assert vreport.passed
    assert vreport.outcomes[-1].actual == "violation:TransferData/PolicyViolation"

    # the same violation driven through the operations directly: the
    # transfer raises PolicyViolation and the state is untouched
    state = new_system()
    state, ep1 = create_endpoint(state, Cidr(10, 28, 1, 2, 30), Namespace("-", 0), 0, "")
    state, ep2 = create_endpoint(state, Cidr(0, 0, 0, 0, 0), Namespace("NS-UI", 1), 443, "WebUI")
    state, ep3 = create_endpoint(state, Cidr(10, 28, 1, 4, 30), Namespace("-", 0), 0, "")
    state, pol = create_policy(state, ep3, ep1, Direction.INGRESS)
    state = deploy_application(state, 1, ep1, (), False)
    state = deploy_application(state, 2, ep2, {ep2}, True)
    before = state_fingerprint(state)
    with pytest.raises(PolicyViolation):
        send_data(state, 1, 2, ep2, MatchMode.STRICT)
    assert state_fingerprint(state) == before
    assert state.app_data[2] == ()

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"client-to-webui flow allows and logs 1 message; violation denied, state unchanged ({elapsed:.3f}s)")


def test_criterion_2_command_flow_golden(scenario_texts):
    start = time.perf_counter()

    script = parse_scenario(scenario_texts["command_to_asset"])
    report = run_scenario(script.steps, mode=script.mode)
    assert report.passed
    assert len(report.final_state.app_data[1]) == 1

    violation = parse_scenario(scenario_texts["command_to_asset_denied"])
    vreport = run_scenario(violation.steps, mode=violation.mode)
    assert vreport.passed
    assert vreport.outcomes[-1].actual == "violation:TransferData/PolicyViolation"
    # the probed endpoint exists globally, belongs to no listener, and the
    # denial is the policy existential, never a missing-endpoint error
    ep3 = declared_endpoint(violation, "ep3")
    assert ep3 in vreport.final_state.endpoints

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(2, f"command-to-asset egress allows; transfer to uncovered endpoint denied ({elapsed:.3f}s)")


def test_criterion_3_translation_fidelity(ui_policy_text, command_policy_text):
    # endpoints exactly as the scenario encodings create them
    client = Endpoint(cidr=Cidr(10, 28, 1, 2, 30))
    webui = Endpoint(namespace=Namespace("NS-UI", 1), port=443, label="WebUI")
    command = Endpoint(namespace=Namespace("NS-Command", 1), label="Command")
    asset = Endpoint(cidr=Cidr(10, 29, 1, 23, 28), port=5443)

    ui_policies = expand_rules(parse_cilium_policy(ui_policy_text))
    assert ui_policies == [Policy(pair=(webui, client), direction=Direction.INGRESS)]

    command_policies = expand_rules(parse_cilium_policy(command_policy_text))
    assert len(command_policies) == 2
    egress = [p for p in command_policies if p.direction is Direction.EGRESS]
    assert egress == [Policy(pair=(command, asset), direction=Direction.EGRESS)]
    ingress = [p for p in command_policies if p.direction is Direction.INGRESS]
    assert ingress == [
        Policy(
            pair=(command, Endpoint(namespace=Namespace("NS-UI", 1), label="WebUI")),
            direction=Direction.INGRESS,
        )
    ]
    _report(3, "policy document expansions structurally equal the scripted policies (exact)")


def test_criterion_4_cidr_oracle_equivalence():
    # asked of the semantic matcher: each block is the sender spec of an
    # egress policy to peer, each address a concrete sender to peer
    start = time.perf_counter()
    checks = 0
    peer = Endpoint(label="peer")

    def egress(block):
        return Policy(pair=(Endpoint(cidr=block), peer), direction=Direction.EGRESS)

    # exhaustive for prefixes >= 24: every block 10.29.1.x/p against every
    # address in the surrounding 10.29.0.0/23, one set of 256 blocks per prefix
    addresses = [(10 << 24) | (29 << 16) | offset for offset in range(512)]
    for prefix in range(24, 33):
        blocks = [Cidr(10, 29, 1, x, prefix) for x in range(256)]
        policies = PolicySet(egress(block) for block in blocks)
        members = [block_addresses(block) for block in blocks]
        for addr_int in addresses:
            addr = Cidr(
                (addr_int >> 24) & 0xFF,
                (addr_int >> 16) & 0xFF,
                (addr_int >> 8) & 0xFF,
                addr_int & 0xFF,
                32,
            )
            found = permitting(policies, Endpoint(cidr=addr), peer, MatchMode.SEMANTIC)
            assert sorted(policy.pair[0].cidr.block4 for policy in found) == [
                x for x in range(256) if addr_int in members[x]
            ]
            checks += len(blocks)

    # 10,000 random pairs for prefixes 0-23 against the stdlib oracle
    rng = random.Random(0xCAFE)
    for _ in range(10_000):
        prefix = rng.randint(0, 23)
        block = Cidr(
            rng.randint(0, 255), rng.randint(0, 255), rng.randint(0, 255), rng.randint(0, 255),
            prefix,
        )
        if rng.random() < 0.5:
            # bias towards nearby addresses so both outcomes occur
            addr = Cidr(block.block1, block.block2, rng.randint(0, 255), rng.randint(0, 255),
                        rng.randint(prefix, 32))
        else:
            addr = Cidr(
                rng.randint(0, 255), rng.randint(0, 255), rng.randint(0, 255), rng.randint(0, 255),
                rng.randint(prefix, 32),
            )
        verdict = evaluate([egress(block)], Endpoint(cidr=addr), peer, MatchMode.SEMANTIC)
        assert verdict.allowed == contains_by_ipaddress(block, addr)
        checks += 1

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(4, f"{checks} containment checks, zero oracle disagreements ({elapsed:.2f}s)")


def test_criterion_5_strict_engine_vs_precondition_oracle(corpus):
    start = time.perf_counter()
    systems = len({id(state) for state, *_ in corpus})
    assert systems >= 1000
    for state, sender, rid, rep in corpus:
        expected = transfer_precondition_holds(state, sender, rep)
        try:
            transfer_data(state, sender.app_id, rid, rep, Message(), MatchMode.STRICT)
            actual = True
        except (PolicyViolation, EndpointUnknown):
            actual = False
        assert actual == expected
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(5, f"{systems} random systems, {len(corpus)} probes, zero disagreements ({elapsed:.2f}s)")


def test_criterion_6_deny_by_default_and_monotonicity(corpus):
    rng = random.Random(0xBEEF)
    for state, sender, rid, rep in corpus:
        # empty policy set denies every transfer
        stripped = replace(state, policies=frozenset())
        with pytest.raises((PolicyViolation, EndpointUnknown)):
            transfer_data(stripped, sender.app_id, rid, rep, Message(), MatchMode.STRICT)

        # adding policies never revokes an allowed transfer
        try:
            transfer_data(state, sender.app_id, rid, rep, Message(), MatchMode.STRICT)
            allowed_before = True
        except (PolicyViolation, EndpointUnknown):
            allowed_before = False
        if allowed_before:
            extra = frozenset(
                Policy(
                    pair=(random_endpoint(rng), random_endpoint(rng)),
                    direction=rng.choice((Direction.INGRESS, Direction.EGRESS)),
                )
                for _ in range(2)
            )
            grown = replace(state, policies=state.policies | extra)
            grown_state, verdict = transfer_data(
                grown, sender.app_id, rid, rep, Message(), MatchMode.STRICT
            )
            assert verdict.allowed
    _report(6, "empty policy set denies all; policy additions never flip allow to deny")


def test_criterion_7_frame_property(corpus):
    denied = 0
    for state, sender, rid, rep in corpus:
        before = state_fingerprint(state)
        try:
            transfer_data(state, sender.app_id, rid, rep, Message(), MatchMode.STRICT)
        except (PolicyViolation, EndpointUnknown):
            denied += 1
            assert state_fingerprint(state) == before
    assert denied > 0
    _report(7, f"{denied} denied transfers all left the state structurally identical")


def test_criterion_8_reachability_golden(ui_policy_text, command_policy_text, topology_text):
    policies = expand_rules(parse_cilium_policy(ui_policy_text))
    policies += expand_rules(parse_cilium_policy(command_policy_text))
    state, names = assemble_state(policies, parse_topology(topology_text))

    # re-confirm with the brute-force oracle before trusting the frozen file
    oracle_allowed = []
    total = 0
    apps = sorted(state.applications, key=lambda a: a.app_id)
    for snd in apps:
        if snd.receive_only:
            continue
        for rcv in apps:
            if rcv.app_id == snd.app_id:
                continue
            for ep in rcv.listen_endpoints:
                total += 1
                if transfer_precondition_holds(state, snd, ep):
                    oracle_allowed.append((snd.app_id, rcv.app_id, endpoint_to_dict(ep)))
    oracle_allowed.sort(key=lambda e: (e[0], e[1]))

    golden = json.loads((TEST_DATA / "reachability_golden.json").read_text(encoding="utf-8"))
    golden_allowed = [(e["sender"], e["receiver"], e["endpoint"]) for e in golden["allowed"]]
    assert oracle_allowed == golden_allowed
    assert total == golden["total_entries"]

    matrix = compute_reachability(state, MatchMode.STRICT)
    engine_allowed = [(s, r, endpoint_to_dict(ep)) for s, r, ep in allowed_keys(matrix)]
    assert engine_allowed == golden_allowed
    assert len(matrix.entries) == golden["total_entries"]
    assert {(s, r) for s, r, _ in allowed_keys(matrix)} == {(1, 2), (2, 5), (5, 8)}
    assert names[1] == "Client" and names[2] == "WebUI" and names[5] == "Command" and names[8] == "Asset"
    _report(8, f"exactly 3 of {total} flows allowed, matching oracle and golden file")
