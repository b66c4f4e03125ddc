"""All-pairs reachability over the shipped topology and edge cases."""

from __future__ import annotations

import random

import pytest

from flowcheck import matching, reachability
from flowcheck import (
    Application,
    Cidr,
    Endpoint,
    MatchMode,
    Message,
    Namespace,
    Policy,
    PolicyViolation,
    SystemState,
    assemble_state,
    canonical_endpoint_text,
    compute_reachability,
    expand_rules,
    parse_cilium_policy,
    parse_topology,
    transfer_data,
)


def allowed_keys(matrix):
    """Allowed (sender, receiver, endpoint) triples in deterministic order."""
    return [key for key in matrix.sorted_keys() if matrix.entries[key].allowed]


@pytest.fixture(scope="module")
def ics_state(ui_policy_text, command_policy_text, topology_text):
    policies = expand_rules(parse_cilium_policy(ui_policy_text))
    policies += expand_rules(parse_cilium_policy(command_policy_text))
    topology = parse_topology(topology_text)
    return assemble_state(policies, topology)


def test_exactly_three_flows_allowed(ics_state):
    state, names = ics_state
    matrix = compute_reachability(state, MatchMode.STRICT)
    allowed = {(s, r) for s, r, _ in allowed_keys(matrix)}
    assert allowed == {(1, 2), (2, 5), (5, 8)}
    assert names[1] == "Client" and names[2] == "WebUI"
    assert names[5] == "Command" and names[8] == "Asset"
    assert len(matrix.entries) == 37


def test_allowed_endpoints_match_expected(ics_state):
    state, _ = ics_state
    matrix = compute_reachability(state, MatchMode.STRICT)
    by_pair = {(s, r): ep for s, r, ep in allowed_keys(matrix)}
    assert by_pair[(1, 2)] == Endpoint(namespace=Namespace("NS-UI", 1), port=443, label="WebUI")
    assert by_pair[(2, 5)] == Endpoint(namespace=Namespace("NS-Command", 1), label="Command")
    assert by_pair[(5, 8)] == Endpoint(cidr=Cidr(10, 29, 1, 23, 28), port=5443)


def test_empty_policy_set_denies_all(topology_text):
    state, _ = assemble_state((), parse_topology(topology_text))
    matrix = compute_reachability(state, MatchMode.STRICT)
    assert allowed_keys(matrix) == []
    assert len(matrix.entries) == 37


def test_single_app_matrix_empty():
    ep = Endpoint(label="solo")
    state = SystemState(
        applications={Application(app_id=1, send_endpoint=ep, listen_endpoints={ep})},
        endpoints={ep},
        app_data={1: ()},
    )
    matrix = compute_reachability(state, MatchMode.STRICT)
    assert matrix.entries == {}


def test_receive_only_senders_excluded(ics_state):
    state, _ = ics_state
    matrix = compute_reachability(state, MatchMode.STRICT)
    senders = {s for s, _, _ in matrix.entries}
    assert 7 not in senders  # Database
    assert 8 not in senders  # Asset


def test_matrix_engine_coherence(ics_state):
    # every matrix verdict agrees with actually attempting the transfer
    state, _ = ics_state
    matrix = compute_reachability(state, MatchMode.STRICT)
    for (sid, rid, ep), verdict in matrix.entries.items():
        if verdict.allowed:
            next_state, transfer_verdict = transfer_data(state, sid, rid, ep, Message())
            assert transfer_verdict.allowed
            assert len(next_state.app_data[rid]) == len(state.app_data[rid]) + 1
        else:
            with pytest.raises(PolicyViolation):
                transfer_data(state, sid, rid, ep, Message())


def test_deterministic_across_policy_order(ui_policy_text, command_policy_text, topology_text):
    policies = expand_rules(parse_cilium_policy(ui_policy_text))
    policies += expand_rules(parse_cilium_policy(command_policy_text))
    topology = parse_topology(topology_text)
    rng = random.Random(3)
    baseline = None
    for _ in range(5):
        shuffled = policies[:]
        rng.shuffle(shuffled)
        state, _ = assemble_state(shuffled, topology)
        matrix = compute_reachability(state, MatchMode.STRICT)
        snapshot = [
            (s, r, canonical_endpoint_text(ep), matrix.entries[(s, r, ep)].allowed)
            for s, r, ep in matrix.sorted_keys()
        ]
        if baseline is None:
            baseline = snapshot
        assert snapshot == baseline


def test_semantic_mode_with_host_topology(ui_policy_text):
    # a /32 client host inside the policy's /30 is reachable semantically
    # even though strict equality would fail
    policies = expand_rules(parse_cilium_policy(ui_policy_text))
    webui = Endpoint(namespace=Namespace("NS-UI", 1), port=443, label="WebUI")
    client_host = Endpoint(cidr=Cidr(10, 28, 1, 1, 32))
    state = SystemState(
        applications={
            Application(app_id=1, send_endpoint=client_host),
            Application(app_id=2, send_endpoint=webui, listen_endpoints={webui}, receive_only=True),
        },
        policies=policies,
        endpoints={client_host, webui},
        app_data={1: (), 2: ()},
    )
    strict = compute_reachability(state, MatchMode.STRICT)
    semantic = compute_reachability(state, MatchMode.SEMANTIC)
    assert allowed_keys(strict) == []
    assert {(s, r) for s, r, _ in allowed_keys(semantic)} == {(1, 2)}


@pytest.mark.parametrize("mode", [MatchMode.STRICT, MatchMode.SEMANTIC])
def test_one_index_build_and_one_sort_per_endpoint(mode, monkeypatch):
    # 12 apps with 3 listen endpoints each, each reachable from the previous
    # app: 396 entries over 36 endpoints
    builds, texts = [], []
    build_table, endpoint_text = matching._build_table, reachability.canonical_endpoint_text
    monkeypatch.setattr(matching, "_build_table", lambda *args: builds.append(args[1]) or build_table(*args))
    monkeypatch.setattr(reachability, "canonical_endpoint_text", lambda ep: texts.append(ep) or endpoint_text(ep))
    apps, policies = [], []
    for aid in range(12):
        send = Endpoint(cidr=Cidr(10, 0, aid, 1, 32))
        listen = {Endpoint(namespace=Namespace(f"NS-{aid}", 1), port=port) for port in (80, 443, 8080)}
        apps.append(Application(app_id=aid, send_endpoint=send, listen_endpoints=listen))
        previous = Endpoint(cidr=Cidr(10, 0, (aid - 1) % 12, 1, 32))
        policies += [Policy(pair=(ep, previous), direction=0) for ep in listen]
    state = SystemState(
        applications=apps,
        policies=policies,
        endpoints={ep for app in apps for ep in {app.send_endpoint, *app.listen_endpoints}},
        app_data={app.app_id: () for app in apps},
    )
    matrix = compute_reachability(state, mode)
    assert len(matrix.entries) == 12 * 11 * 3
    assert sum(verdict.allowed for verdict in matrix.entries.values()) == 12 * 3
    assert builds == [mode]
    assert len(texts) == 12 * 3
