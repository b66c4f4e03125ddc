"""Match-engine behavior: containment, endpoint matching, policy verdicts.

Every verdict here comes from ``evaluate``, the code that decides flows:
a question about one endpoint spec is asked of a one-policy egress set
whose receiver is the fixed ``PEER`` (see ``allows``).  Derived
expectations here were computed with the enumeration oracle in oracles.py
before being frozen (10.28.1.2/30 spans .0-.3; 10.29.1.23/28 spans
.16-.31).
"""

from __future__ import annotations

import random

import pytest

from flowcheck import matching, model
from flowcheck import (
    Cidr,
    Direction,
    Endpoint,
    MatchMode,
    MatchVerdict,
    Namespace,
    Policy,
    PolicySet,
    evaluate,
    explain,
    create_policy,
    new_system,
)
from oracles import contains_by_enumeration, contains_by_ipaddress, first_failure

STRICT = MatchMode.STRICT
SEMANTIC = MatchMode.SEMANTIC

CLIENT_EP = Endpoint(cidr=Cidr(10, 28, 1, 2, 30))
WEBUI_EP = Endpoint(namespace=Namespace("NS-UI", 1), port=443, label="WebUI")
OTHER_CLIENT_EP = Endpoint(cidr=Cidr(10, 28, 1, 4, 30))
COMMAND_EP = Endpoint(namespace=Namespace("NS-Command", 1), label="Command")
ASSET_EP = Endpoint(cidr=Cidr(10, 29, 1, 23, 28), port=5443)
PEER = Endpoint(label="peer")


def allows(spec: Endpoint, concrete: Endpoint, mode: MatchMode) -> bool:
    """Does the matcher let concrete through a policy endpoint spec?"""
    return evaluate([Policy((spec, PEER), Direction.EGRESS)], concrete, PEER, mode).allowed


class TestCidrContains:
    def test_host_in_block(self):
        assert allows(Endpoint(cidr=Cidr(10, 28, 1, 2, 30)), Endpoint(cidr=Cidr(10, 28, 1, 3, 32)), SEMANTIC) is True

    def test_host_in_next_block(self):
        assert allows(Endpoint(cidr=Cidr(10, 28, 1, 2, 30)), Endpoint(cidr=Cidr(10, 28, 1, 4, 32)), SEMANTIC) is False

    def test_zero_prefix_contains_everything(self):
        # 10.0.0.0/0, not the 0.0.0.0/0 sentinel: a real prefix-0 block
        assert allows(Endpoint(cidr=Cidr(10, 0, 0, 0, 0)), Endpoint(cidr=Cidr(203, 0, 113, 9, 32)), SEMANTIC) is True

    def test_slash28_with_host_bits_set(self):
        assert allows(Endpoint(cidr=Cidr(10, 29, 1, 23, 28)), Endpoint(cidr=Cidr(10, 29, 1, 17, 32)), SEMANTIC) is True
        assert allows(Endpoint(cidr=Cidr(10, 29, 1, 23, 28)), Endpoint(cidr=Cidr(10, 29, 1, 15, 32)), SEMANTIC) is False
        assert allows(Endpoint(cidr=Cidr(10, 29, 1, 23, 28)), Endpoint(cidr=Cidr(10, 29, 1, 32, 32)), SEMANTIC) is False

    def test_equal_blocks_contained(self):
        assert allows(Endpoint(cidr=Cidr(10, 28, 1, 2, 30)), Endpoint(cidr=Cidr(10, 28, 1, 2, 30)), SEMANTIC) is True

    def test_wider_address_undefined(self):
        # a concrete block wider than the spec is never contained
        assert allows(Endpoint(cidr=Cidr(10, 28, 1, 2, 30)), Endpoint(cidr=Cidr(10, 28, 1, 2, 28)), SEMANTIC) is False

    def test_agrees_with_enumeration_oracle_sample(self):
        rng = random.Random(20260809)
        for _ in range(500):
            prefix = rng.randint(24, 32)
            block = Cidr(10, rng.randint(0, 255), rng.randint(0, 255), rng.randint(0, 255), prefix)
            addr = Cidr(10, block.block2, block.block3, rng.randint(0, 255), 32)
            assert allows(Endpoint(cidr=block), Endpoint(cidr=addr), SEMANTIC) == contains_by_enumeration(block, addr)

    def test_agrees_with_ipaddress_oracle_sample(self):
        rng = random.Random(99)
        for _ in range(500):
            block = Cidr(
                rng.randint(0, 255), rng.randint(0, 255), rng.randint(0, 255), rng.randint(0, 255),
                rng.randint(0, 23),
            )
            addr = Cidr(
                rng.randint(0, 255), rng.randint(0, 255), rng.randint(0, 255), rng.randint(0, 255),
                rng.randint(block.sig_bits, 32),
            )
            assert allows(Endpoint(cidr=block), Endpoint(cidr=addr), SEMANTIC) == contains_by_ipaddress(block, addr)


class TestEndpointMatches:
    def test_strict_identity(self):
        assert allows(CLIENT_EP, CLIENT_EP, STRICT)

    def test_strict_sentinel_normalization(self):
        spec = Endpoint(cidr=Cidr(10, 28, 1, 2, 30), namespace=Namespace("-", 0))
        assert allows(spec, CLIENT_EP, STRICT)
        assert allows(CLIENT_EP, spec, STRICT)

    def test_strict_field_difference(self):
        assert not allows(WEBUI_EP, CLIENT_EP, STRICT)
        near = Endpoint(namespace=Namespace("NS-UI", 1), port=80, label="WebUI")
        assert not allows(WEBUI_EP, near, STRICT)

    def test_strict_namespace_id_matters(self):
        a = Endpoint(namespace=Namespace("NS-UI", 1))
        b = Endpoint(namespace=Namespace("NS-UI", 2))
        assert not allows(a, b, STRICT)

    def test_semantic_cidr_containment(self):
        spec = Endpoint(cidr=Cidr(10, 28, 1, 2, 30))
        assert allows(spec, Endpoint(cidr=Cidr(10, 28, 1, 1, 32)), SEMANTIC)
        assert not allows(spec, Endpoint(cidr=Cidr(10, 28, 1, 4, 32)), SEMANTIC)

    def test_semantic_absent_fields_unconstrained(self):
        spec = Endpoint(cidr=Cidr(10, 28, 1, 2, 30))
        concrete = Endpoint(
            cidr=Cidr(10, 28, 1, 1, 32), namespace=Namespace("NS-X"), port=9999, label="whatever"
        )
        assert allows(spec, concrete, SEMANTIC)

    def test_semantic_selector_fields(self):
        spec = Endpoint(namespace=Namespace("NS-UI", 1), port=443, label="WebUI")
        concrete = Endpoint(
            namespace=Namespace("NS-UI", 1), port=443, label="WebUI", cidr=Cidr(10, 0, 0, 7, 32)
        )
        assert allows(spec, concrete, SEMANTIC)

    def test_semantic_namespace_by_name_only(self):
        spec = Endpoint(namespace=Namespace("NS-UI", 1))
        concrete = Endpoint(namespace=Namespace("NS-UI", 9))
        assert allows(spec, concrete, SEMANTIC)

    def test_semantic_label_mismatch(self):
        spec = Endpoint(label="WebUI")
        assert not allows(spec, Endpoint(label="Command"), SEMANTIC)

    def test_semantic_missing_required_field(self):
        spec = Endpoint(cidr=Cidr(10, 28, 1, 2, 30))
        assert not allows(spec, Endpoint(label="no-cidr"), SEMANTIC)

    def test_semantic_wider_concrete_cidr_no_match(self):
        spec = Endpoint(cidr=Cidr(10, 28, 1, 2, 30))
        assert not allows(spec, Endpoint(cidr=Cidr(10, 28, 1, 2, 28)), SEMANTIC)


class TestPolicyPermits:
    def test_ingress_orientation(self):
        policy = Policy(pair=(WEBUI_EP, CLIENT_EP), direction=Direction.INGRESS)
        assert evaluate([policy], CLIENT_EP, WEBUI_EP, STRICT).allowed

    def test_egress_orientation(self):
        policy = Policy(pair=(COMMAND_EP, ASSET_EP), direction=Direction.EGRESS)
        assert evaluate([policy], COMMAND_EP, ASSET_EP, STRICT).allowed

    def test_wrong_client_denied(self):
        policy = Policy(pair=(WEBUI_EP, OTHER_CLIENT_EP), direction=Direction.INGRESS)
        assert not evaluate([policy], CLIENT_EP, WEBUI_EP, STRICT).allowed

    def test_swapped_pair_denied(self):
        policy = Policy(pair=(WEBUI_EP, CLIENT_EP), direction=Direction.INGRESS)
        assert not evaluate([policy], WEBUI_EP, CLIENT_EP, STRICT).allowed


class TestEvaluate:
    def test_empty_set_denies(self):
        verdict = evaluate([], CLIENT_EP, WEBUI_EP, STRICT)
        assert not verdict.allowed
        assert verdict.matched_policy is None
        assert verdict.failed_predicates == ()

    def test_scenario_policy_allows(self):
        policy = Policy(pair=(WEBUI_EP, CLIENT_EP), direction=Direction.INGRESS)
        verdict = evaluate({policy}, CLIENT_EP, WEBUI_EP, STRICT)
        assert verdict.allowed
        assert verdict.matched_policy == policy
        assert verdict.failed_predicates == ()

    def test_violation_policy_denies_with_predicates(self):
        policy = Policy(pair=(WEBUI_EP, OTHER_CLIENT_EP), direction=Direction.INGRESS)
        verdict = evaluate({policy}, CLIENT_EP, WEBUI_EP, STRICT)
        assert not verdict.allowed
        reasons = explain({policy}, CLIENT_EP, WEBUI_EP, STRICT)
        assert len(reasons) == 1
        failed_policy, predicate = reasons[0]
        assert failed_policy == policy
        assert predicate == "sender.cidr"

    def test_direction_orientation_predicate(self):
        policy = Policy(pair=(WEBUI_EP, CLIENT_EP), direction=Direction.INGRESS)
        verdict = evaluate({policy}, WEBUI_EP, CLIENT_EP, STRICT)
        assert not verdict.allowed
        assert explain({policy}, WEBUI_EP, CLIENT_EP, STRICT)[0][1] == "direction-orientation"

    def test_semantic_containment_predicate(self):
        policy = Policy(pair=(WEBUI_EP, CLIENT_EP), direction=Direction.INGRESS)
        sender = Endpoint(cidr=Cidr(10, 28, 1, 4, 32))
        receiver = Endpoint(namespace=Namespace("NS-UI", 1), port=443, label="WebUI")
        verdict = evaluate({policy}, sender, receiver, SEMANTIC)
        assert not verdict.allowed
        assert explain({policy}, sender, receiver, SEMANTIC)[0][1] == "sender.cidr-containment"

    def test_order_independence(self):
        policies = [
            Policy(pair=(WEBUI_EP, CLIENT_EP), direction=Direction.INGRESS),
            Policy(pair=(COMMAND_EP, ASSET_EP), direction=Direction.EGRESS),
            Policy(pair=(WEBUI_EP, OTHER_CLIENT_EP), direction=Direction.INGRESS),
        ]
        baseline = evaluate(policies, CLIENT_EP, WEBUI_EP, STRICT)
        rng = random.Random(7)
        for _ in range(10):
            shuffled = policies[:]
            rng.shuffle(shuffled)
            verdict = evaluate(shuffled, CLIENT_EP, WEBUI_EP, STRICT)
            assert verdict == baseline

    def test_deterministic_witness_among_multiple_matches(self):
        p1 = Policy(pair=(WEBUI_EP, CLIENT_EP), direction=Direction.INGRESS)
        p2 = Policy(pair=(Endpoint(namespace=Namespace("NS-UI", 1), port=443, label="WebUI"),
                          Endpoint(cidr=Cidr(10, 28, 1, 2, 30), label=None)),
                    direction=Direction.INGRESS)
        assert p1 == p2  # same structural policy twice
        extra = Policy(pair=(WEBUI_EP, Endpoint(cidr=Cidr(0, 0, 0, 0, 0), label="x")),
                       direction=Direction.INGRESS)
        verdict1 = evaluate([p1, extra], CLIENT_EP, WEBUI_EP, STRICT)
        verdict2 = evaluate([extra, p1], CLIENT_EP, WEBUI_EP, STRICT)
        assert verdict1.matched_policy == verdict2.matched_policy

    def test_verdict_invariants_enforced(self):
        policy = Policy(pair=(WEBUI_EP, CLIENT_EP), direction=Direction.INGRESS)
        # allowed is read from the witness: a verdict cannot be allowed
        # without one or denied with one
        assert MatchVerdict(policy).allowed
        assert not MatchVerdict().allowed
        assert not MatchVerdict(failed_predicates=((policy, "x"),)).allowed
        with pytest.raises(TypeError):
            MatchVerdict(allowed=False, matched_policy=policy)
        with pytest.raises(ValueError):
            MatchVerdict(matched_policy=policy, failed_predicates=((policy, "x"),))


class TestExplain:
    @pytest.mark.parametrize("mode", [STRICT, SEMANTIC])
    def test_empty_set_explains_nothing(self, mode):
        assert explain(PolicySet(), CLIENT_EP, WEBUI_EP, mode) == ()
        assert explain([], CLIENT_EP, WEBUI_EP, mode) == ()

    @pytest.mark.parametrize("mode", [STRICT, SEMANTIC])
    def test_pair_permitting_both_ways_has_no_predicate(self, mode):
        # the same spec on both sides admits the flow and its reverse
        host = Endpoint(cidr=Cidr(10, 28, 1, 9, 32), port=443)
        both_ways = Policy(pair=(host, host), direction=Direction.EGRESS)
        other = Policy(pair=(WEBUI_EP, host), direction=Direction.INGRESS)
        reasons = explain([both_ways, other], host, host, mode)
        assert dict(reasons)[both_ways] is None
        assert [predicate for _, predicate in reasons] == [
            first_failure(policy, host, host, mode) for policy, _ in reasons
        ]

    @pytest.mark.parametrize("mode", [STRICT, SEMANTIC])
    def test_allowed_flow_names_each_member_like_the_oracle(self, mode):
        sender = Endpoint(cidr=Cidr(10, 28, 1, 2, 30)) if mode is STRICT else Endpoint(cidr=Cidr(10, 28, 1, 1, 32))
        policies = [
            Policy(pair=(WEBUI_EP, CLIENT_EP), direction=Direction.INGRESS),
            Policy(pair=(CLIENT_EP, WEBUI_EP), direction=Direction.EGRESS),
            Policy(pair=(WEBUI_EP, CLIENT_EP), direction=Direction.EGRESS),
            Policy(pair=(WEBUI_EP, OTHER_CLIENT_EP), direction=Direction.INGRESS),
            Policy(pair=(COMMAND_EP, ASSET_EP), direction=Direction.EGRESS),
        ]
        assert evaluate(policies, sender, WEBUI_EP, mode).allowed
        reasons = explain(policies, sender, WEBUI_EP, mode)
        assert [predicate for _, predicate in reasons] == [
            first_failure(policy, sender, WEBUI_EP, mode) for policy, _ in reasons
        ]
        assert {policy for policy, predicate in reasons if predicate is None} == set(policies[:2])
        assert "direction-orientation" in dict(reasons).values()

    def test_explaining_reuses_the_table_build(self, monkeypatch):
        # one set of 60 policies, 20 denied flows decided and explained in
        # each mode: one build per mode, only the builds derive shapes, and
        # one lookup per decision plus one (the reversed flow) per explanation
        builds, shapes, lookups = [], [], []
        build_table, shape, permitting = matching._build_table, matching._shape, matching.permitting

        def counting_build(policies, mode):
            table = build_table(policies, mode)
            builds.append((mode, len(shapes)))
            return table

        monkeypatch.setattr(matching, "_build_table", counting_build)
        monkeypatch.setattr(matching, "_shape", lambda *args: shapes.append(args) or shape(*args))
        monkeypatch.setattr(matching, "permitting", lambda *args: lookups.append(args) or permitting(*args))
        members = [
            Policy(pair=(Endpoint(namespace=Namespace(f"NS-{i}", 1), port=443), Endpoint(cidr=Cidr(10, 0, i, 0, 24))),
                   direction=i % 2)
            for i in range(60)
        ]
        policies = PolicySet(members)
        # odd flows reverse an egress policy, even ones miss an ingress policy's port
        flows = [
            (Endpoint(cidr=Cidr(10, 0, i, 9, 32)), Endpoint(namespace=Namespace(f"NS-{i}", 1), port=443 if i % 2 else 80))
            for i in range(20)
        ]
        for mode in (STRICT, SEMANTIC):
            for sender, receiver in flows:
                assert not evaluate(policies, sender, receiver, mode).allowed
                assert len(explain(policies, sender, receiver, mode)) == 60
        assert builds == [(STRICT, 2 * 60), (SEMANTIC, 2 * 2 * 60)]
        assert len(shapes) == 2 * 2 * 60
        assert len(lookups) == 2 * 20 * 2
        assert dict(explain(policies, *flows[1], SEMANTIC))[members[1]] == "direction-orientation"


class TestIndexFreshness:
    WEBUI_FROM_CLIENT = Policy(pair=(WEBUI_EP, CLIENT_EP), direction=Direction.INGRESS)
    COMMAND_TO_ASSET = Policy(pair=(COMMAND_EP, ASSET_EP), direction=Direction.EGRESS)

    @pytest.mark.parametrize("mode", [STRICT, SEMANTIC])
    def test_new_state_sees_created_policy(self, mode):
        state, _ = create_policy(new_system(), COMMAND_EP, ASSET_EP, Direction.EGRESS)
        assert not evaluate(state.policies, CLIENT_EP, WEBUI_EP, mode).allowed
        new_state, policy = create_policy(state, WEBUI_EP, CLIENT_EP, Direction.INGRESS)
        verdict = evaluate(new_state.policies, CLIENT_EP, WEBUI_EP, mode)
        assert verdict.allowed and verdict.matched_policy == policy
        assert not evaluate(state.policies, CLIENT_EP, WEBUI_EP, mode).allowed
        assert [p for p, _ in explain(new_state.policies, CLIENT_EP, WEBUI_EP, mode)] == [
            p for p, _ in explain(list(new_state.policies), CLIENT_EP, WEBUI_EP, mode)
        ]

    @pytest.mark.parametrize("mode", [STRICT, SEMANTIC])
    def test_alternating_states_build_each_table_once(self, mode, monkeypatch):
        # each state's set keeps its own table, so taking turns rebuilds none
        builds, build_table = [], matching._build_table
        monkeypatch.setattr(matching, "_build_table", lambda *args: builds.append(args[1]) or build_table(*args))
        first, _ = create_policy(new_system(), WEBUI_EP, CLIENT_EP, Direction.INGRESS)
        second, _ = create_policy(first, COMMAND_EP, ASSET_EP, Direction.EGRESS)
        for _ in range(10):
            assert not evaluate(first.policies, COMMAND_EP, ASSET_EP, mode).allowed
            assert evaluate(second.policies, COMMAND_EP, ASSET_EP, mode).allowed
        assert builds == [mode, mode]

    @pytest.mark.parametrize("mode", [STRICT, SEMANTIC])
    def test_mutated_list_never_answered_stale(self, mode):
        policies = [self.COMMAND_TO_ASSET]
        assert not evaluate(policies, CLIENT_EP, WEBUI_EP, mode).allowed
        policies.append(self.WEBUI_FROM_CLIENT)
        assert evaluate(policies, CLIENT_EP, WEBUI_EP, mode).matched_policy == self.WEBUI_FROM_CLIENT
        assert [p for p, _ in explain(policies, CLIENT_EP, WEBUI_EP, mode)] == sorted(
            policies, key=lambda p: p.canonical_text
        )
        policies.remove(self.WEBUI_FROM_CLIENT)
        assert not evaluate(policies, CLIENT_EP, WEBUI_EP, mode).allowed
        assert len(explain(policies, CLIENT_EP, WEBUI_EP, mode)) == 1

    @pytest.mark.parametrize("mode", [STRICT, SEMANTIC])
    def test_frozenset_and_list_agree(self, mode):
        policies = [
            self.WEBUI_FROM_CLIENT,
            self.COMMAND_TO_ASSET,
            Policy(pair=(WEBUI_EP, Endpoint(cidr=Cidr(10, 28, 1, 0, 24))), direction=Direction.INGRESS),
            Policy(pair=(WEBUI_EP, OTHER_CLIENT_EP), direction=Direction.INGRESS),
        ]
        frozen = frozenset(policies)
        endpoints = [CLIENT_EP, WEBUI_EP, OTHER_CLIENT_EP, COMMAND_EP, ASSET_EP,
                     Endpoint(cidr=Cidr(10, 28, 1, 9, 32)), Endpoint(cidr=Cidr(10, 29, 1, 20, 32), port=5443)]
        for sender in endpoints:
            for receiver in endpoints:
                assert evaluate(frozen, sender, receiver, mode) == evaluate(policies, sender, receiver, mode)
                assert explain(frozen, sender, receiver, mode) == explain(policies, sender, receiver, mode)


class TestNormalizedOnce:
    @pytest.mark.parametrize("mode", [STRICT, SEMANTIC])
    def test_each_endpoint_normalized_once(self, mode, monkeypatch):
        # deciding and explaining a denial against 60 policies reads each
        # endpoint's normalized fields, computing them at most once
        calls, normalize = [], model.normalize_fields
        monkeypatch.setattr(model, "normalize_fields", lambda *fields: calls.append(fields) or normalize(*fields))
        sender = Endpoint(cidr=Cidr(10, 28, 1, 9, 32))
        receiver = Endpoint(namespace=Namespace("NS-UI", 1), port=443)
        policies = [Policy(pair=(Endpoint(label=f"app-{i}"), sender), direction=Direction.INGRESS) for i in range(60)]
        assert not evaluate(policies, sender, receiver, mode).allowed
        reasons = explain(policies, sender, receiver, mode)
        failed = "receiver.namespace" if mode is STRICT else "receiver.label"
        assert len(reasons) == 60 and {predicate for _, predicate in reasons} == {failed}
        distinct = {id(ep) for policy in policies for ep in policy.pair} | {id(sender), id(receiver)}
        assert 0 < len(calls) <= len(distinct) == 62
