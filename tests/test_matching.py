"""Match-engine behavior: containment, endpoint matching, policy verdicts.

Derived expectations here were computed with the enumeration oracle in
oracles.py before being frozen (10.28.1.2/30 spans .0-.3; 10.29.1.23/28
spans .16-.31).
"""

from __future__ import annotations

import random

import pytest

from flowcheck import (
    Cidr,
    ContainmentUndefined,
    Direction,
    Endpoint,
    MatchMode,
    MatchVerdict,
    Namespace,
    Policy,
    cidr_contains,
    endpoint_matches,
    evaluate,
    explain,
    create_policy,
    new_system,
    policy_permits,
)
from oracles import contains_by_enumeration, contains_by_ipaddress

STRICT = MatchMode.STRICT
SEMANTIC = MatchMode.SEMANTIC

CLIENT_EP = Endpoint(cidr=Cidr(10, 28, 1, 2, 30))
WEBUI_EP = Endpoint(namespace=Namespace("NS-UI", 1), port=443, label="WebUI")
OTHER_CLIENT_EP = Endpoint(cidr=Cidr(10, 28, 1, 4, 30))
COMMAND_EP = Endpoint(namespace=Namespace("NS-Command", 1), label="Command")
ASSET_EP = Endpoint(cidr=Cidr(10, 29, 1, 23, 28), port=5443)


class TestCidrContains:
    def test_host_in_block(self):
        assert cidr_contains(Cidr(10, 28, 1, 2, 30), Cidr(10, 28, 1, 3, 32)) is True

    def test_host_in_next_block(self):
        assert cidr_contains(Cidr(10, 28, 1, 2, 30), Cidr(10, 28, 1, 4, 32)) is False

    def test_zero_prefix_contains_everything(self):
        assert cidr_contains(Cidr(0, 0, 0, 0, 0), Cidr(203, 0, 113, 9, 32)) is True

    def test_slash28_with_host_bits_set(self):
        assert cidr_contains(Cidr(10, 29, 1, 23, 28), Cidr(10, 29, 1, 17, 32)) is True
        assert cidr_contains(Cidr(10, 29, 1, 23, 28), Cidr(10, 29, 1, 15, 32)) is False
        assert cidr_contains(Cidr(10, 29, 1, 23, 28), Cidr(10, 29, 1, 32, 32)) is False

    def test_equal_blocks_contained(self):
        assert cidr_contains(Cidr(10, 28, 1, 2, 30), Cidr(10, 28, 1, 2, 30)) is True

    def test_wider_address_undefined(self):
        with pytest.raises(ContainmentUndefined):
            cidr_contains(Cidr(10, 28, 1, 2, 30), Cidr(10, 28, 1, 2, 28))

    def test_agrees_with_enumeration_oracle_sample(self):
        rng = random.Random(20260809)
        for _ in range(500):
            prefix = rng.randint(24, 32)
            block = Cidr(10, rng.randint(0, 255), rng.randint(0, 255), rng.randint(0, 255), prefix)
            addr = Cidr(10, block.block2, block.block3, rng.randint(0, 255), 32)
            assert cidr_contains(block, addr) == contains_by_enumeration(block, addr)

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
            assert cidr_contains(block, addr) == contains_by_ipaddress(block, addr)


class TestEndpointMatches:
    def test_strict_identity(self):
        assert endpoint_matches(CLIENT_EP, CLIENT_EP, STRICT)

    def test_strict_sentinel_normalization(self):
        spec = Endpoint(cidr=Cidr(10, 28, 1, 2, 30), namespace=Namespace("-", 0))
        assert endpoint_matches(spec, CLIENT_EP, STRICT)
        assert endpoint_matches(CLIENT_EP, spec, STRICT)

    def test_strict_field_difference(self):
        assert not endpoint_matches(WEBUI_EP, CLIENT_EP, STRICT)
        near = Endpoint(namespace=Namespace("NS-UI", 1), port=80, label="WebUI")
        assert not endpoint_matches(WEBUI_EP, near, STRICT)

    def test_strict_namespace_id_matters(self):
        a = Endpoint(namespace=Namespace("NS-UI", 1))
        b = Endpoint(namespace=Namespace("NS-UI", 2))
        assert not endpoint_matches(a, b, STRICT)

    def test_semantic_cidr_containment(self):
        spec = Endpoint(cidr=Cidr(10, 28, 1, 2, 30))
        assert endpoint_matches(spec, Endpoint(cidr=Cidr(10, 28, 1, 1, 32)), SEMANTIC)
        assert not endpoint_matches(spec, Endpoint(cidr=Cidr(10, 28, 1, 4, 32)), SEMANTIC)

    def test_semantic_absent_fields_unconstrained(self):
        spec = Endpoint(cidr=Cidr(10, 28, 1, 2, 30))
        concrete = Endpoint(
            cidr=Cidr(10, 28, 1, 1, 32), namespace=Namespace("NS-X"), port=9999, label="whatever"
        )
        assert endpoint_matches(spec, concrete, SEMANTIC)

    def test_semantic_selector_fields(self):
        spec = Endpoint(namespace=Namespace("NS-UI", 1), port=443, label="WebUI")
        concrete = Endpoint(
            namespace=Namespace("NS-UI", 1), port=443, label="WebUI", cidr=Cidr(10, 0, 0, 7, 32)
        )
        assert endpoint_matches(spec, concrete, SEMANTIC)

    def test_semantic_namespace_by_name_only(self):
        spec = Endpoint(namespace=Namespace("NS-UI", 1))
        concrete = Endpoint(namespace=Namespace("NS-UI", 9))
        assert endpoint_matches(spec, concrete, SEMANTIC)

    def test_semantic_label_mismatch(self):
        spec = Endpoint(label="WebUI")
        assert not endpoint_matches(spec, Endpoint(label="Command"), SEMANTIC)

    def test_semantic_missing_required_field(self):
        spec = Endpoint(cidr=Cidr(10, 28, 1, 2, 30))
        assert not endpoint_matches(spec, Endpoint(label="no-cidr"), SEMANTIC)

    def test_semantic_wider_concrete_cidr_no_match(self):
        spec = Endpoint(cidr=Cidr(10, 28, 1, 2, 30))
        assert not endpoint_matches(spec, Endpoint(cidr=Cidr(10, 28, 1, 2, 28)), SEMANTIC)


class TestPolicyPermits:
    def test_ingress_orientation(self):
        policy = Policy(pair=(WEBUI_EP, CLIENT_EP), direction=Direction.INGRESS)
        assert policy_permits(policy, CLIENT_EP, WEBUI_EP, STRICT)

    def test_egress_orientation(self):
        policy = Policy(pair=(COMMAND_EP, ASSET_EP), direction=Direction.EGRESS)
        assert policy_permits(policy, COMMAND_EP, ASSET_EP, STRICT)

    def test_wrong_client_denied(self):
        policy = Policy(pair=(WEBUI_EP, OTHER_CLIENT_EP), direction=Direction.INGRESS)
        assert not policy_permits(policy, CLIENT_EP, WEBUI_EP, STRICT)

    def test_swapped_pair_denied(self):
        policy = Policy(pair=(WEBUI_EP, CLIENT_EP), direction=Direction.INGRESS)
        assert not policy_permits(policy, WEBUI_EP, CLIENT_EP, STRICT)


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
        with pytest.raises(ValueError):
            MatchVerdict(allowed=True)
        with pytest.raises(ValueError):
            MatchVerdict(allowed=True, matched_policy=policy, failed_predicates=((policy, "x"),))
        with pytest.raises(ValueError):
            MatchVerdict(allowed=False, matched_policy=policy)


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
