"""Property tests for the match engine and the state operations."""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import yaml
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from flowcheck import (
    Cidr,
    ContractViolation,
    Direction,
    DuplicateApplicationId,
    DuplicateEndpoint,
    DuplicatePolicy,
    Endpoint,
    MatchMode,
    Namespace,
    Policy,
    PolicyOrigin,
    create_endpoint,
    create_policy,
    deploy_application,
    evaluate,
    expand_rules,
    explain,
    new_system,
    parse_cilium_policy,
    policy_permits,
    send_data,
)
from flowcheck.matching import PolicyIndex
from flowcheck.model import normalized_fields
from oracles import canonical_rank, permits

# small pools keep collisions (and therefore matches) likely
cidr_st = st.builds(
    Cidr,
    st.just(10),
    st.integers(28, 29),
    st.integers(0, 1),
    st.sampled_from([0, 2, 4, 16]),
    st.sampled_from([0, 28, 30, 32]),
)
namespace_st = st.builds(Namespace, st.sampled_from(["NS-UI", "NS-Command", "-"]), st.integers(0, 1))


def endpoints_with(cidrs):
    return st.builds(
        dict,
        cidr=st.none() | cidrs,
        namespace=st.none() | namespace_st,
        port=st.none() | st.sampled_from([443, 5443]),
        label=st.none() | st.sampled_from(["WebUI", "Command", ""]),
    ).filter(lambda d: any(v is not None for v in d.values())).map(lambda d: Endpoint(**d))


endpoint_st = endpoints_with(cidr_st)
# every prefix length, so blocks nest in and contain each other
wide_endpoint_st = endpoints_with(st.builds(
    Cidr, st.just(10), st.integers(28, 29), st.integers(0, 1), st.sampled_from([0, 2, 4, 16, 255]),
    st.integers(0, 32),
))

direction_st = st.sampled_from([Direction.INGRESS, Direction.EGRESS])
policy_st = st.builds(Policy, pair=st.tuples(endpoint_st, endpoint_st), direction=direction_st)
mode_st = st.sampled_from([MatchMode.STRICT, MatchMode.SEMANTIC])
origin_st = st.none() | st.builds(PolicyOrigin, st.sampled_from(["doc-a", "doc-b"]), st.integers(0, 2))


class TestMatchProperties:
    @given(
        st.lists(policy_st, max_size=5),
        st.lists(policy_st, max_size=5),
        endpoint_st,
        endpoint_st,
        mode_st,
    )
    def test_monotonicity(self, base, extra, sender, receiver, mode):
        if evaluate(base, sender, receiver, mode).allowed:
            assert evaluate(base + extra, sender, receiver, mode).allowed

    @given(policy_st, st.lists(policy_st, max_size=4), endpoint_st, endpoint_st, mode_st)
    def test_monotonicity_from_constructed_match(self, policy, extra, sender, receiver, mode):
        # force the allowed branch: a policy built from the concrete pair
        if policy.direction is Direction.INGRESS:
            matching = Policy(pair=(receiver, sender), direction=Direction.INGRESS)
        else:
            matching = Policy(pair=(sender, receiver), direction=Direction.EGRESS)
        assert evaluate([matching], sender, receiver, MatchMode.STRICT).allowed
        assert evaluate([matching] + extra, sender, receiver, MatchMode.STRICT).allowed

    @given(st.tuples(endpoint_st, endpoint_st), direction_st, mode_st)
    def test_strict_implies_semantic(self, pair, direction, mode):
        policy = Policy(pair=pair, direction=direction)
        if direction is Direction.INGRESS:
            sender, receiver = pair[1], pair[0]
        else:
            sender, receiver = pair
        assert policy_permits(policy, sender, receiver, MatchMode.STRICT)
        assert policy_permits(policy, sender, receiver, MatchMode.SEMANTIC)

    @given(st.tuples(endpoint_st, endpoint_st), direction_st)
    def test_direction_asymmetry_strict(self, pair, direction):
        if normalized_fields(pair[0]) == normalized_fields(pair[1]):
            return
        policy = Policy(pair=pair, direction=direction)
        if direction is Direction.INGRESS:
            sender, receiver = pair[1], pair[0]
        else:
            sender, receiver = pair
        assert policy_permits(policy, sender, receiver, MatchMode.STRICT)
        assert not policy_permits(policy, receiver, sender, MatchMode.STRICT)

    @given(st.lists(policy_st, max_size=6), endpoint_st, endpoint_st, mode_st, st.randoms())
    def test_evaluate_permutation_stable(self, policies, sender, receiver, mode, rng):
        baseline = evaluate(policies, sender, receiver, mode)
        shuffled = policies[:]
        rng.shuffle(shuffled)
        assert evaluate(shuffled, sender, receiver, mode) == baseline

    @given(endpoint_st, endpoint_st, mode_st, st.data())
    def test_evaluate_and_explain_agree_with_oracle(self, sender, receiver, mode, data):
        # policy endpoints drawn partly from the flow's own endpoints, so
        # that several policies often permit it, some structurally equal
        # under different origins
        flow_endpoint_st = st.sampled_from([sender, receiver]) | endpoint_st
        flow_policy_st = st.builds(
            Policy, pair=st.tuples(flow_endpoint_st, flow_endpoint_st), direction=direction_st
        )
        drawn = data.draw(
            st.lists(st.tuples(flow_policy_st, st.lists(origin_st, min_size=1, max_size=3)), max_size=6)
        )
        policies = [Policy(p.pair, p.direction, origin) for p, origins in drawn for origin in origins]

        verdict = evaluate(policies, sender, receiver, mode)
        permitting = [p for p in policies if permits(p, sender, receiver, mode)]
        assert verdict.allowed == bool(permitting)
        if permitting:
            witness = min(permitting, key=canonical_rank)
            assert verdict.matched_policy == witness
            assert verdict.matched_policy.origin == witness.origin
        reasons = explain(policies, sender, receiver, mode)
        expected = sorted(policies, key=canonical_rank)
        assert [(p, p.origin) for p, _ in reasons] == [(p, p.origin) for p in expected]
        if not permitting:
            assert all(isinstance(predicate, str) for _, predicate in reasons)

    @given(wide_endpoint_st, wide_endpoint_st, st.data())
    def test_index_agrees_with_linear_scan(self, sender, receiver, data):
        # policy endpoints drawn partly from the flow's own endpoints with
        # their CIDR cut to other prefix lengths, repeated under origins
        flow_endpoint_st = st.builds(
            lambda ep, prefix: replace(ep, cidr=replace(ep.cidr, sig_bits=prefix)) if ep.cidr else ep,
            st.sampled_from([sender, receiver]),
            st.integers(0, 32),
        ) | wide_endpoint_st
        flow_policy_st = st.builds(
            Policy, pair=st.tuples(flow_endpoint_st, flow_endpoint_st), direction=direction_st
        )
        drawn = data.draw(
            st.lists(st.tuples(flow_policy_st, st.lists(origin_st, min_size=1, max_size=3)), max_size=8)
        )
        policies = [Policy(p.pair, p.direction, origin) for p, origins in drawn for origin in origins]
        index = PolicyIndex(policies)
        for mode in MatchMode:
            found = index.permitting(sender, receiver, mode)
            expected = [p for p in policies if policy_permits(p, sender, receiver, mode)]
            assert Counter(map(id, found)) == Counter(map(id, expected))

    @given(st.lists(policy_st, max_size=6), endpoint_st, endpoint_st, mode_st)
    def test_verdict_invariants(self, policies, sender, receiver, mode):
        verdict = evaluate(policies, sender, receiver, mode)
        if verdict.allowed:
            assert verdict.matched_policy is not None
            assert verdict.failed_predicates == ()
        else:
            assert verdict.matched_policy is None


# random policy documents for the expansion-count property

rule_ingress_st = st.builds(
    dict,
    fromCIDRSet=st.lists(
        st.builds(lambda a, b: {"cidr": f"10.{a}.{b}.0/24"}, st.integers(0, 3), st.integers(0, 3)),
        max_size=3,
    ),
    fromEndpoints=st.lists(
        st.builds(lambda label: {"matchLabels": {"app": label}}, st.sampled_from(["A", "B"])),
        max_size=2,
    ),
    toPorts=st.lists(st.sampled_from(["80", "443", "8080"]), max_size=3, unique=True),
).filter(lambda r: r["fromCIDRSet"] or r["fromEndpoints"])

rule_egress_st = st.builds(
    dict,
    toCIDRSet=st.lists(
        st.builds(lambda a: {"cidr": f"10.9.{a}.0/24"}, st.integers(0, 5)),
        min_size=1,
        max_size=3,
    ),
    toPorts=st.lists(st.sampled_from(["5443", "53"]), max_size=2, unique=True),
)


def _doc_dict(ingress, egress):
    def ports_block(ports):
        return [{"ports": [{"port": p} for p in ports]}] if ports else None

    spec_ingress = []
    for r in ingress:
        block = {}
        if r["fromCIDRSet"]:
            block["fromCIDRSet"] = r["fromCIDRSet"]
        if r["fromEndpoints"]:
            block["fromEndpoints"] = r["fromEndpoints"]
        if ports_block(r["toPorts"]):
            block["toPorts"] = ports_block(r["toPorts"])
        spec_ingress.append(block)
    spec_egress = []
    for r in egress:
        block = {"toCIDRSet": r["toCIDRSet"]}
        if ports_block(r["toPorts"]):
            block["toPorts"] = ports_block(r["toPorts"])
        spec_egress.append(block)
    spec = {"endpointSelector": {"matchLabels": {"app": "X"}}}
    if spec_ingress:
        spec["ingress"] = spec_ingress
    if spec_egress:
        spec["egress"] = spec_egress
    return {
        "apiVersion": "cilium.io/v2",
        "kind": "CiliumNetworkPolicy",
        "metadata": {"name": "Random", "namespace": "NS-R"},
        "spec": spec,
    }


class TestExpansionProperties:
    @given(st.lists(rule_ingress_st, max_size=3), st.lists(rule_egress_st, max_size=3))
    def test_expansion_count(self, ingress, egress):
        if not ingress and not egress:
            return
        text = yaml.safe_dump(_doc_dict(ingress, egress))
        doc = parse_cilium_policy(text)
        expected = sum(
            (len(r["fromCIDRSet"]) + len(r["fromEndpoints"])) * max(1, len(r["toPorts"]))
            for r in ingress
        ) + sum(len(r["toCIDRSet"]) * max(1, len(r["toPorts"])) for r in egress)
        assert len(expand_rules(doc)) == expected

    @given(st.lists(rule_ingress_st, min_size=1, max_size=2))
    def test_expansion_round_trip(self, ingress):
        from flowcheck import policies_from_text, policies_to_text

        doc = parse_cilium_policy(yaml.safe_dump(_doc_dict(ingress, [])))
        policies = expand_rules(doc)
        assert policies_from_text(policies_to_text(policies)) == policies


class SystemOperations(RuleBasedStateMachine):
    """Random operation sequences keep the system-state invariants."""

    def __init__(self):
        super().__init__()
        self.state = new_system()
        self.known_endpoints: list[Endpoint] = []
        self.allowed_transfers = 0

    @rule(data=st.data())
    def add_endpoint(self, data):
        ep = data.draw(endpoint_st)
        try:
            self.state, created = create_endpoint(
                self.state, ep.cidr, ep.namespace, ep.port, ep.label
            )
            self.known_endpoints.append(created)
        except DuplicateEndpoint:
            pass
        except ValueError:
            pass  # fully-sentinel endpoint normalizes to nothing

    @precondition(lambda self: self.known_endpoints)
    @rule(data=st.data())
    def add_policy(self, data):
        first = data.draw(st.sampled_from(self.known_endpoints))
        second = data.draw(st.sampled_from(self.known_endpoints))
        direction = data.draw(direction_st)
        try:
            self.state, _ = create_policy(self.state, first, second, direction)
        except DuplicatePolicy:
            pass

    @precondition(lambda self: self.known_endpoints)
    @rule(data=st.data(), aid=st.integers(1, 5), receive_only=st.booleans())
    def deploy(self, data, aid, receive_only):
        send = data.draw(st.sampled_from(self.known_endpoints))
        listen = data.draw(st.sets(st.sampled_from(self.known_endpoints), max_size=2))
        try:
            self.state = deploy_application(self.state, aid, send, listen, receive_only)
        except DuplicateApplicationId:
            pass

    @precondition(lambda self: self.state.applications and self.known_endpoints)
    @rule(data=st.data())
    def send(self, data):
        apps = sorted(self.state.applications, key=lambda a: a.app_id)
        sid = data.draw(st.sampled_from([a.app_id for a in apps]))
        rid = data.draw(st.sampled_from([a.app_id for a in apps]))
        rep = data.draw(st.sampled_from(self.known_endpoints))
        try:
            self.state, verdict = send_data(self.state, sid, rid, rep)
            assert verdict.allowed
            self.allowed_transfers += 1
        except ContractViolation:
            pass

    @invariant()
    def app_ids_unique(self):
        ids = [a.app_id for a in self.state.applications]
        assert len(ids) == len(set(ids))

    @invariant()
    def app_data_keys_are_deployed_apps(self):
        ids = {a.app_id for a in self.state.applications}
        assert set(self.state.app_data) == ids

    @invariant()
    def log_growth_matches_allowed_transfers(self):
        total = sum(len(msgs) for msgs in self.state.app_data.values())
        assert total == self.allowed_transfers


TestSystemOperations = SystemOperations.TestCase
TestSystemOperations.settings = settings(max_examples=60, stateful_step_count=30, deadline=None)
