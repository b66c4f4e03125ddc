"""Property tests for the match engine and the state operations."""

from __future__ import annotations

import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
import yaml
from hypothesis import assume, given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from flowcheck import (
    Application,
    Cidr,
    ContractViolation,
    Direction,
    DuplicateApplicationId,
    DuplicateEndpoint,
    DuplicatePolicy,
    Endpoint,
    MatchMode,
    Message,
    Namespace,
    Policy,
    PolicyOrigin,
    PolicySet,
    PolicyViolation,
    ScenarioStep,
    SystemState,
    canonical_endpoint_text,
    canonical_policy_text,
    create_endpoint,
    create_policy,
    deploy_application,
    describe_endpoint,
    evaluate,
    expand_rules,
    explain,
    new_system,
    parse_cilium_policy,
    run_scenario,
    send_data,
)
from flowcheck.matching import permitting
from flowcheck.model import SENTINEL_CIDR, SENTINEL_NAMESPACE
from oracles import canonical_rank, expand, first_failure, permits

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


def flipped(cidr, prefix, bit):
    """cidr cut to prefix, with address bit `bit` (0 the highest) flipped."""
    return Cidr(*(cidr.as_int() ^ (1 << (31 - bit))).to_bytes(4, "big"), prefix)


def boundary_cut(ep):
    """ep with its CIDR cut to a prefix p no longer than its own and one
    address bit flipped: the last inside p, so the block just misses ep's
    address, or the first past p, so it just holds it."""
    if ep.cidr is None:
        return st.just(ep)
    return st.integers(0, ep.cidr.sig_bits).flatmap(
        lambda p: st.sampled_from([bit for bit in (p - 1, p) if 0 <= bit < 32]).map(
            lambda bit: replace(ep, cidr=flipped(ep.cidr, p, bit))
        )
    )


def cut_flow_policies(sender, receiver):
    """Policies whose endpoints are drawn partly from the flow's own
    endpoints with their CIDR cut to other prefix lengths, so blocks nest
    both ways, or cut and then flipped in one bit at the prefix boundary,
    so a block just misses or just holds the flow's address; each policy
    is repeated under one to three origins."""
    own_st = st.sampled_from([sender, receiver])
    flow_endpoint_st = st.builds(
        lambda ep, prefix: replace(ep, cidr=replace(ep.cidr, sig_bits=prefix)) if ep.cidr else ep,
        own_st,
        st.integers(0, 32),
    ) | own_st.flatmap(boundary_cut) | wide_endpoint_st
    flow_policy_st = st.builds(
        Policy, pair=st.tuples(flow_endpoint_st, flow_endpoint_st), direction=direction_st
    )
    return st.lists(
        st.tuples(flow_policy_st, st.lists(origin_st, min_size=1, max_size=3)), max_size=8
    ).map(lambda drawn: [Policy(p.pair, p.direction, origin) for p, origins in drawn for origin in origins])


def ranked_copies(policies):
    """Every drawn copy of each distinct policy, grouped in the oracle's
    canonical order; a group's first copy is the member a set keeps."""
    groups: list[list[Policy]] = []
    for policy in sorted(policies, key=canonical_rank):
        if groups and groups[-1][0] == policy:
            groups[-1].append(policy)
        else:
            groups.append([policy])
    return groups


def assert_copies_kept(policy_set, groups):
    assert len(policy_set) == len(groups)
    for group in groups:
        assert [id(p) for p in policy_set.copies(group[0])] == [id(p) for p in group]


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
        assert evaluate([policy], sender, receiver, MatchMode.STRICT).allowed
        assert evaluate([policy], sender, receiver, MatchMode.SEMANTIC).allowed

    @given(st.tuples(endpoint_st, endpoint_st), direction_st)
    def test_direction_asymmetry_strict(self, pair, direction):
        if pair[0].normalized == pair[1].normalized:
            return
        policy = Policy(pair=pair, direction=direction)
        if direction is Direction.INGRESS:
            sender, receiver = pair[1], pair[0]
        else:
            sender, receiver = pair
        assert evaluate([policy], sender, receiver, MatchMode.STRICT).allowed
        assert not evaluate([policy], receiver, sender, MatchMode.STRICT).allowed

    @given(st.lists(policy_st, max_size=6), endpoint_st, endpoint_st, mode_st, st.randoms())
    def test_evaluate_permutation_stable(self, policies, sender, receiver, mode, rng):
        baseline = evaluate(policies, sender, receiver, mode)
        shuffled = policies[:]
        rng.shuffle(shuffled)
        assert evaluate(shuffled, sender, receiver, mode) == baseline

    @given(endpoint_st | wide_endpoint_st, endpoint_st | wide_endpoint_st, mode_st, st.data())
    def test_evaluate_and_explain_agree_with_oracle(self, sender, receiver, mode, data):
        # policy endpoints drawn partly from the flow's own endpoints, so
        # that several policies often permit it, some structurally equal
        # under different origins
        flow_endpoint_st = st.sampled_from([sender, receiver]) | endpoint_st | wide_endpoint_st
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
        # one entry per member, each the lowest-origin copy; copies keeps the rest
        reasons = explain(policies, sender, receiver, mode)
        groups = ranked_copies(policies)
        assert [id(p) for p, _ in reasons] == [id(group[0]) for group in groups]
        assert_copies_kept(PolicySet(policies), groups)
        if not permitting:
            assert all(isinstance(predicate, str) for _, predicate in reasons)

    @given(wide_endpoint_st, wide_endpoint_st, st.data())
    def test_index_agrees_with_linear_scan(self, sender, receiver, data):
        policies = data.draw(cut_flow_policies(sender, receiver))
        policy_set = PolicySet(policies)
        groups = ranked_copies(policies)
        assert_copies_kept(policy_set, groups)
        members = [group[0] for group in groups]
        for mode in MatchMode:
            found = permitting(policy_set, sender, receiver, mode)
            assert Counter(map(id, found)) == Counter(id(p) for p in members if permits(p, sender, receiver, mode))
            reasons = explain(policy_set, sender, receiver, mode)
            assert [id(p) for p, _ in reasons] == [id(p) for p in members]

    @given(wide_endpoint_st, wide_endpoint_st, st.data())
    def test_explain_names_the_oracles_first_failure(self, sender, receiver, data):
        policies = data.draw(cut_flow_policies(sender, receiver))
        for mode in MatchMode:
            for policy, predicate in explain(policies, sender, receiver, mode):
                assert predicate == first_failure(policy, sender, receiver, mode)

    @given(wide_endpoint_st, wide_endpoint_st, mode_st, st.data())
    def test_a_denial_is_explained_on_the_set_it_was_decided_on(self, sender, receiver, mode, data):
        drawn = data.draw(cut_flow_policies(sender, receiver))
        state = SystemState(
            applications={Application(1, sender), Application(2, receiver)}, policies=drawn, endpoints={receiver}
        )
        assume(not evaluate(state.policies, sender, receiver, mode).allowed)
        # the oracle's explanation of the set at the denial
        members = [group[0] for group in ranked_copies(drawn)]
        reasons = [(policy, first_failure(policy, sender, receiver, mode)) for policy in members]
        # deny, write the policy that permits the flow, send again; the
        # denial is read only afterwards
        with pytest.raises(PolicyViolation) as denied:
            send_data(state, 1, 2, receiver, mode)
        later, _ = create_policy(state, receiver, sender, Direction.INGRESS)
        assert send_data(later, 1, 2, receiver, mode)[1].allowed
        send = ScenarioStep("send_data", {"from": 1, "to": 2, "endpoint": receiver})
        steps = [
            replace(send, expected="violation:TransferData"),
            ScenarioStep("create_policy", {"first": receiver, "second": sender, "direction": Direction.INGRESS}),
            send,
        ]
        report = run_scenario(steps, mode, initial_state=state)
        assert report.passed
        assert [(id(p), predicate) for p, predicate in denied.value.verdict.failed_predicates] == [
            (id(p), predicate) for p, predicate in reasons
        ]
        detail = f"no policy permits {describe_endpoint(sender)} -> {describe_endpoint(receiver)}"
        if reasons:
            detail += " [" + "; ".join(f"{canonical_rank(p)[0]} failed {predicate}" for p, predicate in reasons) + "]"
        assert report.outcomes[0].detail == detail

    @given(st.lists(policy_st, max_size=6), endpoint_st, endpoint_st, mode_st)
    def test_verdict_invariants(self, policies, sender, receiver, mode):
        verdict = evaluate(policies, sender, receiver, mode)
        if verdict.allowed:
            assert verdict.matched_policy is not None
            assert verdict.failed_predicates == ()
        else:
            assert verdict.matched_policy is None


# random policy documents for the expansion properties

ingress_cidr_st = st.builds(lambda a, b: {"cidr": f"10.{a}.{b}.0/24"}, st.integers(0, 3), st.integers(0, 3))
egress_cidr_st = st.builds(lambda a: {"cidr": f"10.9.{a}.0/24"}, st.integers(0, 5))
app_selector_st = st.builds(lambda label: {"matchLabels": {"app": label}}, st.sampled_from(["A", "B"]))
world_st = st.just({"cidr": "0.0.0.0/0"})
# any of an app, a namespace and a tier label, none of them included
match_labels_st = st.fixed_dictionaries({}, optional={
    "app": st.sampled_from(["A", "B"]),
    "io.kubernetes.pod.namespace": st.sampled_from(["NS-R", "NS-O"]),
    "tier": st.sampled_from(["web", "db"]),
})


def rule_ingress(cidr, selector):
    return st.builds(
        dict,
        fromCIDRSet=st.lists(cidr, max_size=3),
        fromEndpoints=st.lists(selector, max_size=2),
        toPorts=st.lists(st.sampled_from(["80", "443", "8080"]), max_size=3, unique=True),
    ).filter(lambda r: r["fromCIDRSet"] or r["fromEndpoints"])


def rule_egress(cidr):
    return st.builds(
        dict,
        toCIDRSet=st.lists(cidr, min_size=1, max_size=3),
        toPorts=st.lists(st.sampled_from(["5443", "53"]), max_size=2, unique=True),
    )


rule_ingress_st = rule_ingress(ingress_cidr_st, app_selector_st)
rule_egress_st = rule_egress(egress_cidr_st)
# adds 0.0.0.0/0 and selectors with a namespace label or an extra label
wide_rule_ingress_st = rule_ingress(ingress_cidr_st | world_st, match_labels_st.map(lambda m: {"matchLabels": m}))
wide_rule_egress_st = rule_egress(egress_cidr_st | world_st)


def _doc_dict(ingress, egress, selected=None):
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
    spec = {"endpointSelector": {"matchLabels": {"app": "X"} if selected is None else selected}}
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

    @given(st.lists(wide_rule_ingress_st, max_size=3), st.lists(wide_rule_egress_st, max_size=3), match_labels_st)
    def test_expansion_matches_the_oracle(self, ingress, egress, selected):
        # each policy's pair, direction and origin, in order; the endpoint
        # selector's namespace label is a label like any other
        if not ingress and not egress:
            return
        doc = _doc_dict(ingress, egress, selected)
        got = expand_rules(parse_cilium_policy(yaml.safe_dump(doc)))
        assert [(p.pair, p.direction, p.origin) for p in got] == [
            (p.pair, p.direction, p.origin) for p in expand(doc)
        ]


# each field's ways to say "unconstrained": absent, or its sentinel value
UNCONSTRAINED = {
    "cidr": (None, SENTINEL_CIDR), "namespace": (None, SENTINEL_NAMESPACE),
    "port": (None,), "label": (None, ""),
}
sentinel_endpoint_st = endpoints_with(st.just(SENTINEL_CIDR) | cidr_st)


def near_endpoints(ep):
    """New endpoint objects equal to ``ep``, or ``ep`` with one field set to
    absent or to its sentinel."""
    fields = {name: getattr(ep, name) for name in UNCONSTRAINED}
    variants = [fields] + [{**fields, name: value} for name, values in UNCONSTRAINED.items() for value in values]
    return st.sampled_from(variants).filter(lambda d: any(v is not None for v in d.values())).map(
        lambda d: Endpoint(**d)
    )


def near_policies(policy):
    """New policy objects equal to ``policy`` under any origin, or differing
    in an endpoint field, the pair order or the direction."""
    first, second = map(near_endpoints, policy.pair)
    return st.builds(
        Policy,
        pair=st.tuples(first, second) | st.tuples(second, first),
        direction=st.just(policy.direction) | direction_st,
        origin=origin_st,
    )


class TestCanonicalText:
    """Canonical text tells values apart exactly as equality does: the
    witness order and PolicySet's members both rest on it."""

    @given(st.data())
    def test_endpoint_text_is_injective(self, data):
        a = data.draw(sentinel_endpoint_st)
        b = data.draw(near_endpoints(a) | sentinel_endpoint_st)
        assert (canonical_endpoint_text(a) == canonical_endpoint_text(b)) == (a == b)

    @given(st.data())
    def test_policy_text_is_injective(self, data):
        endpoints = st.tuples(sentinel_endpoint_st, sentinel_endpoint_st)
        p = data.draw(st.builds(Policy, pair=endpoints, direction=direction_st, origin=origin_st))
        q = data.draw(near_policies(p) | st.builds(Policy, pair=endpoints, direction=direction_st))
        assert (canonical_policy_text(p) == canonical_policy_text(q)) == (p == q)

    @given(st.builds(Policy, pair=st.tuples(sentinel_endpoint_st, sentinel_endpoint_st), direction=direction_st))
    def test_policy_text_is_the_sorted_json_text(self, policy):
        # assembled from the endpoints' texts, it is the oracle's json.dumps form
        assert canonical_policy_text(policy) == canonical_rank(policy)[0]


class SystemOperations(RuleBasedStateMachine):
    """Random operation sequences keep the system-state invariants, from
    ``new_system()`` or from a state built with ``SystemState(...)``, and
    through refused writes and denied or refused sends: every state the
    operations derive equals the one ``SystemState`` builds from its
    fields, so the operations keep the invariant its construction checks."""

    def __init__(self):
        super().__init__()
        self.state = new_system()
        self.known_endpoints: list[Endpoint] = []
        self.allowed_transfers = 0

    @initialize(data=st.data(), built=st.booleans())
    def start(self, data, built):
        if not built:
            return
        endpoints = data.draw(st.lists(endpoint_st, min_size=1, max_size=4, unique=True))
        from_endpoints = st.sampled_from(endpoints)
        applications = [
            Application(aid, data.draw(from_endpoints), data.draw(st.sets(from_endpoints, max_size=2)))
            for aid in data.draw(st.sets(st.integers(1, 5), max_size=3))
        ]
        policies = data.draw(st.lists(
            st.builds(Policy, pair=st.tuples(from_endpoints, from_endpoints), direction=direction_st), max_size=4
        ))
        logs = {app.app_id: (Message(),) for app in applications[:1]}
        self.state = SystemState(applications, policies, endpoints, logs)
        self.known_endpoints = endpoints
        self.allowed_transfers = len(logs)

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
        # id 6 is never deployed: an unknown sender or receiver is refused
        ids = st.sampled_from(sorted(self.state.by_id)) | st.just(6)
        sid, rid = data.draw(ids), data.draw(ids)
        rep = data.draw(st.sampled_from(self.known_endpoints))
        try:
            self.state, verdict = send_data(self.state, sid, rid, rep)
            assert verdict.allowed
            self.allowed_transfers += 1
        except ContractViolation:
            pass

    @invariant()
    def state_is_what_its_fields_build(self):
        state = self.state
        assert state == SystemState(state.applications, state.policies, state.endpoints, state.app_data)
        assert state.by_id == {app.app_id: app for app in state.applications}
        assert set(state.app_data) == set(state.by_id)

    @invariant()
    def app_ids_unique(self):
        ids = [a.app_id for a in self.state.applications]
        assert len(ids) == len(set(ids))

    @invariant()
    def log_growth_matches_allowed_transfers(self):
        total = sum(len(msgs) for msgs in self.state.app_data.values())
        assert total == self.allowed_transfers


TestSystemOperations = SystemOperations.TestCase
TestSystemOperations.settings = settings(max_examples=60, stateful_step_count=30, deadline=None)


class KeptStates(RuleBasedStateMachine):
    """A policy set is the first members of a lineage it shares with
    the sets its writes derive.  Writes go to the newest state and to
    kept older ones; sends on any state, in either mode, decide and
    explain every flow as the literal oracle does over the policies that
    state was written with: an older set leaves out the members that
    joined its lineage after it, a write on an older set starts a new
    lineage that the other branch never sees, and explain names each
    state's members in canonical order."""

    def __init__(self):
        super().__init__()
        self.states = [new_system()]  # every state made, the newest last
        self.written = [()]  # the policies written on each state's way there
        self.next_id = 1

    @property
    def newest(self):
        return self.states[-1]

    def made(self, state, written=None):
        self.states.append(state)
        self.written.append(self.written[-1] if written is None else written)

    def write(self, index, data, direction):
        state = self.states[index]
        endpoints = sorted(state.endpoints, key=canonical_endpoint_text)
        first, second = data.draw(st.tuples(st.sampled_from(endpoints), st.sampled_from(endpoints)))
        try:
            state, policy = create_policy(state, first, second, direction)
        except DuplicatePolicy:
            assert Policy(pair=(first, second), direction=direction) in self.written[index]
            return
        self.made(state, self.written[index] + (policy,))

    @rule(ep=endpoint_st)
    def add_endpoint(self, ep):
        try:
            state, _ = create_endpoint(self.newest, ep.cidr, ep.namespace, ep.port, ep.label)
        except (DuplicateEndpoint, ValueError):  # ValueError: every field a sentinel
            return
        self.made(state)

    @precondition(lambda self: self.newest.endpoints)
    @rule(data=st.data(), direction=direction_st)
    def add_policy(self, data, direction):
        self.write(len(self.states) - 1, data, direction)

    @precondition(lambda self: any(state.endpoints for state in self.states[:-1]))
    @rule(data=st.data(), direction=direction_st)
    def add_policy_to_kept(self, data, direction):
        # the new state is the newest, so later steps build on its branch
        kept = [i for i, state in enumerate(self.states[:-1]) if state.endpoints]
        self.write(data.draw(st.sampled_from(kept)), data, direction)

    @precondition(lambda self: self.newest.endpoints)
    @rule(data=st.data())
    def deploy(self, data):
        send = data.draw(st.sampled_from(sorted(self.newest.endpoints, key=canonical_endpoint_text)))
        self.made(deploy_application(self.newest, self.next_id, send))
        self.next_id += 1

    @precondition(lambda self: self.newest.applications)
    @rule(data=st.data(), mode=mode_st, newest=st.booleans())
    def send(self, data, mode, newest):
        # a kept state is any with an application, so every state's set is asked
        kept = [i for i, state in enumerate(self.states) if state.applications]
        index = len(self.states) - 1 if newest else data.draw(st.sampled_from(kept))
        state = self.states[index]
        ids = sorted(state.by_id)
        sid, rid = data.draw(st.tuples(st.sampled_from(ids), st.sampled_from(ids)))
        rep = data.draw(st.sampled_from(sorted(state.endpoints, key=canonical_endpoint_text)))
        sender = state.by_id[sid].send_endpoint
        members = sorted(self.written[index], key=canonical_rank)
        found = [policy for policy in members if permits(policy, sender, rep, mode)]
        try:
            after, verdict = send_data(state, sid, rid, rep, mode)
        except PolicyViolation as denied:
            assert found == []
            assert [(id(p), predicate) for p, predicate in denied.verdict.failed_predicates] == [
                (id(p), first_failure(p, sender, rep, mode)) for p in members
            ]
            return
        assert verdict.matched_policy is found[0]
        if index == len(self.states) - 1:
            self.made(after)


TestKeptStates = KeptStates.TestCase
TestKeptStates.settings = settings(max_examples=60, stateful_step_count=40, deadline=None)


FAILING_PROPERTIES = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_a_failing_property(n):
    assert n < 0


def test_after_it():
    assert False
"""


def test_a_failing_property_is_reported_and_the_run_goes_on(tmp_path):
    # run under this repository's pytest settings, where warnings are errors
    (tmp_path / "test_failing.py").write_text(FAILING_PROPERTIES, encoding="utf-8")
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(config), "--rootdir", str(tmp_path), "-p", "no:cacheprovider",
         "-q", "-rf", "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = result.stdout + result.stderr
    assert "INTERNALERROR" not in output
    assert "FAILED test_failing.py::test_a_failing_property" in output
    assert "FAILED test_failing.py::test_after_it" in output
