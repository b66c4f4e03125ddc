"""Construction invariants and core lookups for the domain types."""

from __future__ import annotations

import dataclasses
import os
import pickle
import subprocess
import sys
from collections import Counter
from itertools import permutations
from pathlib import Path

import pytest

from flowcheck import (
    Application,
    Cidr,
    Direction,
    Endpoint,
    MatchMode,
    Message,
    Namespace,
    Policy,
    PolicyOrigin,
    PolicySet,
    SystemState,
    UnknownApplication,
    canonical_policy_text,
    create_policy,
    deploy_application,
    evaluate,
    explain,
    get_application,
    new_system,
    normalize_fields,
    parse_cidr,
    send_data,
)
from flowcheck.errors import InvalidCidrString
from flowcheck.model import _memo


class TestCidr:
    def test_valid_block(self):
        c = Cidr(10, 28, 1, 2, 30)
        assert str(c) == "10.28.1.2/30"
        assert c.as_int() == (10 << 24) | (28 << 16) | (1 << 8) | 2

    @pytest.mark.parametrize(
        "blocks",
        [
            (256, 0, 0, 0, 0),
            (0, 256, 0, 0, 0),
            (0, 0, 0, -1, 0),
            (0, 0, 0, 0, 33),
            (0, 0, 0, 0, -1),
        ],
    )
    def test_out_of_range_rejected(self, blocks):
        with pytest.raises(ValueError):
            Cidr(*blocks)

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError):
            Cidr(10, 28, 1, "2", 30)
        with pytest.raises(ValueError):
            Cidr(10, 28, 1, True, 30)

    def test_parse_cidr_refuses_a_non_string(self):
        with pytest.raises(InvalidCidrString, match="^CIDR must be a string, got 5$"):
            parse_cidr(5)

    def test_parse_round_trip(self):
        assert parse_cidr("10.28.1.2/30") == Cidr(10, 28, 1, 2, 30)
        assert parse_cidr(str(Cidr(0, 0, 0, 0, 0))) == Cidr(0, 0, 0, 0, 0)

    @pytest.mark.parametrize(
        "text",
        [
            "10.28.1.2/33", "10.28.1.256/24", "10.28.1/24", "10.28.1.2", "bogus", "1.2.3.4/ 8",
            # digits other than ASCII ones, leading zeros and surrounding whitespace
            "\uff11\uff10.28.1.2/32", "\u0661\u0660.28.1.2/32", "10.28.1.2/\u0663\u0662",
            "010.28.1.2/32", "10.28.1.2/08", " 10.28.1.2/32", "10.28.1.2/32\n",
        ],
    )
    def test_parse_rejects(self, text):
        with pytest.raises(InvalidCidrString):
            parse_cidr(text)


class TestNamespaceAndEndpoint:
    def test_namespace_requires_name(self):
        with pytest.raises(ValueError):
            Namespace("")
        with pytest.raises(ValueError):
            Namespace("NS-UI", -1)

    def test_endpoint_needs_one_field(self):
        with pytest.raises(ValueError):
            Endpoint()

    @pytest.mark.parametrize("port", [0, -5, 70000, 65536])
    def test_endpoint_port_range(self, port):
        with pytest.raises(ValueError):
            Endpoint(port=port)

    @pytest.mark.parametrize("fields, message", [
        ({"cidr": "10.0.0.0/8"}, "cidr must be a Cidr, got '10.0.0.0/8'"),
        ({"namespace": "NS-UI"}, "namespace must be a Namespace, got 'NS-UI'"),
        ({"label": 5}, "label must be a string, got 5"),
    ], ids=["cidr-str", "namespace-str", "label-int"])
    def test_endpoint_refuses_a_field_of_another_type(self, fields, message):
        with pytest.raises(ValueError) as raised:
            Endpoint(**fields)
        assert str(raised.value) == message

    def test_endpoint_port_bounds_ok(self):
        assert Endpoint(port=1).port == 1
        assert Endpoint(port=65535).port == 65535

    def test_normalize_sentinels(self):
        fields = normalize_fields(Cidr(0, 0, 0, 0, 0), Namespace("-", 0), 0, "")
        assert fields == (None, None, None, None)

    def test_normalize_keeps_real_values(self):
        cidr = Cidr(10, 28, 1, 2, 30)
        ns = Namespace("NS-UI", 1)
        assert normalize_fields(cidr, ns, 443, "WebUI") == (cidr, ns, 443, "WebUI")


class TestPolicy:
    def test_direction_closed(self):
        ep = Endpoint(label="x")
        with pytest.raises(ValueError):
            Policy(pair=(ep, ep), direction=2)

    def test_direction_coercion(self):
        ep = Endpoint(label="x")
        assert Policy(pair=(ep, ep), direction=0).direction is Direction.INGRESS
        assert Policy(pair=(ep, ep), direction=1).direction is Direction.EGRESS

    def test_a_list_pair_is_stored_as_a_tuple(self):
        a, b = Endpoint(label="a"), Endpoint(label="b")
        policy = Policy([a, b], Direction.EGRESS)
        assert type(policy.pair) is tuple and policy.pair == (a, b)

    @pytest.mark.parametrize("direction", [True, 1.0])
    def test_a_direction_equal_to_one_is_egress(self, direction):
        ep = Endpoint(label="x")
        assert Policy((ep, ep), direction).direction is Direction.EGRESS

    EP = Endpoint(label="x")

    @pytest.mark.parametrize(
        "pair, direction, message",
        [
            ([EP, EP, EP], 0, f"pair must hold exactly two endpoints, got {[EP, EP, EP]!r}"),
            ((EP, "x"), 0, f"pair must hold exactly two endpoints, got {(EP, 'x')!r}"),
            ((EP, EP), 2, "direction must be 0 (ingress) or 1 (egress), got 2"),
            ((EP, EP), "1", "direction must be 0 (ingress) or 1 (egress), got '1'"),
        ],
        ids=["three-endpoints", "not-an-endpoint", "direction-2", "direction-str"],
    )
    def test_each_refusal_keeps_its_message(self, pair, direction, message):
        with pytest.raises(ValueError) as refused:
            Policy(pair, direction)
        assert str(refused.value) == message

    def test_a_replaced_policy_hashes_its_own_fields(self):
        a, b = Endpoint(label="a"), Endpoint(label="b")
        egress = Policy((a, b), Direction.EGRESS, PolicyOrigin("doc", 1))
        moved = dataclasses.replace(egress, direction=0)
        fresh = Policy((a, b), Direction.INGRESS)
        assert moved.direction is Direction.INGRESS and moved.origin == PolicyOrigin("doc", 1)
        assert moved == fresh and hash(moved) == hash(fresh) and hash(moved) != hash(egress)

    def test_converted_arguments_build_an_equal_policy(self):
        a, b = Endpoint(label="a"), Endpoint(label="b")
        converted, given = Policy([a, b], 0), Policy((a, b), Direction.INGRESS)
        assert converted == given and hash(converted) == hash(given) and len({converted, given}) == 1

    def test_equality_ignores_origin(self):
        a = Endpoint(label="a")
        b = Endpoint(label="b")
        p1 = Policy(pair=(a, b), direction=0, origin=PolicyOrigin("doc1", 0))
        p2 = Policy(pair=(a, b), direction=0, origin=PolicyOrigin("doc2", 3))
        assert p1 == p2
        assert hash(p1) == hash(p2)
        assert len({p1, p2}) == 1

    def test_order_and_direction_distinguish(self):
        a = Endpoint(label="a")
        b = Endpoint(label="b")
        assert Policy(pair=(a, b), direction=0) != Policy(pair=(b, a), direction=0)
        assert Policy(pair=(a, b), direction=0) != Policy(pair=(a, b), direction=1)

    def test_canonical_text_deterministic(self):
        policy = Policy(pair=(Endpoint(label="a"), Endpoint(label="b")), direction=1)
        assert canonical_policy_text(policy) == canonical_policy_text(policy)
        assert '"direction":1' in canonical_policy_text(policy)

    def test_a_pickled_policy_hashes_like_a_fresh_one(self):
        # hashed, then pickled, in a process with another str hash seed: a
        # hash cached there and sent along would differ from one made here
        code = (
            "import pickle, sys\n"
            "from flowcheck import Endpoint, Policy, PolicyOrigin\n"
            "p = Policy((Endpoint(label='a'), Endpoint(label='b')), 1, PolicyOrigin('doc', 0))\n"
            "hash(p)\n"
            "sys.stdout.buffer.write(pickle.dumps(p))\n"
        )
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        sent = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, check=True, timeout=60)
        policy = pickle.loads(sent.stdout)
        fresh = Policy(pair=(Endpoint(label="a"), Endpoint(label="b")), direction=1)
        assert policy == fresh and policy.origin == PolicyOrigin("doc", 0)
        assert hash(policy) == hash(fresh) and len({policy, fresh}) == 1

    def test_a_pickled_endpoint_hashes_like_a_fresh_one(self):
        # the endpoint and a policy holding it are hashed before pickling in
        # a process with another str hash seed; both are rebuilt here
        code = (
            "import pickle, sys\n"
            "from flowcheck import Cidr, Endpoint, Namespace, Policy\n"
            "e = Endpoint(Cidr(10, 0, 0, 0, 8), Namespace('NS-A', 3), 443, 'web')\n"
            "p = Policy((e, Endpoint(label='b')), 0)\n"
            "hash(e), hash(p), e.normalized\n"
            "sys.stdout.buffer.write(pickle.dumps((e, p)))\n"
        )
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        sent = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, check=True, timeout=60)
        endpoint, policy = pickle.loads(sent.stdout)
        fresh = Endpoint(Cidr(10, 0, 0, 0, 8), Namespace("NS-A", 3), 443, "web")
        assert endpoint == fresh and hash(endpoint) == hash(fresh) and len({endpoint, fresh}) == 1
        assert hash(endpoint) == hash((fresh.cidr, fresh.namespace, fresh.port, fresh.label))
        assert policy.pair[0] == fresh and hash(policy.pair[0]) == hash(fresh)
        assert policy == Policy((fresh, Endpoint(label="b")), 0)
        assert hash(policy) == hash(Policy((fresh, Endpoint(label="b")), 0))

    def test_a_replaced_endpoint_hashes_its_own_fields(self):
        ep = Endpoint(namespace=Namespace("NS-A", 1), port=80, label="web")
        moved = dataclasses.replace(ep, port=443)
        fresh = Endpoint(namespace=Namespace("NS-A", 1), port=443, label="web")
        assert moved == fresh and hash(moved) == hash(fresh) and hash(moved) != hash(ep)
        assert len({ep, moved, fresh}) == 2
        with pytest.raises(ValueError):
            dataclasses.replace(ep, port=0)


class TestMemo:
    def test_the_first_read_stores_the_value_and_later_reads_find_it(self):
        calls = []

        class Holder:
            @_memo
            def value(self):
                calls.append(self)
                return object()

        holder = Holder()
        first = holder.value
        assert calls == [holder] and vars(holder) == {"value": first}
        assert holder.value is first and holder.value is first and calls == [holder]

    def test_a_frozen_value_keeps_its_memo_in_its_dict(self):
        policy = Policy((Endpoint(label="a"), Endpoint(label="b")), Direction.EGRESS)
        assert "canonical_text" not in vars(policy)
        text = policy.canonical_text
        assert vars(policy)["canonical_text"] is text and policy.canonical_text is text
        assert vars(policy.pair[0])["canonical_text"] == '{"label":"a"}'

    def test_reading_on_the_class_gives_the_descriptor(self):
        for owner, name in [(Policy, "canonical_text"), (Endpoint, "normalized"), (Endpoint, "description")]:
            memo = getattr(owner, name)
            assert isinstance(memo, _memo) and memo is vars(owner)[name] and memo.name == name
            assert memo.__doc__ == memo.func.__doc__


class TestPolicySet:
    EP_A, EP_B = Endpoint(label="a"), Endpoint(label="b")
    A_FROM_B = Policy(pair=(EP_A, EP_B), direction=Direction.INGRESS)
    B_FROM_A = Policy(pair=(EP_B, EP_A), direction=Direction.INGRESS)

    def copies_of(self, policy, *origins):
        return [Policy(policy.pair, policy.direction, origin) for origin in origins]

    def test_members_and_copies_independent_of_input_order(self):
        # "" < "doc-a#0" < "doc-a#10" < "doc-a#2" < "doc-b#0": origins order as text
        origins = [PolicyOrigin("doc-b", 0), PolicyOrigin("doc-a", 2), None,
                   PolicyOrigin("doc-a", 10), PolicyOrigin("doc-a", 0)]
        a_copies = self.copies_of(self.A_FROM_B, *origins)
        b_copies = self.copies_of(self.B_FROM_A, PolicyOrigin("doc-b", 1), PolicyOrigin("doc-a", 3))
        expected = [None, PolicyOrigin("doc-a", 0), PolicyOrigin("doc-a", 10),
                    PolicyOrigin("doc-a", 2), PolicyOrigin("doc-b", 0)]
        for order in permutations(a_copies + b_copies):
            policies = PolicySet(order)
            assert len(policies) == 2
            assert {p.origin for p in policies} == {None, PolicyOrigin("doc-a", 3)}
            assert [p.origin for p in policies.copies(self.A_FROM_B)] == expected
            assert [p.origin for p in policies.copies(self.B_FROM_A)] == [
                PolicyOrigin("doc-a", 3), PolicyOrigin("doc-b", 1)
            ]
            ranked = [(p, p.origin) for p in sorted(policies, key=canonical_policy_text)]
            for mode in MatchMode:
                assert [(p, p.origin) for p, _ in explain(policies, self.EP_A, self.EP_B, mode)] == ranked

    def test_set_protocol(self):
        a, b = self.copies_of(self.A_FROM_B, PolicyOrigin("d", 1), PolicyOrigin("d", 0))
        policies = PolicySet([a, b, self.B_FROM_A])
        assert policies == frozenset({a, self.B_FROM_A}) == set(policies)
        assert hash(policies) == hash(frozenset(policies))
        assert a in policies and len(policies) == 2
        assert (policies | {self.A_FROM_B}) == policies
        assert [p.origin for p in sorted(policies, key=canonical_policy_text)] == [PolicyOrigin("d", 0), None]

    def test_adding_leaves_the_old_set_and_its_tables(self, inserted_rows):
        # the write appends to the lineage the old set shares, whose tables
        # then hold what a fresh build of the new set would; the old set,
        # queried again, inserts no row and answers as before
        wide = Endpoint(cidr=Cidr(10, 0, 0, 0, 8))
        state, _ = create_policy(new_system(), self.EP_A, self.EP_B, Direction.INGRESS)
        state, wide_to_a = create_policy(state, wide, self.EP_A, Direction.EGRESS)
        old = state.policies
        flows = [(self.EP_B, self.EP_A), (self.EP_A, self.EP_B), (Endpoint(cidr=Cidr(10, 1, 2, 3, 32)), self.EP_A)]

        def answers(policies):
            return [(evaluate(policies, *flow, mode), explain(policies, *flow, mode)) for mode in MatchMode
                    for flow in flows]

        def buckets(lookup):
            return {shapes: {keys: Counter(map(id, found)) for keys, found in keyed.items()}
                    for shapes, keyed in lookup.items()}

        before = answers(old)
        assert evaluate(old, self.EP_B, self.EP_A, MatchMode.STRICT).allowed
        assert set(old.lineage.tables) == set(MatchMode)
        new_state, policy = create_policy(state, self.EP_B, self.EP_A, Direction.INGRESS)
        new = new_state.policies
        assert new == {self.A_FROM_B, wide_to_a, policy} and new.lineage is old.lineage
        rebuilt = PolicySet(new)
        for mode in MatchMode:
            evaluate(new, self.EP_A, self.EP_B, mode)
            evaluate(rebuilt, self.EP_A, self.EP_B, mode)
            (lookup, rows), (fresh_lookup, fresh_rows) = new.lineage.tables[mode], rebuilt.lineage.tables[mode]
            assert len(rows) == 3 and rows == fresh_rows
            assert buckets(lookup) == buckets(fresh_lookup)
        assert evaluate(new, self.EP_A, self.EP_B, MatchMode.STRICT).allowed
        assert state.policies is old and list(old) == [self.A_FROM_B, wide_to_a] and policy not in old
        assert answers(old) == before and answers(old) == before
        tables = inserted_rows.by_table()
        assert all(tables[id(new.lineage.tables[mode][1])] == sorted(map(id, new)) for mode in MatchMode)
        assert not evaluate(old, self.EP_A, self.EP_B, MatchMode.STRICT).allowed
        with pytest.raises(ValueError):
            new_state.policies.adding(policy)


    def test_copies_of_a_later_member_raise(self):
        old = PolicySet([self.A_FROM_B])
        new = old.adding(self.B_FROM_A)
        assert new.lineage is old.lineage and new.copies(self.B_FROM_A) == (self.B_FROM_A,)
        assert self.B_FROM_A not in old and list(old) == [self.A_FROM_B]
        with pytest.raises(KeyError):
            old.copies(self.B_FROM_A)

    def test_adding_to_an_older_set_starts_a_new_lineage(self):
        wide = Policy(pair=(self.EP_A, Endpoint(cidr=Cidr(10, 0, 0, 0, 8))), direction=Direction.EGRESS)
        a, b = self.copies_of(self.A_FROM_B, PolicyOrigin("d", 1), PolicyOrigin("d", 0))
        old = PolicySet([a, b])
        newest = old.adding(self.B_FROM_A)
        branch = old.adding(wide)
        assert branch.lineage is not old.lineage and old.lineage is newest.lineage
        assert list(branch) == [b, wide] and branch.copies(b) == (b, a) and self.B_FROM_A not in branch
        assert list(newest) == [b, self.B_FROM_A] and list(old) == [b]
        to_b, to_block = (self.EP_A, self.EP_B), (self.EP_A, Endpoint(cidr=Cidr(10, 0, 0, 0, 8)))
        for mode in MatchMode:
            assert [evaluate(policies, *flow, mode).allowed for policies in (old, newest, branch)
                    for flow in (to_b, to_block)] == [False, False, True, False, False, True]
        assert branch.adding(self.B_FROM_A).lineage is branch.lineage

    def test_a_branch_lineage_joins_only_its_own_members(self):
        # the original lineage grows past the older set, then the branch from
        # that set grows past the branch point: the positions overlap
        a, b = self.copies_of(self.A_FROM_B, PolicyOrigin("d", 1), PolicyOrigin("d", 0))
        later = [Policy(pair=(self.EP_A, Endpoint(port=port)), direction=Direction.EGRESS) for port in (1, 2)]
        own = [Policy(pair=(self.EP_B, Endpoint(port=port)), direction=Direction.EGRESS) for port in (3, 4)]
        old = PolicySet([a, b])
        newest = old.adding(later[0]).adding(later[1])
        branch = old.adding(own[0]).adding(own[1])
        assert list(newest) == [b, *later] and list(branch) == [b, *own]
        assert branch.lineage.joined == {b: (0, (b, a)), own[0]: (1, (own[0],)), own[1]: (2, (own[1],))}
        for policy in later:
            assert policy not in branch
            with pytest.raises(KeyError):
                branch.copies(policy)
        assert all(policy in newest and policy not in old for policy in later)


class TestSystemState:
    def test_new_system_empty(self):
        state = new_system()
        assert state.applications == frozenset()
        assert state.policies == frozenset()
        assert state.endpoints == frozenset()
        assert state.app_data == {}

    def test_new_system_deterministic(self):
        assert new_system() == new_system()

    def test_fresh_states_share_no_lineage(self):
        policy = Policy(pair=(Endpoint(label="a"), Endpoint(label="b")), direction=Direction.INGRESS)
        first, _ = create_policy(new_system(), *policy.pair, policy.direction)
        second, _ = create_policy(new_system(), *policy.pair, policy.direction)
        assert first.policies == second.policies == {policy}
        assert first.policies.lineage is not second.policies.lineage
        assert SystemState().policies == frozenset() and SystemState().policies.lineage == []

    @pytest.mark.parametrize("fields, message", [
        ({"send_endpoint": "a"}, "send_endpoint must be an Endpoint, got 'a'"),
        ({"send_endpoint": Endpoint(label="a"), "receive_only": 1}, "receive_only must be a bool, got 1"),
    ], ids=["send-str", "receive-only-int"])
    def test_application_refuses_a_field_of_another_type(self, fields, message):
        with pytest.raises(ValueError) as raised:
            Application(app_id=1, **fields)
        assert str(raised.value) == message

    def test_duplicate_app_ids_rejected(self):
        a1 = Application(app_id=1, send_endpoint=Endpoint(label="a"))
        a2 = Application(app_id=1, send_endpoint=Endpoint(label="b"))
        with pytest.raises(ValueError):
            SystemState(applications={a1, a2})

    def test_app_data_keys_must_exist(self):
        with pytest.raises(ValueError):
            SystemState(app_data={7: ()})

    def test_every_application_has_a_log(self):
        ep1, ep2 = Endpoint(label="a"), Endpoint(label="b")
        a1 = Application(app_id=1, send_endpoint=ep1)
        a2 = Application(app_id=2, send_endpoint=ep2, listen_endpoints={ep2})
        policy = Policy(pair=(ep2, ep1), direction=Direction.INGRESS)
        state = SystemState(applications={a1, a2}, policies={policy}, endpoints={ep1, ep2})
        assert state.app_data == {1: (), 2: ()}
        state, verdict = send_data(state, 1, 2, ep2)
        assert verdict.allowed
        assert state.app_data[1] == () and len(state.app_data[2]) == 1
        msg = Message()
        assert SystemState(applications={a1, a2}, app_data={2: [msg]}).app_data == {2: (msg,), 1: ()}

    def test_a_write_copies_the_fields_it_leaves(self):
        ep1, ep2 = Endpoint(label="a"), Endpoint(label="b")
        a1 = Application(app_id=1, send_endpoint=ep1)
        state = SystemState(applications={a1}, endpoints={ep1, ep2})
        written, _ = create_policy(state, ep1, ep2, Direction.EGRESS)
        assert written.by_id is state.by_id and written.app_data is state.app_data
        assert written.endpoints is state.endpoints and written.applications is state.applications
        assert written == SystemState(applications={a1}, policies=written.policies, endpoints={ep1, ep2})
        deployed = deploy_application(written, 2, ep2, {ep2})
        assert deployed.policies is written.policies and deployed.endpoints is written.endpoints
        assert deployed.by_id[1] is a1 and deployed.app_data == {1: (), 2: ()}
        sent, _ = send_data(deployed, 1, 2, ep2)
        assert sent.applications is deployed.applications and sent.by_id is deployed.by_id
        assert sent.policies is deployed.policies and sent.endpoints is deployed.endpoints
        assert sent.app_data[1] is deployed.app_data[1] and len(sent.app_data[2]) == 1

    def test_get_application(self):
        a1 = Application(app_id=1, send_endpoint=Endpoint(label="a"))
        a2 = Application(app_id=2, send_endpoint=Endpoint(label="b"))
        state = SystemState(applications={a1, a2}, app_data={1: (), 2: ()})
        assert get_application(state, 2) is a2

    def test_get_application_unknown(self):
        a1 = Application(app_id=1, send_endpoint=Endpoint(label="a"))
        state = SystemState(applications={a1}, app_data={1: ()})
        with pytest.raises(UnknownApplication):
            get_application(state, 7)
