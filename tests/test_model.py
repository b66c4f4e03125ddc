"""Construction invariants and core lookups for the domain types."""

from __future__ import annotations

import pytest

from flowcheck import (
    Application,
    Cidr,
    Direction,
    Endpoint,
    Namespace,
    Policy,
    PolicyOrigin,
    SystemState,
    UnknownApplication,
    canonical_policy_text,
    get_application,
    new_system,
    normalize_fields,
    parse_cidr,
)
from flowcheck.errors import InvalidCidrString
from flowcheck.model import endpoint_from_dict, endpoint_to_dict, policy_from_dict, policy_to_dict


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

    def test_parse_round_trip(self):
        assert parse_cidr("10.28.1.2/30") == Cidr(10, 28, 1, 2, 30)
        assert parse_cidr(str(Cidr(0, 0, 0, 0, 0))) == Cidr(0, 0, 0, 0, 0)

    @pytest.mark.parametrize(
        "text", ["10.28.1.2/33", "10.28.1.256/24", "10.28.1/24", "10.28.1.2", "bogus", "1.2.3.4/ 8"]
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

    def test_dict_round_trip(self):
        policy = Policy(
            pair=(
                Endpoint(namespace=Namespace("NS-UI", 1), port=443, label="WebUI"),
                Endpoint(cidr=Cidr(10, 28, 1, 2, 30)),
            ),
            direction=Direction.INGRESS,
        )
        assert policy_from_dict(policy_to_dict(policy)) == policy
        ep = Endpoint(cidr=Cidr(1, 2, 3, 4, 32), port=80)
        assert endpoint_from_dict(endpoint_to_dict(ep)) == ep

    def test_canonical_text_deterministic(self):
        policy = Policy(pair=(Endpoint(label="a"), Endpoint(label="b")), direction=1)
        assert canonical_policy_text(policy) == canonical_policy_text(policy)
        assert '"direction":1' in canonical_policy_text(policy)


class TestSystemState:
    def test_new_system_empty(self):
        state = new_system()
        assert state.applications == frozenset()
        assert state.policies == frozenset()
        assert state.endpoints == frozenset()
        assert state.app_data == {}

    def test_new_system_deterministic(self):
        assert new_system() == new_system()

    def test_duplicate_app_ids_rejected(self):
        a1 = Application(app_id=1, send_endpoint=Endpoint(label="a"))
        a2 = Application(app_id=1, send_endpoint=Endpoint(label="b"))
        with pytest.raises(ValueError):
            SystemState(applications={a1, a2})

    def test_app_data_keys_must_exist(self):
        with pytest.raises(ValueError):
            SystemState(app_data={7: ()})

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
