"""Domain types for endpoint-pair network policies and the system state.

An endpoint identifies a communication peer by any combination of CIDR
block, namespace, port and label.  A policy maps one ordered endpoint pair
to a direction (0 = ingress, 1 = egress): ingress pairs are ordered
(receiver, sender), egress pairs (sender, receiver).  All types are
immutable values validating their invariants at construction time.

Scenario scripts conventionally encode "unconstrained" endpoint fields
with sentinel values (CIDR 0.0.0.0/0, namespace "-" with id 0, port 0,
empty label).  The model stores absence explicitly; ``normalize_fields``
maps the sentinels to absent on the way in.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from functools import cached_property
from enum import IntEnum
from typing import Mapping, Optional

from .errors import InvalidCidrString, UnknownApplication

_CIDR_RE = re.compile(r"^(\d{1,3})\.(\d{1,3})\.(\d{1,3})\.(\d{1,3})/(\d{1,2})$")

MAX_APP_ID = 2**63 - 1
MAX_NAMESPACE_ID = 2**31 - 1


def _check_int(value, name: str, lo: int, hi: int) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if not lo <= value <= hi:
        raise ValueError(f"{name} must be in [{lo}, {hi}], got {value}")


@dataclass(frozen=True)
class Cidr:
    """An IPv4 block: four octets plus a significant-bits prefix length."""

    block1: int
    block2: int
    block3: int
    block4: int
    sig_bits: int

    def __post_init__(self):
        _check_int(self.block1, "block1", 0, 255)
        _check_int(self.block2, "block2", 0, 255)
        _check_int(self.block3, "block3", 0, 255)
        _check_int(self.block4, "block4", 0, 255)
        _check_int(self.sig_bits, "sig_bits", 0, 32)

    def as_int(self) -> int:
        """32-bit big-endian integer form of the address part."""
        return (self.block1 << 24) | (self.block2 << 16) | (self.block3 << 8) | self.block4

    def __str__(self) -> str:
        return f"{self.block1}.{self.block2}.{self.block3}.{self.block4}/{self.sig_bits}"


def parse_cidr(text: str) -> Cidr:
    """Parse ``a.b.c.d/p`` notation; raises InvalidCidrString otherwise."""
    if not isinstance(text, str):
        raise InvalidCidrString(f"CIDR must be a string, got {text!r}")
    m = _CIDR_RE.match(text.strip())
    if m is None:
        raise InvalidCidrString(f"not a CIDR block: {text!r}")
    blocks = [int(g) for g in m.groups()]
    if any(b > 255 for b in blocks[:4]):
        raise InvalidCidrString(f"octet out of range in {text!r}")
    if blocks[4] > 32:
        raise InvalidCidrString(f"prefix length out of range in {text!r}")
    return Cidr(*blocks)


@dataclass(frozen=True)
class Namespace:
    """Named namespace; the id is carried for structural identity only."""

    name: str
    id: int = 1

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise ValueError(f"namespace name must be a non-empty string, got {self.name!r}")
        _check_int(self.id, "namespace id", 0, MAX_NAMESPACE_ID)


class Direction(IntEnum):
    """Flow direction of a policy; serialized as 0 and 1."""

    INGRESS = 0
    EGRESS = 1


@dataclass(frozen=True)
class Endpoint:
    """A communication peer; at least one of the four fields is present."""

    cidr: Optional[Cidr] = None
    namespace: Optional[Namespace] = None
    port: Optional[int] = None
    label: Optional[str] = None

    def __post_init__(self):
        if self.cidr is None and self.namespace is None and self.port is None and self.label is None:
            raise ValueError("endpoint needs at least one of cidr, namespace, port, label")
        if self.cidr is not None and not isinstance(self.cidr, Cidr):
            raise ValueError(f"cidr must be a Cidr, got {self.cidr!r}")
        if self.namespace is not None and not isinstance(self.namespace, Namespace):
            raise ValueError(f"namespace must be a Namespace, got {self.namespace!r}")
        if self.port is not None:
            _check_int(self.port, "port", 1, 65535)
        if self.label is not None and not isinstance(self.label, str):
            raise ValueError(f"label must be a string, got {self.label!r}")


SENTINEL_CIDR = Cidr(0, 0, 0, 0, 0)
SENTINEL_NAMESPACE = Namespace("-", 0)


def normalize_fields(cidr, namespace, port, label):
    """Map sentinel encodings of "unconstrained" to absent fields."""
    if cidr == SENTINEL_CIDR:
        cidr = None
    if namespace == SENTINEL_NAMESPACE:
        namespace = None
    if port == 0:
        port = None
    if label == "":
        label = None
    return cidr, namespace, port, label


def normalized_fields(ep: Endpoint):
    """The endpoint's field tuple with sentinels mapped to absent."""
    return normalize_fields(ep.cidr, ep.namespace, ep.port, ep.label)


@dataclass(frozen=True)
class PolicyOrigin:
    """Provenance of an ingested policy: source document name and rule index."""

    document: str
    rule_index: int


@dataclass(frozen=True)
class Policy:
    """One ordered endpoint pair mapped to a direction.

    Equality and hashing are structural over (pair, direction); origin is
    provenance metadata only.
    """

    pair: tuple[Endpoint, Endpoint]
    direction: Direction
    origin: Optional[PolicyOrigin] = field(default=None, compare=False)

    def __post_init__(self):
        pair = tuple(self.pair)
        if len(pair) != 2 or not all(isinstance(e, Endpoint) for e in pair):
            raise ValueError(f"pair must hold exactly two endpoints, got {self.pair!r}")
        object.__setattr__(self, "pair", pair)
        try:
            object.__setattr__(self, "direction", Direction(self.direction))
        except ValueError:
            raise ValueError(f"direction must be 0 (ingress) or 1 (egress), got {self.direction!r}")

    @cached_property
    def canonical_text(self) -> str:
        """Canonical JSON text of (pair, direction), computed on first use."""
        return json.dumps(policy_to_dict(self), sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class Application:
    """A deployed unit: send endpoint and listen endpoints."""

    app_id: int
    send_endpoint: Endpoint
    listen_endpoints: frozenset[Endpoint] = frozenset()
    receive_only: bool = False

    def __post_init__(self):
        _check_int(self.app_id, "app_id", 0, MAX_APP_ID)
        if not isinstance(self.send_endpoint, Endpoint):
            raise ValueError(f"send_endpoint must be an Endpoint, got {self.send_endpoint!r}")
        object.__setattr__(self, "listen_endpoints", frozenset(self.listen_endpoints))
        if not isinstance(self.receive_only, bool):
            raise ValueError(f"receive_only must be a bool, got {self.receive_only!r}")


class Message:
    """Opaque transfer payload; content-free, compares by identity."""

    __slots__ = ()

    def __repr__(self):
        return f"<Message 0x{id(self):x}>"


@dataclass(frozen=True)
class SystemState:
    """The global system: applications, policies, endpoints, received data.

    Immutable; operations produce new states.  app_data maps each deployed
    app_id to the ordered sequence of messages it has received.
    """

    applications: frozenset[Application] = frozenset()
    policies: frozenset[Policy] = frozenset()
    endpoints: frozenset[Endpoint] = frozenset()
    app_data: Mapping[int, tuple[Message, ...]] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "applications", frozenset(self.applications))
        object.__setattr__(self, "policies", frozenset(self.policies))
        object.__setattr__(self, "endpoints", frozenset(self.endpoints))
        object.__setattr__(
            self, "app_data", {aid: tuple(msgs) for aid, msgs in dict(self.app_data).items()}
        )
        ids = [app.app_id for app in self.applications]
        if len(ids) != len(set(ids)):
            raise ValueError("applications must have unique app_ids")
        stray = set(self.app_data) - set(ids)
        if stray:
            raise ValueError(f"app_data keyed by unknown app_ids: {sorted(stray)}")


def new_system() -> SystemState:
    """A fresh system: no applications, policies, endpoints or data."""
    return SystemState()


def get_application(state: SystemState, aid: int) -> Application:
    """Look up an application by id; pure. Raises UnknownApplication."""
    for app in state.applications:
        if app.app_id == aid:
            return app
    raise UnknownApplication(f"no application with id {aid}")


# --- canonical value forms -------------------------------------------------
#
# Dict/JSON projections with deterministic field order.  The JSON text of a
# policy doubles as the total order used to pick deterministic witnesses.


def endpoint_to_dict(ep: Endpoint) -> dict:
    out: dict = {}
    if ep.cidr is not None:
        out["cidr"] = str(ep.cidr)
    if ep.namespace is not None:
        out["namespace"] = {"name": ep.namespace.name, "id": ep.namespace.id}
    if ep.port is not None:
        out["port"] = ep.port
    if ep.label is not None:
        out["label"] = ep.label
    return out


def endpoint_from_dict(data: Mapping) -> Endpoint:
    cidr = parse_cidr(data["cidr"]) if "cidr" in data else None
    namespace = None
    if "namespace" in data:
        namespace = Namespace(data["namespace"]["name"], data["namespace"]["id"])
    return Endpoint(cidr=cidr, namespace=namespace, port=data.get("port"), label=data.get("label"))


def policy_to_dict(policy: Policy) -> dict:
    return {
        "direction": int(policy.direction),
        "first": endpoint_to_dict(policy.pair[0]),
        "second": endpoint_to_dict(policy.pair[1]),
    }


def policy_from_dict(data: Mapping) -> Policy:
    return Policy(
        pair=(endpoint_from_dict(data["first"]), endpoint_from_dict(data["second"])),
        direction=Direction(data["direction"]),
    )


def canonical_endpoint_text(ep: Endpoint) -> str:
    return json.dumps(endpoint_to_dict(ep), sort_keys=True, separators=(",", ":"))


def canonical_policy_text(policy: Policy) -> str:
    return policy.canonical_text


def describe_endpoint(ep: Endpoint) -> str:
    """Compact human-readable endpoint rendering (present fields only)."""
    parts = []
    if ep.cidr is not None:
        parts.append(f"cidr={ep.cidr}")
    if ep.namespace is not None:
        parts.append(f"namespace={ep.namespace.name}")
    if ep.port is not None:
        parts.append(f"port={ep.port}")
    if ep.label is not None:
        parts.append(f"label={ep.label}")
    return "(" + ", ".join(parts) + ")"
