"""Domain types for endpoint-pair network policies and the system state.

An endpoint identifies a communication peer by any combination of CIDR
block, namespace, port and label.  A policy maps one ordered endpoint pair
to a direction (0 = ingress, 1 = egress): ingress pairs are ordered
(receiver, sender), egress pairs (sender, receiver).  All types are
immutable values validating their invariants at construction time.

Scenario scripts conventionally encode "unconstrained" endpoint fields
with sentinel values (CIDR 0.0.0.0/0, namespace "-" with id 0, port 0,
empty label).  The model stores absence explicitly; ``normalize_fields``
maps the sentinels to absent on the way in, and ``Endpoint.normalized``
holds an endpoint's fields so mapped, as plain values.
"""

from __future__ import annotations

import json
import re
from collections.abc import Iterable, Set
from dataclasses import dataclass, field
from enum import IntEnum
from itertools import islice
from typing import Mapping, Optional

from .errors import IngestError, UnknownApplication, shown

# ASCII digits only, and no leading zero on a number other than 0 itself
_OCTET = r"(0|[1-9][0-9]{0,2})"
_CIDR_RE = re.compile(rf"{_OCTET}\.{_OCTET}\.{_OCTET}\.{_OCTET}/(0|[1-9][0-9]?)")

MAX_APP_ID = 2**63 - 1
MAX_NAMESPACE_ID = 2**31 - 1


class _memo:
    """A value computed from an immutable instance on first read and
    stored under the attribute's own name in the instance's dict, which
    later reads find first.  ``functools.cached_property`` does the same
    but, on Python 3.11, takes an ``RLock`` on every first read; the
    values here are immutable and built from immutable fields, so a value
    computed twice in a race is harmless and no lock is needed."""

    def __init__(self, func):
        self.func, self.name, self.__doc__ = func, func.__name__, func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = vars(instance)[self.name] = self.func(instance)
        return value


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
    """Parse ``a.b.c.d/p`` notation; raises IngestError otherwise."""
    if not isinstance(text, str):
        raise IngestError(f"CIDR must be a string, got {shown(text)}")
    m = _CIDR_RE.fullmatch(text)
    if m is None:
        raise IngestError(f"not a CIDR block: {shown(text)}")
    blocks = [int(g) for g in m.groups()]
    if any(b > 255 for b in blocks[:4]):
        raise IngestError(f"octet out of range in {shown(text)}")
    if blocks[4] > 32:
        raise IngestError(f"prefix length out of range in {shown(text)}")
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
        # hashed once, as a Policy is: every reachability key holds an
        # endpoint, and the dataclass hash walks its Cidr and Namespace
        object.__setattr__(self, "_hash", hash((self.cidr, self.namespace, self.port, self.label)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuilt, not copied: str hashes differ between processes
        return Endpoint, (self.cidr, self.namespace, self.port, self.label)

    @_memo
    def normalized(self) -> tuple:
        """The fields with sentinels mapped to absent, as plain values:
        ((address as int, prefix length) | None, (name, id) | None, port,
        label), equal exactly when the fields are.  Computed on first use,
        so every table row holding the endpoint shares one tuple."""
        cidr, namespace, port, label = normalize_fields(self.cidr, self.namespace, self.port, self.label)
        return (
            None if cidr is None else (cidr.as_int(), cidr.sig_bits),
            None if namespace is None else (namespace.name, namespace.id),
            port,
            label,
        )

    @_memo
    def canonical_text(self) -> str:
        """Canonical JSON text of the fields present (compact, keys
        sorted), computed on first use; a policy's text is assembled from
        its two endpoints' texts."""
        return json.dumps(endpoint_to_dict(self), sort_keys=True, separators=(",", ":"))

    @_memo
    def description(self) -> str:
        """The ``describe_endpoint`` rendering, computed on first use."""
        fields = endpoint_to_dict(self)
        if "namespace" in fields:
            fields["namespace"] = self.namespace.name
        return "(" + ", ".join(f"{key}={value}" for key, value in fields.items()) + ")"


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


@dataclass(frozen=True)
class PolicyOrigin:
    """Provenance of an ingested policy: source document name and rule index."""

    document: str
    rule_index: int

    def __str__(self) -> str:
        return f"{self.document}#{self.rule_index}"


@dataclass(frozen=True, init=False)
class Policy:
    """One ordered endpoint pair mapped to a direction.

    Equality and hashing are structural over (pair, direction); origin is
    provenance metadata only.  A policy is checked, built and hashed in
    one ``__init__`` (which ``dataclasses.replace`` and unpickling call
    too): a tuple pair and a ``Direction`` are kept as given, any other
    pair is made a tuple and any other direction a ``Direction``.
    """

    pair: tuple[Endpoint, Endpoint]
    direction: Direction
    origin: Optional[PolicyOrigin] = field(default=None, compare=False)

    def __init__(self, pair, direction, origin=None):
        members = pair if type(pair) is tuple else tuple(pair)
        if len(members) != 2 or not isinstance(members[0], Endpoint) or not isinstance(members[1], Endpoint):
            raise ValueError(f"pair must hold exactly two endpoints, got {pair!r}")
        if type(direction) is not Direction:
            try:
                direction = Direction(direction)
            except ValueError:
                raise ValueError(f"direction must be 0 (ingress) or 1 (egress), got {direction!r}")
        # written to the dict key by key, in one order for every policy, so
        # all policies' dicts share one key table (``vars(self).update``
        # would give each its own); four writes cost less than four
        # ``object.__setattr__`` calls.  Hashed once, here, with the
        # fields: the dataclass hash walks both endpoints' fields on every
        # call.
        fields = vars(self)
        fields["pair"] = members
        fields["direction"] = direction
        fields["origin"] = origin
        fields["_hash"] = hash((members, direction))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuilt, not copied: str hashes differ between processes
        return Policy, (self.pair, self.direction, self.origin)

    @_memo
    def canonical_text(self) -> str:
        """Canonical JSON text of (pair, direction), computed on first use:
        ``json.dumps(policy_to_dict(policy), sort_keys=True)`` in compact
        form, assembled from the endpoints' cached texts (the top-level
        keys are already in sorted order)."""
        first, second = self.pair
        return '{"direction":%d,"first":%s,"second":%s}' % (
            self.direction, first.canonical_text, second.canonical_text
        )


class _Lineage(list):
    """Members in join order, shared by a set and the sets its writes
    derive.  ``joined`` maps exactly these members, each to its position
    and copies; ``tables`` is ``matching``'s, one per mode."""

    def __init__(self, members: Iterable[Policy] = (), joined: Optional[dict] = None):
        super().__init__(members)
        self.joined, self.tables = {} if joined is None else joined, {}

    def join(self, copies: tuple[Policy, ...]) -> None:
        self.joined[copies[0]] = (len(self), copies)
        self.append(copies[0])


class PolicySet(Set):
    """An immutable set of policies that keeps every copy it was given.

    Structurally equal policies (copies, from different origins) collapse
    to one member: the copy lowest in canonical (text, origin) order, so
    the member and every witness name the same origin whatever the input
    order.  ``copies`` gives all of a member's copies in that order.

    A set is the first ``size`` (its ``len``) members of an append-only
    ``lineage`` and its tables, shared with the sets its writes derive:
    ``adding`` on the lineage's newest set appends the policy, and on an
    older set starts a new lineage from this set's members.  A lineage's
    ``joined`` holds exactly its members, so a policy is in the set iff
    it joined at a position below ``size``.
    """

    def __init__(self, policies: Iterable[Policy] = ()):
        groups: dict[Policy, list[Policy]] = {}
        for policy in policies:
            groups.setdefault(policy, []).append(policy)
        self.lineage, self.size = _Lineage(), len(groups)
        for group in groups.values():
            # copies by origin: with their shared text, the canonical order
            self.lineage.join(tuple(sorted(group, key=lambda copy: str(copy.origin or ""))))

    def adding(self, policy: Policy) -> PolicySet:
        """This set plus a policy it does not hold."""
        if policy in self:
            raise ValueError(f"policy already in the set: {policy.canonical_text}")
        derived = object.__new__(PolicySet)
        derived.lineage, derived.size = self.lineage, self.size + 1
        if self.size < len(self.lineage):
            joined = self.lineage.joined  # the new lineage's joined holds this set's members alone
            derived.lineage = _Lineage(self, {member: joined[member] for member in self})
        derived.lineage.join((policy,))
        return derived

    def copies(self, policy: Policy) -> tuple[Policy, ...]:
        """Every copy of a member, in canonical order; its first is the member."""
        if policy not in self:
            raise KeyError(policy)
        return self.lineage.joined[policy][1]

    def __contains__(self, policy) -> bool:
        joined = self.lineage.joined.get(policy)
        return joined is not None and joined[0] < self.size

    def __iter__(self):
        return islice(self.lineage, self.size)

    def __len__(self) -> int:
        return self.size

    # hashable like the frozenset it stands in for
    __hash__ = Set._hash

    def __repr__(self) -> str:
        return f"PolicySet({list(self)!r})"


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

    Immutable; operations produce new states.  policies is a PolicySet
    (any other iterable is made into one).  app_data holds one log per
    application, ``()`` unless given: the messages it has received, in
    order.  by_id maps each app_id to its application.  Validated once,
    here: the operations derive the next state with ``replace_validated``.
    """

    applications: frozenset[Application] = frozenset()
    policies: PolicySet = field(default_factory=PolicySet)
    endpoints: frozenset[Endpoint] = frozenset()
    app_data: Mapping[int, tuple[Message, ...]] = field(default_factory=dict)
    by_id: Mapping[int, Application] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "applications", frozenset(self.applications))
        if not isinstance(self.policies, PolicySet):
            object.__setattr__(self, "policies", PolicySet(self.policies))
        object.__setattr__(self, "endpoints", frozenset(self.endpoints))
        by_id = {app.app_id: app for app in self.applications}
        if len(by_id) != len(self.applications):
            raise ValueError("applications must have unique app_ids")
        object.__setattr__(self, "by_id", by_id)
        logs = {aid: tuple(msgs) for aid, msgs in dict(self.app_data).items()}
        stray = logs.keys() - by_id.keys()
        if stray:
            raise ValueError(f"app_data keyed by unknown app_ids: {sorted(stray)}")
        if len(logs) < len(by_id):
            logs = dict.fromkeys(sorted(by_id), ()) | logs
        object.__setattr__(self, "app_data", logs)


def replace_validated(state: SystemState, **fields) -> SystemState:
    """``state`` with ``fields`` replaced by values in the form
    ``__post_init__`` gives them; the other fields are copied as they are.
    The operations' preconditions keep the invariant: a new application
    brings an unused id, its ``by_id`` entry and an empty log, and a
    message joins an existing log."""
    derived = object.__new__(SystemState)
    vars(derived).update(vars(state), **fields)
    return derived


def new_system() -> SystemState:
    """A fresh system: no applications, policies, endpoints or data."""
    return SystemState()


def get_application(state: SystemState, aid: int) -> Application:
    """Look up an application by id; pure. Raises UnknownApplication."""
    app = state.by_id.get(aid)
    if app is None:
        raise UnknownApplication(f"no application with id {aid}")
    return app


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


def policy_to_dict(policy: Policy) -> dict:
    return {
        "direction": int(policy.direction),
        "first": endpoint_to_dict(policy.pair[0]),
        "second": endpoint_to_dict(policy.pair[1]),
    }


def canonical_endpoint_text(ep: Endpoint) -> str:
    return ep.canonical_text


def canonical_policy_text(policy: Policy) -> str:
    return policy.canonical_text


def describe_endpoint(ep: Endpoint) -> str:
    """Compact human-readable endpoint rendering (present fields only)."""
    return ep.description
