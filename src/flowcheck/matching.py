"""Decides whether a concrete transfer is permitted by deployed policies.

Two modes.  Strict compares policy endpoints to concrete endpoints by
structural equality (after sentinel normalization), which is the
deny-by-default existential check the scenario engine builds on.  Semantic
treats policy endpoints as selectors the way a CNI evaluates them: CIDR
containment for addresses, name equality for namespaces, exact match for
ports and labels; absent policy fields constrain nothing.

``evaluate`` decides a flow (allow or deny plus a witness); ``explain``
alone fills ``MatchVerdict.failed_predicates`` with why a denial failed.

Both answer from a ``PolicySet``; any other iterable is made into one
for that call only.  Its members are keyed on their oriented pair
(sender spec, receiver spec) in one table per mode, built on the set's
first query in that mode and kept in ``PolicySet.tables``:

* strict: one dict from the two specs' normalized field tuples to the
  policies with exactly those fields, so a lookup is the permitting set;
* semantic: one dict per pair of spec shapes (CIDR prefix length or none,
  and which of namespace, port and label are present), keyed on the CIDR's
  top prefix-length bits, the namespace name, the port and the label.  A
  lookup derives the concrete pair's key under each shape pair the set
  holds, skipping shapes the endpoint cannot satisfy (a missing field or
  a block wider than the prefix), so every hit permits the flow.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional

from .errors import ContainmentUndefined
from .model import (
    Cidr,
    Direction,
    Endpoint,
    Policy,
    PolicySet,
    canonical_policy_text,
    normalized_fields,
)


class MatchMode(Enum):
    STRICT = "strict"
    SEMANTIC = "semantic"


@dataclass(frozen=True)
class MatchVerdict:
    """Outcome of evaluating a transfer against a policy set.

    failed_predicates is filled only from explain, for a denial: one
    (policy, first failed predicate) entry per member of the policy set,
    in canonical order.
    """

    allowed: bool
    matched_policy: Optional[Policy] = None
    failed_predicates: tuple[tuple[Policy, str], ...] = ()

    def __post_init__(self):
        if self.allowed:
            if self.matched_policy is None:
                raise ValueError("allowed verdict requires a matched policy")
            if self.failed_predicates:
                raise ValueError("allowed verdict must carry no failed predicates")
        elif self.matched_policy is not None:
            raise ValueError("denied verdict must not carry a matched policy")


def cidr_contains(block: Cidr, address: Cidr) -> bool:
    """True iff the first block.sig_bits bits of both addresses agree.

    The address must be at least as narrow as the block; asking whether a
    /30 lies inside a /32 is undefined and raises ContainmentUndefined.
    """
    if address.sig_bits < block.sig_bits:
        raise ContainmentUndefined(
            f"address {address} is wider than block {block}; containment undefined"
        )
    if block.sig_bits == 0:
        return True
    shift = 32 - block.sig_bits
    return block.as_int() >> shift == address.as_int() >> shift


_FIELD_NAMES = ("cidr", "namespace", "port", "label")


def _strict_mismatch(spec: Endpoint, concrete: Endpoint) -> Optional[str]:
    """First differing field after sentinel normalization, or None."""
    for name, sv, cv in zip(_FIELD_NAMES, normalized_fields(spec), normalized_fields(concrete)):
        if sv != cv:
            return name
    return None


def _semantic_mismatch(spec: Endpoint, concrete: Endpoint) -> Optional[str]:
    """First present-field constraint of spec that concrete fails, or None."""
    s_cidr, s_ns, s_port, s_label = normalized_fields(spec)
    c_cidr, c_ns, c_port, c_label = normalized_fields(concrete)
    if s_cidr is not None:
        # a concrete address wider than the block can never be contained
        if c_cidr is None or c_cidr.sig_bits < s_cidr.sig_bits or not cidr_contains(s_cidr, c_cidr):
            return "cidr-containment"
    if s_ns is not None and (c_ns is None or c_ns.name != s_ns.name):
        return "namespace"
    if s_port is not None and c_port != s_port:
        return "port"
    if s_label is not None and c_label != s_label:
        return "label"
    return None


def _mismatch(spec: Endpoint, concrete: Endpoint, mode: MatchMode) -> Optional[str]:
    if mode is MatchMode.STRICT:
        return _strict_mismatch(spec, concrete)
    return _semantic_mismatch(spec, concrete)


def endpoint_matches(spec: Endpoint, concrete: Endpoint, mode: MatchMode) -> bool:
    """Does the concrete endpoint satisfy the policy endpoint in this mode?"""
    return _mismatch(spec, concrete, mode) is None


def _role_assignment(policy: Policy, sender_ep: Endpoint, receiver_ep: Endpoint):
    """(role, spec, concrete) triples under the policy's orientation.

    Ingress pairs are (receiver, sender); egress pairs (sender, receiver).
    """
    if policy.direction is Direction.INGRESS:
        return (("receiver", policy.pair[0], receiver_ep), ("sender", policy.pair[1], sender_ep))
    return (("sender", policy.pair[0], sender_ep), ("receiver", policy.pair[1], receiver_ep))


def policy_permits(policy: Policy, sender_ep: Endpoint, receiver_ep: Endpoint, mode: MatchMode) -> bool:
    """True iff the policy's oriented pair matches the concrete transfer."""
    return all(
        endpoint_matches(spec, concrete, mode)
        for _, spec, concrete in _role_assignment(policy, sender_ep, receiver_ep)
    )


def _first_failure(policy: Policy, sender_ep: Endpoint, receiver_ep: Endpoint, mode: MatchMode) -> Optional[str]:
    """Name of the first failing predicate for this policy, or None on match."""
    for role, spec, concrete in _role_assignment(policy, sender_ep, receiver_ep):
        failed = _mismatch(spec, concrete, mode)
        if failed is None:
            continue
        # a policy that permits the reverse flow is only against its direction
        if policy_permits(policy, receiver_ep, sender_ep, mode):
            return "direction-orientation"
        return f"{role}.{failed}"
    return None


def _oriented(policy: Policy) -> tuple[Endpoint, Endpoint]:
    """(sender spec, receiver spec); ingress pairs are (receiver, sender)."""
    return policy.pair[::-1] if policy.direction is Direction.INGRESS else policy.pair


def _shape(fields) -> tuple:
    """What a normalized policy endpoint constrains: CIDR prefix length or
    None, and whether namespace, port and label are present."""
    cidr, namespace, port, label = fields
    return (None if cidr is None else cidr.sig_bits, namespace is not None, port is not None, label is not None)


def _semantic_key(shape: tuple, fields) -> Optional[tuple]:
    """Key of normalized endpoint fields under a spec shape, or None when
    no spec of that shape can match them.  A spec's own key is its key
    under its own shape, so keys are equal iff the spec matches."""
    prefix, has_namespace, has_port, has_label = shape
    cidr, namespace, port, label = fields
    top = None
    if prefix is not None:
        # a concrete address wider than the block can never be contained
        if cidr is None or cidr.sig_bits < prefix:
            return None
        top = cidr.as_int() >> (32 - prefix)
    if (has_namespace and namespace is None) or (has_port and port is None) or (has_label and label is None):
        return None
    return (
        top,
        namespace.name if has_namespace else None,
        port if has_port else None,
        label if has_label else None,
    )


def _build_table(policies: PolicySet, mode: MatchMode) -> dict:
    """The mode's lookup table, laid out as the module docstring says."""
    table: dict = {}
    for policy in policies:
        sender, receiver = (normalized_fields(spec) for spec in _oriented(policy))
        if mode is MatchMode.STRICT:
            table.setdefault((sender, receiver), []).append(policy)
        else:
            shapes = (_shape(sender), _shape(receiver))
            key = (_semantic_key(shapes[0], sender), _semantic_key(shapes[1], receiver))
            table.setdefault(shapes, {}).setdefault(key, []).append(policy)
    return table


def _policy_set(policies: Iterable[Policy]) -> PolicySet:
    return policies if isinstance(policies, PolicySet) else PolicySet(policies)


def permitting(policies: PolicySet, sender_ep: Endpoint, receiver_ep: Endpoint, mode: MatchMode) -> list[Policy]:
    """Every member that permits the transfer, exactly as policy_permits decides."""
    table = policies.tables.get(mode)
    if table is None:
        table = policies.tables[mode] = _build_table(policies, mode)
    sender, receiver = normalized_fields(sender_ep), normalized_fields(receiver_ep)
    if mode is MatchMode.STRICT:
        return list(table.get((sender, receiver), ()))
    found = []
    for (sender_shape, receiver_shape), keyed in table.items():
        sender_key = _semantic_key(sender_shape, sender)
        if sender_key is None:
            continue
        receiver_key = _semantic_key(receiver_shape, receiver)
        if receiver_key is not None:
            found += keyed.get((sender_key, receiver_key), ())
    return found


def evaluate(
    policies: Iterable[Policy], sender_ep: Endpoint, receiver_ep: Endpoint, mode: MatchMode
) -> MatchVerdict:
    """Existential check over the policy set.

    Allowed iff at least one policy permits the transfer; the witness is
    the lowest permitting member in canonical order (members differ in
    their text, and each is its set's lowest-origin copy), so the verdict
    is stable under permutation of the input.  Denials carry no reasons.
    """
    found = permitting(_policy_set(policies), sender_ep, receiver_ep, mode)
    if not found:
        return MatchVerdict(allowed=False)
    return MatchVerdict(allowed=True, matched_policy=min(found, key=canonical_policy_text))


def explain(
    policies: Iterable[Policy], sender_ep: Endpoint, receiver_ep: Endpoint, mode: MatchMode
) -> tuple[tuple[Policy, str], ...]:
    """Why a denied transfer fails: one (policy, first failed predicate)
    entry per member of the policy set, in the canonical order evaluate
    picks witnesses by.  PolicySet.copies gives each member's origins."""
    return tuple(
        (policy, _first_failure(policy, sender_ep, receiver_ep, mode))
        for policy in _policy_set(policies).ranked
    )
