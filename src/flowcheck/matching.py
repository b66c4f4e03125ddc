"""Decides whether a concrete transfer is permitted by deployed policies.

Two modes.  Strict compares policy endpoints to concrete endpoints by
structural equality (after sentinel normalization), which is the
deny-by-default existential check the scenario engine builds on.  Semantic
treats policy endpoints as selectors the way a CNI evaluates them: CIDR
containment for addresses, name equality for namespaces, exact match for
ports and labels; absent policy fields constrain nothing.

``evaluate`` decides a flow (allow or deny plus a witness); ``explain``
alone fills ``MatchVerdict.failed_predicates`` with why a denial failed.
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
    (policy, first failed predicate) entry per policy in canonical order.
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


def _policy_sort_key(policy: Policy):
    # origin breaks ties between structurally equal policies so rendered
    # provenance stays deterministic, not just the verdict
    origin = policy.origin
    return (
        canonical_policy_text(policy),
        "" if origin is None else f"{origin.document}#{origin.rule_index}",
    )


def evaluate(
    policies: Iterable[Policy], sender_ep: Endpoint, receiver_ep: Endpoint, mode: MatchMode
) -> MatchVerdict:
    """Existential check over the policy set.

    Allowed iff at least one policy permits the transfer; the witness is
    the lowest permitting policy in canonical order, so the verdict is
    stable under permutation of the input.  Denials carry no reasons.
    """
    permitting = [p for p in policies if policy_permits(p, sender_ep, receiver_ep, mode)]
    if not permitting:
        return MatchVerdict(allowed=False)
    return MatchVerdict(allowed=True, matched_policy=min(permitting, key=_policy_sort_key))


def explain(
    policies: Iterable[Policy], sender_ep: Endpoint, receiver_ep: Endpoint, mode: MatchMode
) -> tuple[tuple[Policy, str], ...]:
    """Why a denied transfer fails: one (policy, first failed predicate)
    entry per policy, in the canonical order evaluate picks witnesses by."""
    return tuple(
        (policy, _first_failure(policy, sender_ep, receiver_ep, mode))
        for policy in sorted(policies, key=_policy_sort_key)
    )
