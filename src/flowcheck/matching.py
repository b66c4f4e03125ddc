"""Decides whether a concrete transfer is permitted by deployed policies.

Two modes.  Strict compares policy endpoints to concrete endpoints by
structural equality (after sentinel normalization), which is the
deny-by-default existential check the scenario engine builds on.  Semantic
treats policy endpoints as selectors the way a CNI evaluates them: CIDR
containment for addresses, name equality for namespaces, exact match for
ports and labels; absent policy fields constrain nothing.

``evaluate`` decides a flow (allow or deny plus a witness); ``explain``
says, per policy, why a denial failed.

Each mode's rule is one key function, ``_key(shape, fields)``, over an
endpoint's ``normalized`` fields: a spec matches a concrete endpoint iff
their keys under the spec's shape are equal, and ``explain`` names the
first key component that differs.  Keys are plain values (ints, strings
and tuples of them), so tables hash and compare them natively; a strict
key is the normalized fields themselves.

Both answer from a ``PolicySet``; any other iterable is made into one
for that call only.  The members of a set's lineage are keyed on their
oriented pair (sender spec, receiver spec) in one table per mode, kept
in the lineage's ``tables`` as a lookup dict and one row per member in
join order (row i is lineage member i):

    ({(sender shape, receiver shape): {(sender key, receiver key): [policies]}},
     [((sender shape, receiver shape), (sender key, receiver key))])

A query first gives its table a row for each member that joined the
lineage since it was last read (``_grow``): each member gets one row per
mode, ever, and a policy write touches no table.  An older set leaves out
the hits of members that joined past its length (by their position in
the lineage's ``joined``) and reads only its own members' rows.

A lookup derives the concrete pair's keys under each shape pair the set
holds, so every hit permits the flow.  Strict mode has the one shape pair
``(None, None)``, so its lookup is a single probe.  ``explain`` answers
from the rows and one lookup, for the reversed flow: a member whose
sender and receiver keys both equal the concrete endpoints' keys under
its shapes permits the flow (the lookup's own test); of the others, one
the reversed lookup returns is only against its direction, and any other
is named by the first side in the pair's role order (receiver first for
ingress) whose key differs, at its first differing component.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional

from .model import (
    Direction,
    Endpoint,
    Policy,
    PolicySet,
    canonical_policy_text,
)


class MatchMode(Enum):
    STRICT = "strict"
    SEMANTIC = "semantic"

    __hash__ = object.__hash__  # every query looks its table up by mode; Enum hashes the name in Python


@dataclass(frozen=True, slots=True)
class MatchVerdict:
    """Outcome of evaluating a transfer against a policy set.

    A verdict is allowed exactly when it names the permitting witness in
    matched_policy.  failed_predicates is empty from evaluate, whose
    denials are all the one ``_DENIED``.  In the verdict a PolicyViolation
    works out when read, it holds what explain returns: one (policy, first
    failed predicate) entry per member of the policy set, in canonical order.
    """

    matched_policy: Optional[Policy] = None
    failed_predicates: tuple[tuple[Policy, str], ...] = ()

    def __post_init__(self):
        if self.failed_predicates and self.allowed:
            raise ValueError("allowed verdict must carry no failed predicates")

    @property
    def allowed(self) -> bool:
        return self.matched_policy is not None


_DENIED = MatchVerdict()  # every denial evaluate returns: frozen, with immutable fields, so one serves all

# the key components, named as explain reports them, in the order checked
_NAMES = {
    MatchMode.STRICT: ("cidr", "namespace", "port", "label"),
    MatchMode.SEMANTIC: ("cidr-containment", "namespace", "port", "label"),
}


def _shape(fields, mode: MatchMode) -> Optional[tuple]:
    """What normalized policy endpoint fields constrain: None in strict
    mode; in semantic mode the CIDR prefix length or None, and whether
    namespace, port and label are present."""
    if mode is MatchMode.STRICT:
        return None
    cidr, namespace, port, label = fields
    return (None if cidr is None else cidr[1], namespace is not None, port is not None, label is not None)


def _key(shape: Optional[tuple], fields) -> tuple:
    """Key of normalized endpoint fields under a spec shape.  A spec
    matches iff its key under its own shape equals the concrete
    endpoint's key under that shape; strict keys are the fields."""
    if shape is None:
        return fields
    prefix, has_namespace, has_port, has_label = shape
    cidr, namespace, port, label = fields
    # a concrete address wider than the block can never be contained
    top = None
    if prefix is not None and cidr is not None and cidr[1] >= prefix:
        top = cidr[0] >> (32 - prefix)
    return (
        top,
        namespace[0] if has_namespace and namespace is not None else None,
        port if has_port else None,
        label if has_label else None,
    )


# explain's name for each key component: _FAILED[mode][side][i], side 0
# the sender and 1 the receiver
_FAILED = {
    mode: tuple(tuple(f"{role}.{name}" for name in names) for role in ("sender", "receiver"))
    for mode, names in _NAMES.items()
}

# the sides in pair order: ingress pairs are (receiver, sender)
_ROLE_ORDER = {Direction.INGRESS: (1, 0), Direction.EGRESS: (0, 1)}


def _grow(lineage, mode: MatchMode) -> tuple[dict, list]:
    """The lineage's table for the mode, with a row appended, in join order, for each member that joined since."""
    lookup, rows = table = lineage.tables.setdefault(mode, ({}, []))
    for policy in lineage[len(rows):]:
        # oriented (sender spec, receiver spec): ingress pairs are (receiver, sender)
        first, second = policy.pair
        if policy.direction is Direction.INGRESS:
            sender, receiver = second.normalized, first.normalized
        else:
            sender, receiver = first.normalized, second.normalized
        shapes = (_shape(sender, mode), _shape(receiver, mode))
        keys = (_key(shapes[0], sender), _key(shapes[1], receiver))
        lookup.setdefault(shapes, {}).setdefault(keys, []).append(policy)
        rows.append((shapes, keys))
    return table


def _policy_set(policies: Iterable[Policy]) -> PolicySet:
    return policies if isinstance(policies, PolicySet) else PolicySet(policies)


def permitting(policies: PolicySet, sender_ep: Endpoint, receiver_ep: Endpoint, mode: MatchMode) -> list[Policy]:
    """Every member that permits the transfer: each of its sender and
    receiver specs has the key of the concrete endpoint under the spec's
    shape."""
    lineage = policies.lineage
    table = lineage.tables.get(mode)
    if table is None or len(table[1]) < len(lineage):
        table = _grow(lineage, mode)
    sender, receiver = sender_ep.normalized, receiver_ep.normalized
    found = []
    for (sender_shape, receiver_shape), keyed in table[0].items():
        found += keyed.get((_key(sender_shape, sender), _key(receiver_shape, receiver)), ())
    if found and policies.size < len(lineage):  # an older set drops the members that joined after it
        joined = lineage.joined
        found = [policy for policy in found if joined[policy][0] < policies.size]
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
        return _DENIED
    return MatchVerdict(found[0] if len(found) == 1 else min(found, key=canonical_policy_text))


def explain(
    policies: Iterable[Policy], sender_ep: Endpoint, receiver_ep: Endpoint, mode: MatchMode
) -> tuple[tuple[Policy, str], ...]:
    """Why a denied transfer fails: one (policy, first failed predicate)
    entry per member of the policy set, in the canonical order evaluate
    picks witnesses by.  PolicySet.copies gives each member's origins.
    Its one lookup is for the reversed flow; the rows give the rest."""
    policies = _policy_set(policies)
    reverse = set(permitting(policies, receiver_ep, sender_ep, mode))  # grows the table read below
    concrete = (sender_ep.normalized, receiver_ep.normalized)
    derived: tuple[dict, dict] = ({}, {})  # per side: shape -> the concrete key under it
    names = _FAILED[mode]
    reasons = []  # row i is member i, and an older set iterates only its own members
    for policy, (shapes, keys) in zip(policies, policies.lineage.tables[mode][1]):
        predicate = None  # both sides' keys equal: the member permits the flow
        for side in _ROLE_ORDER[policy.direction]:
            got = derived[side].get(shapes[side])
            if got is None:
                got = derived[side][shapes[side]] = _key(shapes[side], concrete[side])
            want = keys[side]
            if got != want:
                i = 0
                while want[i] == got[i]:
                    i += 1
                predicate = "direction-orientation" if policy in reverse else names[side][i]
                break
        reasons.append((policy, predicate))
    reasons.sort(key=lambda reason: reason[0].canonical_text)
    return tuple(reasons)
