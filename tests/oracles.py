"""Independent reference implementations used as test oracles.

Nothing here calls into the matching or scenario engines; containment is
answered by bitmask enumeration (or the stdlib ipaddress module where
enumeration is infeasible) and transfer permission by literally walking
the policy set with structural equality (strict mode) or field-by-field
constraints (semantic mode).
"""

from __future__ import annotations

import ipaddress
import json
import random

from flowcheck import (
    Application,
    Cidr,
    Direction,
    Endpoint,
    Namespace,
    Policy,
    SystemState,
)
from flowcheck.model import policy_to_dict


def block_addresses(block: Cidr) -> set[int]:
    """All 2^(32-p) addresses of the block, as integers, via bitmask."""
    mask = 0 if block.sig_bits == 0 else (~0 << (32 - block.sig_bits)) & 0xFFFFFFFF
    base = block.as_int() & mask
    return {base + offset for offset in range(1 << (32 - block.sig_bits))}


def contains_by_enumeration(block: Cidr, address: Cidr) -> bool:
    """Membership by exhaustive enumeration; both prefixes must be wide
    enough to enumerate."""
    return block_addresses(address) <= block_addresses(block)


def contains_by_ipaddress(block: Cidr, address: Cidr) -> bool:
    """Membership via the stdlib ipaddress module (host bits allowed)."""
    def network(c: Cidr):
        return ipaddress.ip_network(
            f"{c.block1}.{c.block2}.{c.block3}.{c.block4}/{c.sig_bits}", strict=False
        )
    return network(address).subnet_of(network(block))


def transfer_precondition_holds(state: SystemState, sender: Application, rep: Endpoint) -> bool:
    """The transfer precondition evaluated literally: the target endpoint
    exists and some policy maps exactly (rep, send) to 0 or (send, rep) to 1."""
    if not any(ep == rep for ep in state.endpoints):
        return False
    send = sender.send_endpoint
    for policy in state.policies:
        if policy.pair == (rep, send) and int(policy.direction) == 0:
            return True
        if policy.pair == (send, rep) and int(policy.direction) == 1:
            return True
    return False


# The sentinel rule: a field holding exactly its sentinel value (CIDR
# 0.0.0.0/0, namespace "-" with id 0, port 0, label "") constrains nothing.
_SENTINELS = (Cidr(0, 0, 0, 0, 0), Namespace("-", 0), 0, "")


def _present_fields(ep: Endpoint):
    """(cidr, namespace, port, label), each sentinel or absent field as None."""
    fields = (ep.cidr, ep.namespace, ep.port, ep.label)
    return tuple(None if value == sentinel else value for value, sentinel in zip(fields, _SENTINELS))


def _endpoint_permits(spec: Endpoint, concrete: Endpoint, semantic: bool) -> bool:
    spec_fields, concrete_fields = _present_fields(spec), _present_fields(concrete)
    if not semantic:
        return spec_fields == concrete_fields
    (s_cidr, s_ns, s_port, s_label), (c_cidr, c_ns, c_port, c_label) = spec_fields, concrete_fields
    if s_cidr is not None and (c_cidr is None or not contains_by_ipaddress(s_cidr, c_cidr)):
        return False
    if s_ns is not None and (c_ns is None or c_ns.name != s_ns.name):
        return False
    if s_port is not None and c_port != s_port:
        return False
    return s_label is None or c_label == s_label


def permits(policy: Policy, sender: Endpoint, receiver: Endpoint, mode) -> bool:
    """Does this one policy permit sender -> receiver?  Ingress pairs read
    (receiver, sender), egress pairs (sender, receiver).  Strict mode asks
    for equal present fields; semantic mode treats the policy's present
    fields as constraints: CIDR containment (a wider concrete block is
    never contained), namespace name, port and label equality."""
    if int(policy.direction) == 0:
        wanted = (receiver, sender)
    else:
        wanted = (sender, receiver)
    semantic = mode.value == "semantic"
    return all(_endpoint_permits(spec, ep, semantic) for spec, ep in zip(policy.pair, wanted))


def canonical_rank(policy: Policy):
    """The witness order: the policy's compact, key-sorted JSON text, then
    its origin as ``document#rule_index`` ("" when it has none)."""
    origin = policy.origin
    text = json.dumps(policy_to_dict(policy), sort_keys=True, separators=(",", ":"))
    return text, "" if origin is None else f"{origin.document}#{origin.rule_index}"


def state_fingerprint(state: SystemState):
    """Deep structural snapshot; message identity is part of the picture."""
    return (
        frozenset(state.applications),
        frozenset(state.policies),
        frozenset(state.endpoints),
        tuple(sorted((aid, tuple(id(m) for m in msgs)) for aid, msgs in state.app_data.items())),
    )


# --- random system corpus ----------------------------------------------------

_NAMESPACES = ("NS-UI", "NS-Command", "NS-DB", "NS-Edge")
_LABELS = ("WebUI", "Command", "DAL", "Sensor")
_PORTS = (443, 5443, 8080)


def random_endpoint(rng: random.Random) -> Endpoint:
    while True:
        cidr = None
        if rng.random() < 0.5:
            cidr = Cidr(10, rng.randint(28, 29), rng.randint(0, 1), rng.randint(0, 7) * 4, rng.choice((30, 32)))
        namespace = None
        if rng.random() < 0.5:
            namespace = Namespace(rng.choice(_NAMESPACES), rng.choice((0, 1)))
        port = rng.choice(_PORTS) if rng.random() < 0.4 else None
        label = rng.choice(_LABELS) if rng.random() < 0.4 else None
        if cidr is not None or namespace is not None or port is not None or label is not None:
            return Endpoint(cidr=cidr, namespace=namespace, port=port, label=label)


def random_system(rng: random.Random, max_apps=4, max_endpoints=6, max_policies=6) -> SystemState:
    """A small random system; policies are biased toward pairs of actually
    registered endpoints so a healthy share of transfers is permitted."""
    endpoints: list[Endpoint] = []
    for _ in range(rng.randint(1, max_endpoints)):
        ep = random_endpoint(rng)
        if ep not in endpoints:
            endpoints.append(ep)

    def pick_endpoint() -> Endpoint:
        if endpoints and rng.random() < 0.8:
            return rng.choice(endpoints)
        return random_endpoint(rng)

    policies: list[Policy] = []
    for _ in range(rng.randint(0, max_policies)):
        policy = Policy(
            pair=(pick_endpoint(), pick_endpoint()),
            direction=rng.choice((Direction.INGRESS, Direction.EGRESS)),
        )
        if policy not in policies:
            policies.append(policy)

    applications: list[Application] = []
    app_data = {}
    for aid in range(1, rng.randint(1, max_apps) + 1):
        listen = frozenset(ep for ep in endpoints if rng.random() < 0.3)
        applications.append(
            Application(
                app_id=aid,
                send_endpoint=pick_endpoint(),
                listen_endpoints=listen,
                receive_only=rng.random() < 0.2,
            )
        )
        app_data[aid] = ()
    return SystemState(
        applications=frozenset(applications),
        policies=frozenset(policies),
        endpoints=frozenset(endpoints),
        app_data=app_data,
    )


def random_probe(rng: random.Random, state: SystemState):
    """(sender, receiver id, target endpoint): apps always valid, the
    endpoint occasionally unregistered."""
    apps = sorted(state.applications, key=lambda a: a.app_id)
    sender = rng.choice(apps)
    receiver = rng.choice(apps)
    registered = sorted(state.endpoints, key=str)
    if registered and rng.random() < 0.8:
        rep = rng.choice(registered)
    else:
        rep = random_endpoint(rng)
    return sender, receiver.app_id, rep
