"""Reference verdicts written without the program's matcher.

Nothing here imports ``flowcheck.matching``.  Strict mode walks the
policy set literally and compares endpoints by structural equality, as
``tests/oracles.py`` does.  Semantic mode answers CIDR containment with
the standard library's ``ipaddress`` and treats absent policy fields as
wildcards.  The witness of an allowed flow is the permitting policy that
sorts first by its own canonical JSON text, then by origin.  Scenario
steps are replayed against plain sets and dicts.

Generated inputs never use the sentinel encodings of "unconstrained"
(``0.0.0.0/0``, namespace ``-``, port 0, empty label), so no
normalisation is needed here.
"""

from __future__ import annotations

import ipaddress
import json
from functools import lru_cache

from flowcheck.model import Endpoint, Policy

INGRESS, EGRESS = 0, 1


@lru_cache(maxsize=None)
def _network(cidr):
    return ipaddress.ip_network(str(cidr), strict=False)


def _semantic_endpoint(spec, concrete) -> bool:
    if spec.cidr is not None:
        if concrete.cidr is None or not _network(concrete.cidr).subnet_of(_network(spec.cidr)):
            return False
    if spec.namespace is not None:
        if concrete.namespace is None or concrete.namespace.name != spec.namespace.name:
            return False
    if spec.port is not None and concrete.port != spec.port:
        return False
    return spec.label is None or concrete.label == spec.label


def permits(policy, sender, receiver, mode: str) -> bool:
    """Does this one policy allow sender -> receiver?  Ingress pairs are
    (receiver, sender), egress pairs (sender, receiver)."""
    direction = int(policy.direction)
    if mode == "strict":
        if direction == INGRESS:
            return policy.pair == (receiver, sender)
        return policy.pair == (sender, receiver)
    first, second = (receiver, sender) if direction == INGRESS else (sender, receiver)
    return _semantic_endpoint(policy.pair[0], first) and _semantic_endpoint(policy.pair[1], second)


def endpoint_json(ep) -> dict:
    out = {}
    if ep.cidr is not None:
        out["cidr"] = str(ep.cidr)
    if ep.namespace is not None:
        out["namespace"] = {"name": ep.namespace.name, "id": ep.namespace.id}
    if ep.port is not None:
        out["port"] = ep.port
    if ep.label is not None:
        out["label"] = ep.label
    return out


def policy_json(policy) -> dict:
    """The JSON form the CLI prints for a policy, origin included."""
    out = {
        "direction": int(policy.direction),
        "first": endpoint_json(policy.pair[0]),
        "second": endpoint_json(policy.pair[1]),
    }
    if policy.origin is not None:
        out["origin"] = {"document": policy.origin.document, "rule_index": policy.origin.rule_index}
    return out


def _rank(policy):
    text = json.dumps(
        {
            "direction": int(policy.direction),
            "first": endpoint_json(policy.pair[0]),
            "second": endpoint_json(policy.pair[1]),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    origin = policy.origin
    return text, "" if origin is None else f"{origin.document}#{origin.rule_index}"


def decide(policies, sender, receiver, mode: str):
    """(allowed, witness policy or None) by walking every policy."""
    permitting = [p for p in policies if permits(p, sender, receiver, mode)]
    if not permitting:
        return False, None
    return True, min(permitting, key=_rank)


def reachability(state, mode: str) -> dict:
    """(sender id, receiver id, endpoint) -> (allowed, witness) for every
    candidate flow: senders that may send, receivers other than the
    sender, each of the receiver's listen endpoints."""
    policies = list(state.policies)
    out = {}
    for sender in state.applications:
        if sender.receive_only:
            continue
        for receiver in state.applications:
            if receiver.app_id == sender.app_id:
                continue
            for ep in receiver.listen_endpoints:
                out[(sender.app_id, receiver.app_id, ep)] = decide(
                    policies, sender.send_endpoint, ep, mode
                )
    return out


def replay(steps, state, mode: str) -> list:
    """The outcome string ("ok" or "violation:Operation/Kind") of every
    step, from the operations' contracts applied to plain sets."""
    endpoints = set(state.endpoints)
    policies = set(state.policies)
    apps = {app.app_id: (app.send_endpoint, app.receive_only) for app in state.applications}
    outcomes = []
    for step in steps:
        args = step.arguments
        if step.action == "create_endpoint":
            ep = Endpoint(cidr=args["cidr"], namespace=args["namespace"],
                          port=args["port"], label=args["label"])
            if ep in endpoints:
                outcomes.append("violation:CreateEndpoint/DuplicateEndpoint")
                continue
            endpoints.add(ep)
        elif step.action == "create_policy":
            policy = Policy(pair=(args["first"], args["second"]), direction=args["direction"])
            if policy in policies:
                outcomes.append("violation:CreatePolicy/DuplicatePolicy")
                continue
            policies.add(policy)
        elif step.action == "deploy_application":
            if args["id"] in apps:
                outcomes.append("violation:DeployApplication/DuplicateApplicationId")
                continue
            apps[args["id"]] = (args["send"], args["receive_only"])
        else:
            if args["from"] not in apps:
                outcomes.append("violation:SendData/SenderUnknown")
                continue
            send, receive_only = apps[args["from"]]
            if receive_only:
                outcomes.append("violation:SendData/SenderReceiveOnly")
                continue
            target = args["endpoint"]
            if target not in endpoints:
                outcomes.append("violation:TransferData/EndpointUnknown")
                continue
            if not any(permits(p, send, target, mode) for p in policies):
                outcomes.append("violation:TransferData/PolicyViolation")
                continue
            if args["to"] not in apps:
                outcomes.append("violation:TransferData/ReceiverUnknown")
                continue
        outcomes.append("ok")
    return outcomes

