"""What the generated files mean, from the generator's own records.

The benchmark checks the program's parsed inputs against this model
before it trusts its reference: the endpoints and applications of the
topology, the policies each document expands to, every scripted step
and the policy set the script leaves.  Everything is compared in a
neutral form -- plain tuples of strings and numbers -- so that a defect
in the program's own classes or equality cannot hide a mismatch.

Nothing here imports the program.  The expansion of a document follows
CiliumNetworkPolicy as the generator writes it: an ingress rule grants
each peer (a CIDR block, or ``app`` plus an optional
``io.kubernetes.pod.namespace`` label) to the selected endpoint on each
listed port, an egress rule grants the selected endpoint each CIDR on
each listed port.  A namespace given by name alone carries id 1.
"""

from __future__ import annotations

import yaml

NAMESPACE_KEY = "io.kubernetes.pod.namespace"
DEFAULT_NAMESPACE_ID = 1
INGRESS, EGRESS = 0, 1


def endpoint(fields: dict) -> tuple:
    """Neutral form of endpoint fields as the generator writes them."""
    namespace = fields.get("namespace")
    return (
        fields.get("cidr"),
        None if namespace is None else (namespace, DEFAULT_NAMESPACE_ID),
        fields.get("port"),
        fields.get("label"),
    )


def program_endpoint(ep) -> tuple:
    """Neutral form of one of the program's endpoints."""
    return _program_fields(ep.cidr, ep.namespace, ep.port, ep.label)


def _program_fields(cidr, namespace, port, label) -> tuple:
    return (
        None if cidr is None else str(cidr),
        None if namespace is None else (namespace.name, namespace.id),
        port,
        label,
    )


def program_policy(policy) -> tuple:
    return (int(policy.direction), program_endpoint(policy.pair[0]), program_endpoint(policy.pair[1]))


def program_origin(policy):
    origin = policy.origin
    return None if origin is None else (origin.document, origin.rule_index)


def expanded_policies(doc) -> list:
    """(neutral policy, origin) for every policy one generated document
    expands to, in the order of its rules."""
    out = []
    ingress = [rule for rule in doc.rules if rule.kind != "egress"]
    egress = [rule for rule in doc.rules if rule.kind == "egress"]
    for index, rule in enumerate(ingress + egress):
        origin = (doc.name, index)
        ports = rule.ports or (None,)
        if rule.kind == "egress":
            selected = endpoint({"namespace": doc.namespace, "label": doc.selector})
            for cidr in rule.peers:
                out += [((EGRESS, selected, endpoint({"cidr": cidr, "port": port})), origin) for port in ports]
            continue
        if rule.kind == "cidrs":
            peers = [endpoint({"cidr": cidr}) for cidr in rule.peers]
        else:
            peers = [endpoint({"namespace": labels.get(NAMESPACE_KEY, doc.namespace), "label": labels.get("app")})
                     for labels in rule.peers]
        for peer in peers:
            for port in ports:
                selected = endpoint({"namespace": doc.namespace, "port": port, "label": doc.selector})
                out.append(((INGRESS, selected, peer), origin))
    return out


class Model:
    """The loaded system and the script of one workload, neutral."""

    def __init__(self, wl):
        self.expanded = [item for doc in wl.docs for item in expanded_policies(doc)]
        self.policies = {policy for policy, _ in self.expanded}
        self.origins = set(self.expanded)
        self.endpoints = {name: endpoint(fields) for name, fields in wl.endpoints.items()}
        self.applications = {
            (app.app_id, self.endpoints[app.send], frozenset(self.endpoints[ep] for ep in app.listen), app.receive_only)
            for app in wl.apps
        }
        self.steps, self.final_policies = self._script(wl)

    def _script(self, wl):
        """Neutral (action, arguments) of every step, read back from the
        generated lines, and the policy set after the script."""
        named = dict(self.endpoints)
        final = set(self.policies)
        steps = []
        for line, outcome in wl.steps:
            (action, body), = yaml.safe_load(line).items()
            if action == "create_endpoint":
                fields = {k: body[k] for k in ("cidr", "namespace", "port", "label") if k in body}
                named[body["name"]] = endpoint(fields)
                args = (body["name"], named[body["name"]])
            elif action == "create_policy":
                args = (body["direction"], named[body["first"]], named[body["second"]])
                if outcome == "ok":
                    final.add(args)
            elif action == "deploy_application":
                args = (body["id"], named[body["send"]], tuple(named[ep] for ep in body.get("listen", [])),
                        body.get("receive_only", False))
            else:
                args = (body["from"], body["to"], named[body["endpoint"]])
            steps.append((action, args))
        return steps, final


def program_step(step) -> tuple:
    """Neutral (action, arguments) of one of the program's parsed steps."""
    args = step.arguments
    if step.action == "create_endpoint":
        return step.action, (args["name"], _program_fields(args["cidr"], args["namespace"], args["port"], args["label"]))
    if step.action == "create_policy":
        return step.action, (int(args["direction"]), program_endpoint(args["first"]), program_endpoint(args["second"]))
    if step.action == "deploy_application":
        return step.action, (args["id"], program_endpoint(args["send"]),
                             tuple(program_endpoint(ep) for ep in args["listen"]), args["receive_only"])
    return step.action, (args["from"], args["to"], program_endpoint(args["endpoint"]))


def mismatches(model: Model, loaded) -> list:
    """Where the program's loaded system and script differ from the
    model: one line per kind of difference, empty if they agree."""
    state = loaded.state
    out = []
    expanded = [(program_policy(p), program_origin(p)) for p in loaded.policies]
    if sorted(expanded, key=repr) != sorted(model.expanded, key=repr):
        out.append(f"expanded policies: {len(expanded)} parsed, {len(model.expanded)} generated, or other content")
    policies = {program_policy(p) for p in state.policies}
    if policies != model.policies or len(state.policies) != len(model.policies):
        out.append(f"loaded policies: {len(state.policies)} parsed, {len(model.policies)} distinct generated")
    if not all((program_policy(p), program_origin(p)) in model.origins for p in state.policies):
        out.append("a loaded policy carries an origin that no rule of its kind has")
    if {program_endpoint(ep) for ep in state.endpoints} != set(model.endpoints.values()):
        out.append("loaded endpoints differ from the topology")
    applications = {
        (app.app_id, program_endpoint(app.send_endpoint),
         frozenset(program_endpoint(ep) for ep in app.listen_endpoints), app.receive_only)
        for app in state.applications
    }
    if applications != model.applications:
        out.append("deployed applications differ from the topology")
    steps = [program_step(step) for step in loaded.script.steps]
    if steps != model.steps:
        first = next((i for i, (a, b) in enumerate(zip(steps, model.steps)) if a != b), min(len(steps), len(model.steps)))
        out.append(f"parsed script differs from the generated one from step {first}")
    return out


def final_policies_match(model: Model, state) -> bool:
    """Does the state a script run leaves hold exactly the policies the
    generator created?"""
    return len(state.policies) == len(model.final_policies) and {
        program_policy(p) for p in state.policies
    } == model.final_policies
