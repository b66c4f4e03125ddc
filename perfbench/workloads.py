"""Seeded generator of benchmark inputs.

Each workload is a fixed shape (counts of apps, rules, policies, steps)
whose identities -- which app peers with which, which block covers
which hosts, where each write lands in the script -- are drawn from the
seed.  The generator writes real CiliumNetworkPolicy, topology and
scenario YAML, and it records the verdict of every candidate flow and
the outcome of every scenario step from how it built them: a flow is
allowed because the generator granted it, never because a matcher said
so.  The shapes are constants here so that no caller can resize a
workload.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("reach-strict", "reach-semantic", "scenario-churn")

# Fixed workload shapes.  Changing any of these changes the benchmark.
SHAPES = {
    "reach-strict": dict(
        mode="strict", namespaces=8, services=26, clients=4, sinks=2, admin=4,
        real_peers=18, two_cidr_rules=18, real_cidrs=8, egress=16, real_egress=8,
        overlays=6, probe_sends=160,
    ),
    "reach-semantic": dict(
        mode="semantic", namespaces=8, services=26, clients=4, sinks=2, admin=4,
        ns_wildcards=12, portless=6, two_cidr_rules=18,
        prefix_mix=((8, 1), (16, 7), (24, 9), (32, 9)),
        egress=16, real_egress=8, overlays=6, probe_sends=160,
    ),
    "scenario-churn": dict(
        mode="strict", namespaces=6, services=12, new_services=24, policies_per_arrival=40,
        dup_endpoints=8, dup_policies=8, dup_deploys=4, overlays=2,
        sends=("allow", "deny", "unknown-receiver") * 4,
    ),
}

SERVICE_PORTS = (443, 5432, 6379, 8080, 8443, 9090)
ADMIN_PORT = 9901
SINK_PORTS = (5443, 8883)
VERDICT_FLOWS = 200  # flows per round of the per-flow verdict loop
SWEEP_SIZES = (10, 100, 1000)

OK = "ok"
POLICY_DENIED = "violation:TransferData/PolicyViolation"
RECEIVER_UNKNOWN = "violation:TransferData/ReceiverUnknown"
DUP_ENDPOINT = "violation:CreateEndpoint/DuplicateEndpoint"
DUP_POLICY = "violation:CreatePolicy/DuplicatePolicy"
DUP_DEPLOY = "violation:DeployApplication/DuplicateApplicationId"


@dataclass
class App:
    app_id: int
    name: str
    send: str
    listen: list
    receive_only: bool = False
    namespace: str | None = None
    label: str | None = None
    port: int | None = None
    address: tuple | None = None  # octets of a client, a sink or a semantic sender


@dataclass
class Rule:
    """One rule of a generated document, in the generator's own terms.

    ``members`` is the set of app ids the rule grants by construction:
    senders for ingress rules, receivers for egress rules.
    """

    kind: str  # "endpoints", "cidrs" or "egress"
    peers: list  # matchLabels dicts, or CIDR strings
    ports: tuple
    members: set = field(default_factory=set)


@dataclass
class Doc:
    name: str
    namespace: str
    selector: str
    rules: list
    owner: int  # app id the document selects


@dataclass
class Workload:
    name: str
    seed: int
    mode: str
    endpoints: dict  # topology endpoint name -> fields
    apps: list
    docs: list
    steps: list  # (scenario YAML line, expected outcome)
    flows: dict  # "sid rid endpoint" -> allowed, every candidate flow of the topology
    verdict_flows: list  # seeded [flow key, allowed] pairs for the per-flow loop, on the loaded state
    sweep_docs: list  # extra documents that extend the policy set past 1000

    def files(self) -> dict:
        """Relative path -> file text, for every generated input."""
        out = {f"policies/{doc.name}.yaml": policy_yaml(doc) for doc in self.docs}
        out["topology.yaml"] = topology_yaml(self.endpoints, self.apps)
        out["scenario.yaml"] = scenario_yaml(self.mode, [line for line, _ in self.steps])
        out["expected.json"] = json.dumps(
            {
                "workload": self.name,
                "seed": self.seed,
                "flows": self.flows,
                "steps": [outcome for _, outcome in self.steps],
                "verdict_flows": self.verdict_flows,
            },
            indent=1,
            sort_keys=True,
        ) + "\n"
        return out

    def write(self, directory: Path) -> dict:
        """Write every input under directory; return relative path -> bytes."""
        files = self.files()
        for rel, text in files.items():
            path = directory / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
        return files


# --- YAML rendering ----------------------------------------------------------


def _flow_map(fields: dict) -> str:
    return "{" + ", ".join(f"{k}: {v}" for k, v in fields.items()) + "}"


def _ports_yaml(ports, indent: str) -> list:
    if not ports:
        return []
    lines = [f"{indent}  toPorts:", f"{indent}    - ports:"]
    lines += [f'{indent}        - port: "{port}"' for port in ports]
    return lines


def policy_yaml(doc: Doc) -> str:
    lines = [
        "apiVersion: cilium.io/v2",
        "kind: CiliumNetworkPolicy",
        "metadata:",
        f"  name: {doc.name}",
        f"  namespace: {doc.namespace}",
        "spec:",
        "  endpointSelector:",
        "    matchLabels:",
        f"      app: {doc.selector}",
    ]
    ingress = [r for r in doc.rules if r.kind != "egress"]
    egress = [r for r in doc.rules if r.kind == "egress"]
    if ingress:
        lines.append("  ingress:")
        for rule in ingress:
            if rule.kind == "endpoints":
                lines.append("    - fromEndpoints:")
                for labels in rule.peers:
                    lines.append("        - matchLabels:")
                    lines += [f"            {k}: {v}" for k, v in labels.items()]
            else:
                lines.append("    - fromCIDRSet:")
                lines += [f"        - cidr: {cidr}" for cidr in rule.peers]
            lines += _ports_yaml(rule.ports, "    ")
    if egress:
        lines.append("  egress:")
        for rule in egress:
            lines.append("    - toCIDRSet:")
            lines += [f"        - cidr: {cidr}" for cidr in rule.peers]
            lines += _ports_yaml(rule.ports, "    ")
    return "\n".join(lines) + "\n"


def topology_yaml(endpoints: dict, apps: list) -> str:
    lines = ["endpoints:"]
    lines += [f"  {name}: {_flow_map(fields)}" for name, fields in endpoints.items()]
    lines.append("applications:")
    for app in apps:
        listen = "[" + ", ".join(app.listen) + "]"
        lines.append(
            f"  - {{id: {app.app_id}, name: {app.name}, send: {app.send}, "
            f"listen: {listen}, receive_only: {str(app.receive_only).lower()}}}"
        )
    return "\n".join(lines) + "\n"


def scenario_yaml(mode: str, step_lines: list) -> str:
    return f"mode: {mode}\nsteps:\n" + "".join(f"  - {line}\n" for line in step_lines)


# --- shared building blocks ----------------------------------------------------


def flow_key(sid: int, rid: int, endpoint: str) -> str:
    return f"{sid} {rid} {endpoint}"


def candidate_flows(apps: list) -> list:
    """(sender, receiver, endpoint name) for every candidate flow, the set
    the program's reachability matrix covers."""
    out = []
    for sender in apps:
        if sender.receive_only:
            continue
        for receiver in apps:
            if receiver.app_id != sender.app_id:
                out += [(sender.app_id, receiver.app_id, ep) for ep in receiver.listen]
    return out


def _peer_labels(label, namespace, doc_namespace) -> dict:
    labels = {}
    if label is not None:
        labels["app"] = label
    if namespace != doc_namespace:
        labels["io.kubernetes.pod.namespace"] = namespace
    return labels


def _services(rng, shape, label_prefix="svc", first_id=1):
    namespaces = [f"ns-{k:02d}" for k in range(shape["namespaces"])]
    apps = []
    for i in range(shape["services"]):
        label = f"{label_prefix}-{i:03d}"
        apps.append(
            App(
                app_id=first_id + i,
                name=label,
                send=f"{label}-send",
                listen=[f"{label}-listen"],
                namespace=namespaces[i % len(namespaces)],
                label=label,
                port=rng.choice(SERVICE_PORTS),
            )
        )
    return namespaces, apps


def _grant(flows: dict, sid: int, rid: int, endpoint: str) -> None:
    flows[flow_key(sid, rid, endpoint)] = True


def _overlays(rng, docs: list, count: int) -> list:
    """Second documents that repeat one peer of an app's own ingress rule,
    so assemble_state has structural duplicates to collapse."""
    overlays = []
    for doc in rng.sample(docs, count):
        rule = doc.rules[0]
        peer = rng.choice(rule.peers)
        overlays.append(
            Doc(
                name=f"{doc.selector}-overlay",
                namespace=doc.namespace,
                selector=doc.selector,
                rules=[Rule("endpoints", [peer], rule.ports, set())],
                owner=doc.owner,
            )
        )
    return overlays


def _verdict_flows(rng, flows: dict, count: int) -> list:
    """A seeded cycle through the candidate flows, count long."""
    order = sorted(flows)
    rng.shuffle(order)
    return [[order[i % len(order)], flows[order[i % len(order)]]] for i in range(count)]


# --- reach-strict / reach-semantic ---------------------------------------------


def _reach_apps(rng, shape, semantic: bool):
    namespaces, services = _services(rng, shape)
    rng.shuffle(services)
    for app in services[: shape["admin"]]:
        app.listen.append(f"{app.label}-admin")
    clients = [
        App(app_id=0, name=f"client-{c}", send=f"client-{c}-send", listen=[])
        for c in range(shape["clients"])
    ]
    sinks = []
    for k in range(shape["sinks"]):
        name = f"sink-{k}"
        sinks.append(
            App(app_id=0, name=name, send=f"{name}-listen", listen=[f"{name}-listen"],
                receive_only=True, port=SINK_PORTS[k % len(SINK_PORTS)],
                address=(192, 168, 50 + k, rng.randrange(2, 250)))
        )
    apps = services + clients + sinks
    for app_id, app in enumerate(apps, start=1):
        app.app_id = app_id
    senders = services + clients
    if semantic:
        # 16 subnets a.b.c.0/24 under two /8s and eight /16s; every sender
        # is a /32 host in one of them
        subnets = [(a, b, c) for a in (10, 172) for b in (20, 21, 22, 23) for c in (1, 2)]
        slots = [subnets[i % len(subnets)] for i in range(len(senders))]
        rng.shuffle(slots)
        used = {}
        for app, subnet in zip(senders, slots):
            used[subnet] = used.get(subnet, 0) + 1
            app.address = subnet + (10 * used[subnet] + rng.randrange(0, 10),)
    else:
        for c, app in enumerate(clients):
            app.address = (10, 40 + c, rng.randrange(0, 256), 16 * rng.randrange(0, 16))

    endpoints = {}
    for app in services:
        send = {"namespace": app.namespace, "label": app.label}
        if semantic:
            send = {"cidr": _host(app.address)} | send
        endpoints[app.send] = send
        endpoints[f"{app.label}-listen"] = {"namespace": app.namespace, "port": app.port, "label": app.label}
        if f"{app.label}-admin" in app.listen:
            endpoints[f"{app.label}-admin"] = {
                "namespace": app.namespace, "port": ADMIN_PORT, "label": app.label
            }
    for app in clients:
        prefix = 32 if semantic else 28
        endpoints[app.send] = {"cidr": ".".join(map(str, app.address)) + f"/{prefix}"}
    for app in sinks:
        endpoints[app.send] = {"cidr": _host(app.address), "port": app.port}
    return namespaces, services, clients, sinks, apps, endpoints


def _host(address) -> str:
    return ".".join(map(str, address)) + "/32"


def _block(address, prefix: int) -> str:
    octets = list(address[: prefix // 8]) + [0] * (4 - prefix // 8)
    return ".".join(map(str, octets)) + f"/{prefix}"


def _ghost_peer(rng, namespaces, doc_namespace, serial: int) -> dict:
    return _peer_labels(f"ghost-{serial:03d}", rng.choice(namespaces), doc_namespace)


def _strict_docs(rng, shape, namespaces, services, clients, sinks):
    """Every peer is either an exact copy of a deployed endpoint (a grant)
    or differs from all of them in at least one field (a near miss)."""
    docs = []
    real_peer = set(rng.sample(range(len(services)), shape["real_peers"]))
    two_cidrs = set(rng.sample(range(len(services)), shape["two_cidr_rules"]))
    real_cidr = set(rng.sample(range(len(services)), shape["real_cidrs"]))
    egress = rng.sample(range(len(services)), shape["egress"])
    real_egress = set(egress[: shape["real_egress"]])
    ghost = 0
    for i, app in enumerate(services):
        ports = (app.port,)
        peers, members = [], set()
        if i in real_peer:
            peer = rng.choice([s for s in services if s is not app])
            peers.append(_peer_labels(peer.label, peer.namespace, app.namespace))
            members.add(peer.app_id)
        while len(peers) < 3:
            if rng.random() < 0.5:
                ghost += 1
                peer = _ghost_peer(rng, namespaces, app.namespace, ghost)
            else:  # a real label in a namespace it does not live in
                other = rng.choice(services)
                wrong = rng.choice([n for n in namespaces if n != other.namespace])
                peer = _peer_labels(other.label, wrong, app.namespace)
            if peer not in peers:
                peers.append(peer)
        rules = [Rule("endpoints", peers, ports, members)]
        cidrs, members = [], set()
        if i in real_cidr:
            client = rng.choice(clients)
            cidrs.append(".".join(map(str, client.address)) + "/28")
            members.add(client.app_id)
        while len(cidrs) < (2 if i in two_cidrs else 1):
            client = rng.choice(clients)  # the client's block at another length
            cidr = ".".join(map(str, client.address)) + f"/{rng.choice((24, 26, 27, 29))}"
            if cidr not in cidrs:
                cidrs.append(cidr)
        rules.append(Rule("cidrs", cidrs, ports, members))
        if i in egress:
            sink = rng.choice(sinks)
            real = i in real_egress
            port = sink.port if real else sink.port + 1
            rules.append(Rule("egress", [_host(sink.address)], (port,), {sink.app_id} if real else set()))
        docs.append(Doc(f"{app.label}-policy", app.namespace, app.label, rules, app.app_id))
    return docs


def _semantic_docs(rng, shape, namespaces, services, clients, sinks):
    """Peers are selectors: namespace wildcards, CIDR blocks of mixed
    prefix length, rules without ports.  The members of each block are
    the senders the generator placed inside it."""
    senders = services + clients
    docs = []
    wildcard = set(rng.sample(range(len(services)), shape["ns_wildcards"]))
    portless = set(rng.sample(range(len(services)), shape["portless"]))
    two_cidrs = set(rng.sample(range(len(services)), shape["two_cidr_rules"]))
    prefixes = [p for p, n in shape["prefix_mix"] for _ in range(n)]
    rng.shuffle(prefixes)
    egress = rng.sample(range(len(services)), shape["egress"])
    real_egress = set(egress[: shape["real_egress"]])
    ghost = 0
    for i, app in enumerate(services):
        ports = () if i in portless else (app.port,)
        peer = rng.choice([s for s in services if s is not app])
        peers = [_peer_labels(peer.label, peer.namespace, app.namespace)]
        members = {peer.app_id}
        if i in wildcard:
            ns = rng.choice(namespaces)
            peers.append(_peer_labels(None, ns, app.namespace) or {"io.kubernetes.pod.namespace": ns})
            members |= {s.app_id for s in services if s.namespace == ns}
        while len(peers) < 3:
            ghost += 1
            peers.append(_ghost_peer(rng, namespaces, app.namespace, ghost))
        rules = [Rule("endpoints", peers, ports, members)]
        cidrs, members = [], set()
        for prefix in [prefixes[i]] + ([rng.choice((16, 24, 32))] if i in two_cidrs else []):
            while True:
                inside = rng.choice(senders)
                if _block(inside.address, prefix) not in cidrs:
                    break
            cidrs.append(_block(inside.address, prefix))
            width = prefix // 8
            members |= {s.app_id for s in senders if s.address[:width] == inside.address[:width]}
        rules.append(Rule("cidrs", cidrs, ports, members))
        if i in egress:
            sink = rng.choice(sinks)
            if i in real_egress:
                block = _block(sink.address, rng.choice((24, 32)))
                rules.append(Rule("egress", [block], (sink.port,), {sink.app_id}))
            else:  # a block no sink lives in
                rules.append(Rule("egress", [f"192.168.{rng.randrange(100, 200)}.0/24"], (sink.port,), set()))
        docs.append(Doc(f"{app.label}-policy", app.namespace, app.label, rules, app.app_id))
    return docs


def _reach_flows(apps, docs, endpoints) -> dict:
    """Allowed iff some generated rule granted the flow."""
    by_id = {app.app_id: app for app in apps}
    flows = {flow_key(*flow): False for flow in candidate_flows(apps)}
    for doc in docs:
        owner = by_id[doc.owner]
        for rule in doc.rules:
            if rule.kind == "egress":
                for rid in rule.members:
                    _grant(flows, owner.app_id, rid, by_id[rid].listen[0])
                continue
            for ep in owner.listen:
                if rule.ports and endpoints[ep]["port"] not in rule.ports:
                    continue
                for sid in rule.members:
                    if sid != owner.app_id:
                        _grant(flows, sid, owner.app_id, ep)
    return flows


def _probe_scenario(rng, shape, semantic, services, endpoints, flows, next_id):
    """A short script on top of the topology: onboard one probe app with
    its own endpoints and policies, hit the expected violations, then
    send along seeded candidate flows.  The probe lives in its own
    namespace and address block, so no generated document covers it."""
    steps = []
    probe_send = {"namespace": "ns-probe", "label": "probe"}
    if semantic:
        probe_send = {"cidr": "100.64.0.10/32"} | probe_send
    probe_listen = {"namespace": "ns-probe", "port": 7000, "label": "probe"}
    upstream, downstream = rng.sample(services, 2)
    steps.append((f"create_endpoint: {_flow_map({'name': 'probe-send'} | probe_send)}", OK))
    steps.append((f"create_endpoint: {_flow_map({'name': 'probe-listen'} | probe_listen)}", OK))
    for k, existing in enumerate(rng.sample(sorted(endpoints), 2)):
        fields = {"name": f"probe-dup-{k}"} | endpoints[existing] | {"expect": "violation"}
        steps.append((f"create_endpoint: {_flow_map(fields)}", DUP_ENDPOINT))
    steps.append((f"create_policy: {{name: probe-in, first: probe-listen, second: {upstream.send}, direction: 0}}", OK))
    steps.append((f"create_policy: {{name: probe-out, first: probe-send, second: {downstream.listen[0]}, direction: 1}}", OK))
    steps.append((f"create_policy: {{name: probe-in-again, first: probe-listen, second: {upstream.send}, direction: 0, expect: violation}}", DUP_POLICY))
    steps.append((f"send_data: {{from: {upstream.app_id}, to: {next_id}, endpoint: probe-listen, expect: deny}}", RECEIVER_UNKNOWN))
    steps.append((f"deploy_application: {{id: {next_id}, send: probe-send, listen: [probe-listen]}}", OK))
    steps.append((f"deploy_application: {{id: {next_id}, send: probe-send, listen: [], expect: violation}}", DUP_DEPLOY))
    steps.append((f"send_data: {{from: {upstream.app_id}, to: {next_id}, endpoint: probe-listen, expect: allow}}", OK))
    steps.append((f"send_data: {{from: {next_id}, to: {downstream.app_id}, endpoint: {downstream.listen[0]}, expect: allow}}", OK))
    steps.append((f"send_data: {{from: {downstream.app_id}, to: {next_id}, endpoint: probe-listen, expect: deny}}", POLICY_DENIED))
    keys = sorted(flows)
    for key in (rng.choice(keys) for _ in range(shape["probe_sends"])):
        sid, rid, ep = key.split()
        expect, outcome = ("allow", OK) if flows[key] else ("deny", POLICY_DENIED)
        steps.append((f"send_data: {{from: {sid}, to: {rid}, endpoint: {ep}, expect: {expect}}}", outcome))
    return steps


def _reach_workload(name: str, seed: int, rng) -> Workload:
    shape = SHAPES[name]
    semantic = shape["mode"] == "semantic"
    namespaces, services, clients, sinks, apps, endpoints = _reach_apps(rng, shape, semantic)
    make_docs = _semantic_docs if semantic else _strict_docs
    docs = make_docs(rng, shape, namespaces, services, clients, sinks)
    docs += _overlays(rng, docs, shape["overlays"])
    flows = _reach_flows(apps, docs, endpoints)
    steps = _probe_scenario(rng, shape, semantic, services, endpoints, flows, len(apps) + 1)
    return Workload(
        name=name, seed=seed, mode=shape["mode"], endpoints=endpoints, apps=apps, docs=docs,
        steps=steps, flows=flows,
        verdict_flows=_verdict_flows(rng, flows, 3 * VERDICT_FLOWS),
        sweep_docs=_sweep_docs(rng),
    )


# --- scenario-churn --------------------------------------------------------------


def _churn_workload(name: str, seed: int, rng) -> Workload:
    """A strict script of policy writes with sparse sends between them.

    New services arrive one by one: two endpoints, then a run of new
    policies that pair the newcomer with services already deployed (a
    grant into it, a grant out of it, or a pair of two listen or two send
    endpoints that grants no flow), then its deploy.  Sends sit at evenly
    spaced steps among the writes, in a fixed order of kinds, and their
    verdicts follow from the grants made so far, so the policy set changes
    between sends while what they cost does not depend on the seed.
    """
    shape = SHAPES[name]
    namespaces, services = _services(rng, shape)
    endpoints = {}
    for app in services:
        endpoints[app.send] = {"namespace": app.namespace, "label": app.label}
        endpoints[app.listen[0]] = {"namespace": app.namespace, "port": app.port, "label": app.label}
    docs, grants = [], set()  # grants: (sender id, receiver listen endpoint name)
    created = set()  # (first, second, direction) of every scripted policy, by endpoint name
    ghost = 0
    for app in services:
        peer = rng.choice([s for s in services if s is not app])
        ghost += 1
        peers = [
            _peer_labels(peer.label, peer.namespace, app.namespace),
            _ghost_peer(rng, namespaces, app.namespace, ghost),
        ]
        docs.append(Doc(f"{app.label}-policy", app.namespace, app.label,
                        [Rule("endpoints", peers, (app.port,), {peer.app_id})], app.app_id))
        grants.add((peer.app_id, app.listen[0]))

    docs += _overlays(rng, docs, shape["overlays"])
    initial = {flow_key(*f): (f[0], f[2]) in grants for f in candidate_flows(services)}

    _, newcomers = _services(rng, shape | {"services": shape["new_services"]}, "new", len(services) + 1)
    by_listen = {app.listen[0]: app for app in services + newcomers}
    registered = dict(endpoints)  # endpoint name -> fields, as the script goes
    deployed = {app.app_id: app for app in services}

    # the writes, in arrival order
    ordered = []
    for app in newcomers:
        ordered.append(("endpoint", app.send, {"namespace": app.namespace, "label": app.label}))
        ordered.append(("endpoint", app.listen[0], {"namespace": app.namespace, "port": app.port, "label": app.label}))
        ordered += [("policy", app)] * shape["policies_per_arrival"]
        ordered.append(("deploy", app))
    # scatter the violations among the arrivals, none in the first quarter
    for kind, count in (("dup-endpoint", shape["dup_endpoints"]), ("dup-policy", shape["dup_policies"]),
                        ("dup-deploy", shape["dup_deploys"])):
        for _ in range(count):
            ordered.insert(rng.randrange(len(ordered) // 4, len(ordered) + 1), (kind,))
    sends = shape["sends"]
    total = len(ordered) + len(sends)
    send_at = {(2 * k + 1) * total // (2 * len(sends)): kind for k, kind in enumerate(sends)}

    steps, serial = [], 0
    pending_writes = iter(ordered)
    for position in range(total):
        kind = send_at.get(position)
        if kind is None:
            item = next(pending_writes)
            kind = item[0]
            if kind == "endpoint":
                _, ep, fields = item
                registered[ep] = fields
                steps.append((f"create_endpoint: {_flow_map({'name': ep} | fields)}", OK))
            elif kind == "policy":
                app = item[1]
                choices = []
                for other in deployed.values():
                    choices += [(app.listen[0], other.send, 0), (app.send, other.listen[0], 1),
                                (app.listen[0], other.listen[0], rng.randrange(2)),
                                (app.send, other.send, rng.randrange(2))]
                first, second, direction = rng.choice([c for c in choices if c not in created])
                created.add((first, second, direction))
                if (first, direction) == (app.listen[0], 0) and second.endswith("-send"):
                    grants.add((by_listen[second.replace("-send", "-listen")].app_id, first))
                elif (first, direction) == (app.send, 1) and second.endswith("-listen"):
                    grants.add((app.app_id, second))
                serial += 1
                steps.append((f"create_policy: {{name: pol-{serial}, first: {first}, second: {second}, direction: {direction}}}", OK))
            elif kind == "deploy":
                app = item[1]
                deployed[app.app_id] = app
                steps.append((f"deploy_application: {{id: {app.app_id}, send: {app.send}, listen: [{app.listen[0]}]}}", OK))
            elif kind == "dup-endpoint":
                serial += 1
                existing = rng.choice(sorted(registered))
                fields = {"name": f"alias-{serial}"} | registered[existing] | {"expect": "violation"}
                steps.append((f"create_endpoint: {_flow_map(fields)}", DUP_ENDPOINT))
            elif kind == "dup-policy":
                serial += 1
                first, second, direction = rng.choice(sorted(created))
                steps.append((f"create_policy: {{name: again-{serial}, first: {first}, second: {second}, direction: {direction}, expect: violation}}", DUP_POLICY))
            elif kind == "dup-deploy":
                app = rng.choice(list(deployed.values()))
                steps.append((f"deploy_application: {{id: {app.app_id}, send: {app.send}, listen: [], expect: violation}}", DUP_DEPLOY))
            continue
        if kind == "unknown-receiver":  # a granted flow into an app that is not deployed (yet)
            waiting = [(s, ep) for s, ep in sorted(grants)
                       if s in deployed and by_listen[ep].app_id not in deployed and ep in registered]
            if not waiting:  # nobody is waiting: send to an id never deployed
                sid, ep = rng.choice(sorted(g for g in grants if g[0] in deployed))
                rid = 999
            else:
                sid, ep = rng.choice(waiting)
                rid = by_listen[ep].app_id
            steps.append((f"send_data: {{from: {sid}, to: {rid}, endpoint: {ep}, expect: deny}}", RECEIVER_UNKNOWN))
            continue
        if kind == "allow":
            sid, ep = rng.choice([(s, ep) for s, ep in sorted(grants) if s in deployed and by_listen[ep].app_id in deployed])
            expect, outcome = "allow", OK
        else:
            while True:
                sid = rng.choice(sorted(deployed))
                ep = rng.choice([a.listen[0] for a in deployed.values()])
                if (sid, ep) not in grants and by_listen[ep].app_id != sid:
                    break
            expect, outcome = "deny", POLICY_DENIED
        rid = by_listen[ep].app_id
        steps.append((f"send_data: {{from: {sid}, to: {rid}, endpoint: {ep}, expect: {expect}}}", outcome))

    return Workload(
        name=name, seed=seed, mode=shape["mode"], endpoints=endpoints, apps=services, docs=docs,
        steps=steps, flows=initial, verdict_flows=_verdict_flows(rng, initial, 3 * VERDICT_FLOWS),
        sweep_docs=_sweep_docs(rng),
    )


# --- scaling sweep -----------------------------------------------------------------


def _sweep_docs(rng) -> list:
    """Documents for apps that are never deployed, in namespaces no app
    uses, four policies each: enough to extend any workload's policy set
    to the largest sweep size without changing a single verdict."""
    docs = []
    for n in range(max(SWEEP_SIZES) // 4):
        ns = f"sweep-{n % 16:02d}"
        peers = []
        while len(peers) < 2:
            peer = _peer_labels(f"idle-{rng.randrange(1000):03d}", f"sweep-{rng.randrange(16):02d}", ns)
            if peer not in peers:
                peers.append(peer)
        rules = [
            Rule("endpoints", peers, (rng.choice(SERVICE_PORTS),)),
            Rule("cidrs", [f"198.18.{rng.randrange(256)}.0/24"], (rng.choice(SERVICE_PORTS),)),
            Rule("egress", [f"198.19.{rng.randrange(256)}.{rng.randrange(256)}/32"], (rng.choice(SINK_PORTS),)),
        ]
        docs.append(policy_yaml(Doc(f"idle-{n:03d}-policy", ns, f"idle-{n:03d}", rules, 0)))
    return docs


def generate(name: str, seed: int) -> Workload:
    """The workload's inputs and expectations for this seed."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{name}:{seed}")
    if name == "scenario-churn":
        return _churn_workload(name, seed, rng)
    return _reach_workload(name, seed, rng)
