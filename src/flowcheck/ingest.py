"""Parsers turning documents into model values.

Three input formats:

* CiliumNetworkPolicy YAML (the accepted subset): ``endpointSelector``
  with ``matchLabels``, ingress rules with ``fromCIDRSet`` /
  ``fromEndpoints`` / ``toPorts``, egress rules with ``toCIDRSet`` /
  ``toPorts``.  ``expand_rules`` flattens one document into single-pair
  policies, one per (rule, source, port) combination.
* Topology YAML: named endpoints plus application records referencing
  them, ready to deploy.
* Scenario YAML: a ``mode`` and a ``steps`` list; each step is one of the
  four scenario actions keyed by name, referencing endpoints and policies
  by the symbolic names earlier steps declared.

All three are loaded by ``_load_yaml``: PyYAML's libyaml loader when
PyYAML has it, its pure-Python one otherwise, with the same strict
constructors on either (no duplicate keys, ints of at most 64 bits) and a
bound of ``MAX_NESTING`` levels on collection nesting, checked on the
parser's events before anything is composed.

Scenario and topology endpoint fields use sentinel values for
"unconstrained" (cidr 0.0.0.0/0, namespace "-", port 0, empty label);
those are normalized to absent here.  Policy documents are not sentinel
filtered: a 0.0.0.0/0 CIDR in a rule is a real match-everything block.
"""

from __future__ import annotations

import json
import re
from collections.abc import Hashable
from dataclasses import dataclass, replace
from typing import Mapping, Optional, Sequence

import yaml

from .errors import (
    DuplicateSymbol,
    EmptyExpansion,
    InvalidPort,
    MalformedYaml,
    UnknownEndpointReference,
    UnsupportedApiVersion,
    UnsupportedKind,
)
from .matching import MatchMode, _policy_sort_key
from .model import (
    MAX_APP_ID,
    MAX_NAMESPACE_ID,
    Cidr,
    Direction,
    Endpoint,
    Namespace,
    Policy,
    PolicyOrigin,
    new_system,
    normalize_fields,
    parse_cidr,
    policy_from_dict,
    policy_to_dict,
)
from .scenario import (
    EXPECT_OK,
    Expectation,
    ScenarioStep,
    create_endpoint,
    deploy_application,
)

API_VERSION = "cilium.io/v2"
KIND = "CiliumNetworkPolicy"
NAMESPACE_LABEL_KEY = "io.kubernetes.pod.namespace"

# Deployed namespaces carry id 1 by convention (0 is the sentinel id), so
# ingested policies compare equal to scenario-created endpoints.
DEFAULT_NAMESPACE_ID = 1


# libyaml's scanner, parser and composer when PyYAML was built with it (five
# times faster on a 100 KB scenario), the pure-Python ones otherwise; the
# constructors below run on either.
_BASE_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader

# Deepest collection nesting a document may have.  libyaml's composer
# recurses once per level and crashes the process far below Python's
# recursion limit, so _load_yaml checks the depth on the parser's events
# before composing; real files nest a few levels.
MAX_NESTING = 100


class _StrictLoader(_BASE_LOADER):
    """Safe loader that rejects duplicate mapping keys instead of
    silently keeping the last one, and ints wider than 64 bits."""


_MERGE_TAG = "tag:yaml.org,2002:merge"


def _merged(loader, node, deep) -> dict:
    """The entries a merge key (``<<: *a`` or ``<<: [*a, *b]``) brings in;
    an earlier mapping in the list wins, as in PyYAML."""
    sources = node.value if isinstance(node, yaml.SequenceNode) else [node]
    merged: dict = {}
    for source in reversed(sources):
        # each source is constructed once (the loader caches it by node),
        # not copied node by node, so chained merges cannot grow exponentially
        value = loader.construct_object(source, deep=deep) if isinstance(source, yaml.MappingNode) else None
        if not isinstance(value, dict):
            raise yaml.constructor.ConstructorError(
                None, None, "expected a mapping or list of mappings for merging", source.start_mark
            )
        merged.update(value)
    return merged


def _strict_mapping(loader, node, deep=False):
    mapping = {}
    merged = None
    for key_node, value_node in node.value:
        if key_node.tag == _MERGE_TAG:
            if merged is not None:
                raise yaml.constructor.ConstructorError(
                    None, None, "duplicate mapping key '<<'", key_node.start_mark
                )
            merged = _merged(loader, value_node, deep)
            continue
        key = loader.construct_object(key_node, deep=deep)
        if not isinstance(key, Hashable):
            raise yaml.constructor.ConstructorError(
                None, None, "found unhashable key", key_node.start_mark
            )
        if key in mapping:
            raise yaml.constructor.ConstructorError(
                None, None, f"duplicate mapping key {key!r}", key_node.start_mark
            )
        mapping[key] = loader.construct_object(value_node, deep=deep)
    # explicit keys override merged ones; only a key written twice
    # explicitly is a duplicate
    return mapping if merged is None else {**merged, **mapping}


def _bounded_int(loader, node):
    # No field takes a wider int; one past the digit limit cannot be printed.
    value = loader.construct_yaml_int(node)
    if value.bit_length() > 64:
        raise yaml.constructor.ConstructorError(None, None, "integer out of range", node.start_mark)
    return value


_StrictLoader.add_constructor(
    yaml.resolver.BaseResolver.DEFAULT_MAPPING_TAG, _strict_mapping
)
_StrictLoader.add_constructor("tag:yaml.org,2002:int", _bounded_int)


_OPEN = (yaml.SequenceStartEvent, yaml.MappingStartEvent)
_CLOSE = (yaml.SequenceEndEvent, yaml.MappingEndEvent)


def _load_yaml(text: str, what: str):
    # The depth pass streams events and keeps no stack, so it rejects any
    # depth without recursing.  Scalar constructors raise ValueError (e.g. on
    # "2001-02-30"), and constructing a mapping recurses into aliased
    # mappings not yet built, however shallow the text.
    try:
        depth = 0
        for event in yaml.parse(text, Loader=_BASE_LOADER):
            if isinstance(event, _OPEN):
                depth += 1
                if depth > MAX_NESTING:
                    raise MalformedYaml(
                        f"{what}: collections nested deeper than {MAX_NESTING} levels\n"
                        f"{event.start_mark}"
                    )
            elif isinstance(event, _CLOSE):
                depth -= 1
        return yaml.load(text, Loader=_StrictLoader)
    except (yaml.YAMLError, ValueError, RecursionError) as exc:
        raise MalformedYaml(f"{what}: {exc}") from exc


def _require_mapping(value, where: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise MalformedYaml(f"{where} must be a mapping, got {type(value).__name__}")
    return value


def _require_list(value, where: str) -> list:
    if not isinstance(value, list):
        raise MalformedYaml(f"{where} must be a list, got {type(value).__name__}")
    return value


def _require_str(value, where: str) -> str:
    if not isinstance(value, str) or not value:
        raise MalformedYaml(f"{where} must be a non-empty string, got {value!r}")
    return value


def _require_int(value, where: str, hi: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or not 0 <= value <= hi:
        raise MalformedYaml(f"{where}: must be an integer in [0, {hi}], got {value!r}")
    return value


def _require_key(node: Mapping, key: str, where: str):
    if key not in node:
        raise MalformedYaml(f"{where}: missing {key!r}")
    return node[key]


def _mappings(value, where: str):
    """Yield ``(f"{where}[i]", entry)`` for a list whose entries are mappings."""
    for i, entry in enumerate(_require_list(value, where)):
        yield f"{where}[{i}]", _require_mapping(entry, f"{where}[{i}]")


def _check_keys(node: Mapping, allowed, where: str, warnings: Optional[list] = None) -> None:
    """Report the keys of ``node`` outside ``allowed``.

    Policy documents pass ``warnings`` and get one warning per unknown key,
    in document order.  Topology and scenario files pass none and fail.
    """
    unknown = [key for key in node if key not in allowed]
    if warnings is not None:
        warnings.extend(f"{where}: unknown key {key!r}" for key in unknown)
    elif unknown:
        raise MalformedYaml(f"{where}: unknown keys {sorted(unknown, key=repr)}")


def parse_decimal(text: str):
    """``text`` as an int if it is 1 to 20 ASCII digits, else ``text`` unchanged."""
    return int(text) if text.isascii() and text.isdigit() and len(text) <= 20 else text


def _parse_port(value, where: str) -> int:
    """Accepts quoted decimal strings (the Cilium convention) or ints."""
    if isinstance(value, str):
        value = parse_decimal(value)
        if isinstance(value, str):
            raise InvalidPort(f"{where}: port {value!r} is not a decimal number")
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidPort(f"{where}: port must be a number, got {value!r}")
    if not 1 <= value <= 65535:
        raise InvalidPort(f"{where}: port {value} out of range 1-65535")
    return value


@dataclass(frozen=True)
class IngressRule:
    """One ingress rule: sources (CIDRs and/or endpoint selectors) and ports."""

    from_cidr_set: tuple[Cidr, ...] = ()
    from_endpoints: tuple[Mapping[str, str], ...] = ()
    to_ports: tuple[int, ...] = ()


@dataclass(frozen=True)
class EgressRule:
    """One egress rule: destination CIDRs and ports."""

    to_cidr_set: tuple[Cidr, ...]
    to_ports: tuple[int, ...] = ()


@dataclass(frozen=True)
class CiliumPolicyDoc:
    name: str
    namespace: str
    endpoint_selector: Mapping[str, str]
    ingress_rules: tuple[IngressRule, ...] = ()
    egress_rules: tuple[EgressRule, ...] = ()
    warnings: tuple[str, ...] = ()


# Kubernetes label syntax: a value, and the name part of a key, is 1 to 63
# characters, alphanumeric at both ends with "-", "_" and "." between; a key
# may start with a DNS-subdomain prefix and "/".  Neither can hold "," or
# "=", so the label string _selector_parts folds them into is unambiguous.
_LABEL_NAME = re.compile(r"[A-Za-z0-9]([-A-Za-z0-9_.]{0,61}[A-Za-z0-9])?")
_DNS_SUBDOMAIN = re.compile(r"[a-z0-9]([-a-z0-9]*[a-z0-9])?(\.[a-z0-9]([-a-z0-9]*[a-z0-9])?)*")


def _is_label_key(key: str) -> bool:
    prefix, slash, name = key.rpartition("/")
    if slash and not (len(prefix) <= 253 and _DNS_SUBDOMAIN.fullmatch(prefix)):
        return False
    return _LABEL_NAME.fullmatch(name) is not None


def _parse_selector(node, where: str, warnings: list) -> dict:
    """The matchLabels map of an endpointSelector or fromEndpoints entry."""
    node = _require_mapping(node, where)
    _check_keys(node, {"matchLabels"}, where, warnings)
    labels = _require_mapping(node.get("matchLabels", {}), f"{where}.matchLabels")
    if not all(isinstance(key, str) and isinstance(item, str) for key, item in labels.items()):
        raise MalformedYaml(f"{where}.matchLabels: matchLabels entries must map strings to strings")
    for key, item in labels.items():
        if not _is_label_key(key):
            raise MalformedYaml(f"{where}.matchLabels: invalid label key {key!r}")
        if not _LABEL_NAME.fullmatch(item):
            raise MalformedYaml(f"{where}.matchLabels: invalid value {item!r} for label {key!r}")
    return dict(labels)


def _parse_to_ports(value, where: str, warnings: list) -> tuple[int, ...]:
    ports = []
    for block_where, block in _mappings(value, where):
        _check_keys(block, {"ports"}, block_where, warnings)
        for entry_where, entry in _mappings(block.get("ports", []), f"{block_where}.ports"):
            _check_keys(entry, {"port"}, entry_where, warnings)
            ports.append(_parse_port(_require_key(entry, "port", entry_where), entry_where))
    return tuple(ports)


def _parse_cidr_set(value, where: str, warnings: list) -> tuple[Cidr, ...]:
    cidrs = []
    for entry_where, entry in _mappings(value, where):
        _check_keys(entry, {"cidr"}, entry_where, warnings)
        cidr = _require_str(_require_key(entry, "cidr", entry_where), f"{entry_where}.cidr")
        cidrs.append(parse_cidr(cidr))
    return tuple(cidrs)


def _parse_ingress_rule(rule: Mapping, where: str, warnings: list) -> IngressRule:
    _check_keys(rule, {"fromCIDRSet", "fromEndpoints", "toPorts"}, where, warnings)
    from_cidrs = _parse_cidr_set(rule.get("fromCIDRSet", []), f"{where}.fromCIDRSet", warnings)
    from_endpoints = tuple(
        _parse_selector(entry, entry_where, warnings)
        for entry_where, entry in _mappings(rule.get("fromEndpoints", []), f"{where}.fromEndpoints")
    )
    if not from_cidrs and not from_endpoints:
        raise MalformedYaml(f"{where}: needs at least one of fromCIDRSet, fromEndpoints")
    to_ports = _parse_to_ports(rule.get("toPorts", []), f"{where}.toPorts", warnings)
    return IngressRule(from_cidr_set=from_cidrs, from_endpoints=from_endpoints, to_ports=to_ports)


def _parse_egress_rule(rule: Mapping, where: str, warnings: list) -> EgressRule:
    _check_keys(rule, {"toCIDRSet", "toPorts"}, where, warnings)
    to_cidrs = _parse_cidr_set(_require_key(rule, "toCIDRSet", where), f"{where}.toCIDRSet", warnings)
    if not to_cidrs:
        raise MalformedYaml(f"{where}: toCIDRSet must not be empty")
    to_ports = _parse_to_ports(rule.get("toPorts", []), f"{where}.toPorts", warnings)
    return EgressRule(to_cidr_set=to_cidrs, to_ports=to_ports)


def parse_cilium_policy(text: str) -> CiliumPolicyDoc:
    """Parse the accepted CiliumNetworkPolicy subset.

    Unknown keys inside ``spec`` are collected as warnings on the returned
    document; anything malformed in the accepted subset raises.
    """
    data = _require_mapping(_load_yaml(text, "policy document"), "policy document")
    for key, expected, error in (
        ("apiVersion", API_VERSION, UnsupportedApiVersion), ("kind", KIND, UnsupportedKind)
    ):
        if data.get(key) != expected:
            raise error(f"{key} must be {expected!r}, got {data.get(key)!r}")
    metadata = _require_mapping(data.get("metadata"), "metadata")
    name = _require_str(metadata.get("name"), "metadata.name")
    namespace = _require_str(metadata.get("namespace"), "metadata.namespace")
    spec = _require_mapping(data.get("spec"), "spec")

    warnings: list = []
    _check_keys(spec, {"endpointSelector", "ingress", "egress"}, "spec", warnings)
    selector = _parse_selector(spec.get("endpointSelector"), "spec.endpointSelector", warnings)
    ingress_rules = tuple(
        _parse_ingress_rule(rule, where, warnings)
        for where, rule in _mappings(spec.get("ingress", []), "spec.ingress")
    )
    egress_rules = tuple(
        _parse_egress_rule(rule, where, warnings)
        for where, rule in _mappings(spec.get("egress", []), "spec.egress")
    )
    return CiliumPolicyDoc(
        name=name,
        namespace=namespace,
        endpoint_selector=selector,
        ingress_rules=ingress_rules,
        egress_rules=egress_rules,
        warnings=tuple(warnings),
    )


def _selector_parts(match_labels: Mapping[str, str], namespace_key_special: bool):
    """Label string (and namespace override) from a matchLabels map.

    The ``app`` value leads; any other keys are appended as sorted
    ``key=value`` pairs so unrecognized labels stay lossless.
    """
    ns_name = None
    extras = []
    for key in sorted(match_labels):
        if key == "app":
            continue
        if namespace_key_special and key == NAMESPACE_LABEL_KEY:
            ns_name = match_labels[key]
            continue
        extras.append(f"{key}={match_labels[key]}")
    parts = ([match_labels["app"]] if "app" in match_labels else []) + extras
    return (",".join(parts) if parts else None), ns_name


def expand_rules(doc: CiliumPolicyDoc) -> list[Policy]:
    """Flatten one policy document into single-pair policies.

    Each ingress rule contributes one ingress policy per (source, port):
    the selected endpoint (document namespace, selector label, the port)
    paired with the peer (a CIDR, or namespace+label from fromEndpoints).
    Each egress rule contributes one egress policy per (CIDR, port): the
    selected endpoint without a port, paired with CIDR+port.
    """
    selected_ns = Namespace(doc.namespace, DEFAULT_NAMESPACE_ID)
    selector_label, _ = _selector_parts(doc.endpoint_selector, namespace_key_special=False)

    policies: list[Policy] = []
    for rule_index, rule in enumerate(doc.ingress_rules):
        origin = PolicyOrigin(doc.name, rule_index)
        peers = [Endpoint(cidr=cidr) for cidr in rule.from_cidr_set]
        for labels in rule.from_endpoints:
            label, ns_override = _selector_parts(labels, namespace_key_special=True)
            peer_ns = Namespace(ns_override or doc.namespace, DEFAULT_NAMESPACE_ID)
            peers.append(Endpoint(namespace=peer_ns, label=label))
        for peer in peers:
            for port in rule.to_ports or (None,):
                selected = Endpoint(namespace=selected_ns, port=port, label=selector_label)
                policies.append(
                    Policy(pair=(selected, peer), direction=Direction.INGRESS, origin=origin)
                )
    for rule_index, rule in enumerate(doc.egress_rules, start=len(doc.ingress_rules)):
        origin = PolicyOrigin(doc.name, rule_index)
        selected = Endpoint(namespace=selected_ns, label=selector_label)
        for cidr in rule.to_cidr_set:
            for port in rule.to_ports or (None,):
                peer = Endpoint(cidr=cidr, port=port)
                policies.append(
                    Policy(pair=(selected, peer), direction=Direction.EGRESS, origin=origin)
                )

    if not policies:
        raise EmptyExpansion(f"policy document {doc.name!r} produced no policies")
    return policies


# --- endpoints and applications in topology and scenario files --------------

_ENDPOINT_KEYS = frozenset({"cidr", "namespace", "port", "label"})


def parse_endpoint_fields(data, where: str) -> Endpoint:
    """One endpoint from its cidr, namespace (a name or a ``{name, id}``
    mapping), port and label fields, sentinel values normalized to absent."""
    data = _require_mapping(data, where)
    _check_keys(data, _ENDPOINT_KEYS, where)
    cidr = None
    if data.get("cidr") is not None:
        cidr = parse_cidr(_require_str(data["cidr"], f"{where}.cidr"))
    namespace = None
    ns_value = data.get("namespace")
    if isinstance(ns_value, Mapping):
        _check_keys(ns_value, {"name", "id"}, f"{where}.namespace")
        namespace = Namespace(
            _require_str(ns_value.get("name"), f"{where}.namespace.name"),
            _require_int(
                ns_value.get("id", DEFAULT_NAMESPACE_ID), f"{where}.namespace.id", MAX_NAMESPACE_ID
            ),
        )
    elif ns_value is not None:
        ns_name = _require_str(ns_value, f"{where}.namespace")
        namespace = None if ns_name == "-" else Namespace(ns_name, DEFAULT_NAMESPACE_ID)
    port = None
    if data.get("port") is not None:
        port = data["port"]
        if isinstance(port, bool) or not isinstance(port, int):
            raise InvalidPort(f"{where}.port: must be an integer, got {port!r}")
        if port != 0:
            port = _parse_port(port, where)
    label = data.get("label")
    if label is not None and not isinstance(label, str):
        raise MalformedYaml(f"{where}.label: must be a string, got {label!r}")

    cidr, namespace, port, label = normalize_fields(cidr, namespace, port, label)
    if cidr is None and namespace is None and port is None and label is None:
        raise MalformedYaml(f"{where}: endpoint has no present fields after normalization")
    return Endpoint(cidr=cidr, namespace=namespace, port=port, label=label)


_APP_KEYS = frozenset({"id", "send", "listen", "receive_only"})


def _resolve(symbols: Mapping, ref, where: str, kind: str = "endpoint"):
    ref = _require_str(ref, where)
    if ref not in symbols:
        raise UnknownEndpointReference(f"{where}: undeclared {kind} {ref!r}")
    return symbols[ref]


def _parse_application(entry: Mapping, where: str, endpoints: Mapping) -> dict:
    """The id, send, listen and receive_only fields of one entry, resolved."""
    listen = _require_list(entry.get("listen", []), f"{where}.listen")
    receive_only = entry.get("receive_only", False)
    if not isinstance(receive_only, bool):
        raise MalformedYaml(f"{where}.receive_only: must be a boolean")
    return {
        "id": _require_int(_require_key(entry, "id", where), f"{where}.id", MAX_APP_ID),
        "send": _resolve(endpoints, _require_key(entry, "send", where), f"{where}.send"),
        "listen": tuple(_resolve(endpoints, ref, f"{where}.listen[{j}]") for j, ref in enumerate(listen)),
        "receive_only": receive_only,
    }


# --- topology ----------------------------------------------------------------


@dataclass(frozen=True)
class ApplicationRecord:
    """Deploy-ready application description from a topology file."""

    app_id: int
    send: Endpoint
    listen: tuple[Endpoint, ...]
    receive_only: bool
    name: Optional[str] = None


def parse_topology(text: str):
    """Parse a topology document into (named endpoints, application records)."""
    data = _require_mapping(_load_yaml(text, "topology document"), "topology document")
    _check_keys(data, {"endpoints", "applications"}, "topology")

    endpoints: dict[str, Endpoint] = {}
    for name, fields in _require_mapping(data.get("endpoints", {}), "endpoints").items():
        name = _require_str(name, "endpoint name")
        endpoints[name] = parse_endpoint_fields(fields, f"endpoints.{name}")

    records: dict[int, ApplicationRecord] = {}
    for where, entry in _mappings(data.get("applications", []), "applications"):
        _check_keys(entry, _APP_KEYS | {"name"}, where)
        app = _parse_application(entry, where, endpoints)
        if app["id"] in records:
            raise DuplicateSymbol(f"{where}: application id {app['id']} declared twice")
        name = entry.get("name")
        if name is not None:
            name = _require_str(name, f"{where}.name")
        records[app["id"]] = ApplicationRecord(
            app["id"], app["send"], app["listen"], app["receive_only"], name
        )
    return endpoints, tuple(records.values())


# --- scenario scripts --------------------------------------------------------

# Each action: the operation an expected violation names (send_data's "deny"
# is a refused transfer) and the keys besides "expect".  Verdicts read every
# deployed policy, so deploy_application only resolves its "policies" list.
_ACTIONS = {
    "create_endpoint": ("CreateEndpoint", _ENDPOINT_KEYS | {"name"}),
    "create_policy": ("CreatePolicy", {"name", "first", "second", "direction"}),
    "deploy_application": ("DeployApplication", _APP_KEYS | {"policies"}),
    "send_data": ("TransferData", {"from", "to", "endpoint"}),
}


@dataclass(frozen=True)
class ScenarioScript:
    """Parsed scenario: resolved steps plus the mode the file declared."""

    steps: tuple[ScenarioStep, ...]
    mode: Optional[MatchMode] = None

    def concrete_endpoints(self) -> set[Endpoint]:
        """Endpoints the script uses as application or target endpoints
        (as opposed to policy pair members)."""
        used: set[Endpoint] = set()
        for step in self.steps:
            if step.action == "deploy_application":
                used.add(step.arguments["send"])
                used.update(step.arguments.get("listen", ()))
            elif step.action == "send_data":
                used.add(step.arguments["endpoint"])
        return used


def _parse_expectation(value, action: str, where: str) -> Expectation:
    ok, violation = ("allow", "deny") if action == "send_data" else ("ok", "violation")
    if value is None or value == ok:
        return EXPECT_OK
    if value == violation:
        return Expectation(violation_of=_ACTIONS[action][0])
    raise MalformedYaml(f"{where}.expect: must be {ok!r} or {violation!r}, got {value!r}")


def parse_scenario(text: str, symbols: Optional[Mapping[str, Endpoint]] = None) -> ScenarioScript:
    """Parse a scenario document into resolved, runnable steps.

    Endpoint and policy references resolve against the names declared by
    earlier create_endpoint / create_policy steps, plus any pre-declared
    symbols (e.g. the endpoint names of an already-loaded topology).
    """
    data = _require_mapping(_load_yaml(text, "scenario document"), "scenario document")
    _check_keys(data, {"mode", "steps"}, "scenario")
    mode = None
    if data.get("mode") is not None:
        try:
            mode = MatchMode(data["mode"])
        except ValueError:
            raise MalformedYaml(f"scenario: mode must be 'strict' or 'semantic', got {data['mode']!r}")

    endpoints: dict[str, Endpoint] = dict(symbols or {})
    policies: dict[str, Policy] = {}

    def declare(body: Mapping, where: str) -> str:
        name = _require_str(body.get("name"), f"{where}.name")
        if name in endpoints or name in policies:
            raise DuplicateSymbol(f"{where}: symbol {name!r} declared twice")
        return name

    steps = []
    for where, raw in _mappings(data.get("steps"), "steps"):
        if len(raw) != 1:
            raise MalformedYaml(f"{where}: step must have exactly one action key")
        _check_keys(raw, _ACTIONS, where)
        action, body = next(iter(raw.items()))
        body = _require_mapping(body, f"{where}.{action}")
        _check_keys(body, _ACTIONS[action][1] | {"expect"}, where)
        expected = _parse_expectation(body.get("expect"), action, where)

        if action == "create_endpoint":
            ep = parse_endpoint_fields({k: body[k] for k in _ENDPOINT_KEYS if k in body}, where)
            name = declare(body, where)
            endpoints[name] = ep
            args = {"name": name, "cidr": ep.cidr, "namespace": ep.namespace,
                    "port": ep.port, "label": ep.label}
        elif action == "create_policy":
            direction = body.get("direction")
            if isinstance(direction, bool) or direction not in (0, 1):
                raise MalformedYaml(f"{where}.direction: must be 0 or 1, got {direction!r}")
            first = _resolve(endpoints, body.get("first"), f"{where}.first")
            second = _resolve(endpoints, body.get("second"), f"{where}.second")
            name = declare(body, where)
            policies[name] = Policy(pair=(first, second), direction=Direction(direction))
            args = {"name": name, "first": first, "second": second,
                    "direction": Direction(direction)}
        elif action == "deploy_application":
            for j, ref in enumerate(_require_list(body.get("policies", []), f"{where}.policies")):
                _resolve(policies, ref, f"{where}.policies[{j}]", "policy")
            args = _parse_application(body, where, endpoints)
        else:  # send_data
            args = {
                "from": _require_int(body.get("from"), f"{where}.from", MAX_APP_ID),
                "to": _require_int(body.get("to"), f"{where}.to", MAX_APP_ID),
                "endpoint": _resolve(endpoints, body.get("endpoint"), f"{where}.endpoint"),
            }
        steps.append(ScenarioStep(action=action, arguments=args, expected=expected))

    return ScenarioScript(steps=tuple(steps), mode=mode)


# --- assembling systems and canonical policy dumps ---------------------------


def assemble_state(policies: Sequence[Policy] = (), topology=None):
    """Build a system from ingested parts.

    Registers topology endpoints, deploys its applications, then installs
    the policies (set semantics: of structural duplicates, the one with the
    lowest origin in canonical order stays, whatever the input order, so
    witnesses name the origin explain names).  Returns
    (state, {app_id: display name}).
    """
    state = new_system()
    names: dict[int, str] = {}
    if topology is not None:
        endpoints, records = topology
        for ep in endpoints.values():
            state, _ = create_endpoint(state, ep.cidr, ep.namespace, ep.port, ep.label)
        for record in records:
            state = deploy_application(
                state, record.app_id, record.send, record.listen, record.receive_only
            )
            if record.name is not None:
                names[record.app_id] = record.name
    if policies:
        # a frozenset keeps the first of equal elements it is given
        ranked = sorted(policies, key=_policy_sort_key)
        state = replace(state, policies=state.policies | frozenset(ranked))
    return state, names


def policies_to_text(policies: Sequence[Policy]) -> str:
    """Canonical serialization of policies (deterministic field order)."""
    return json.dumps(
        {"policies": [policy_to_dict(p) for p in policies]}, sort_keys=True, indent=2
    ) + "\n"


def policies_from_text(text: str) -> list[Policy]:
    """Inverse of policies_to_text."""
    try:
        return [policy_from_dict(d) for d in json.loads(text)["policies"]]
    except (AttributeError, KeyError, TypeError, ValueError, RecursionError) as exc:
        raise MalformedYaml(f"policy dump: {exc!r}") from exc
