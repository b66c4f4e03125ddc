"""Parsers turning documents into model values.

Three input formats:

* CiliumNetworkPolicy YAML (the accepted subset): ``endpointSelector``
  with ``matchLabels``, ingress rules with ``fromCIDRSet`` /
  ``fromEndpoints`` / ``toPorts``, egress rules with ``toCIDRSet`` /
  ``toPorts``.  Each rule parses into its peers and ports, and
  ``expand_rules`` flattens one document into single-pair policies, one
  per (rule, peer, port); the receiver takes the port; egress rule
  indexes follow the ingress ones.
* Topology YAML: named endpoints plus the applications that use them,
  each parsed into the arguments of a deploy_application step.
* Scenario YAML: a ``mode`` and a ``steps`` list; each step is one of the
  four scenario actions keyed by name, referencing endpoints and policies
  by the symbolic names earlier steps declared.

All three are loaded by ``_load_yaml`` in one pass: a loader of
``_BASE_LOADER`` (libyaml's scanner and parser when PyYAML has them, its
pure-Python ones otherwise) hands its parser's events to ``_document``,
one Python loop that builds lists and dicts straight from them.  Each
distinct scalar, by its text and how it was written (``implicit``, or its
explicit tag), is resolved and built once per file.  Scalars load as str,
null, bool, int (of at most 64 bits), float, binary or timestamp, and
collections as plain sequences and mappings, with merge keys.  Refused:
any other tag (``!!set``, ``!!omap``, ``!!pairs``, ``!foo``) or a tag that
does not fit its node, a duplicate key, an alias to a collection still
open, and nesting deeper than ``MAX_NESTING`` levels, which counts through
aliases: an alias adds the height of the value it names.

Scenario and topology endpoint fields use sentinel values for
"unconstrained" (cidr 0.0.0.0/0, namespace "-", port 0, empty label);
those are normalized to absent here.  Policy documents are not sentinel
filtered: a 0.0.0.0/0 CIDR in a rule is a real match-everything block,
which parses into two peers, its /1 halves, since the model reads a /0
endpoint as "no address needed".
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import yaml

from .errors import SHOWN_CHARS, IngestError, shown
from .matching import MatchMode
from .model import (
    MAX_APP_ID,
    MAX_NAMESPACE_ID,
    SENTINEL_CIDR,
    Cidr,
    Direction,
    Endpoint,
    Namespace,
    Policy,
    PolicyOrigin,
    PolicySet,
    new_system,
    normalize_fields,
    parse_cidr,
    replace_validated,
)
from .scenario import ScenarioStep, create_endpoint, deploy_application

API_VERSION = "cilium.io/v2"
KIND = "CiliumNetworkPolicy"
NAMESPACE_LABEL_KEY = "io.kubernetes.pod.namespace"

# Deployed namespaces carry id 1 by convention (0 is the sentinel id), so
# ingested policies compare equal to scenario-created endpoints.
DEFAULT_NAMESPACE_ID = 1


# libyaml's scanner and parser when PyYAML was built with it, the
# pure-Python ones otherwise.  Values are built from the parser's events by
# the Python code below on either, so every check here holds on both.
_BASE_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader

# Deepest collection nesting a value may have, counting through aliases:
# an alias adds the height of the value it names.  Real files nest a few
# levels.
MAX_NESTING = 100

_TAG = "tag:yaml.org,2002:"
_STR, _INT, _MERGE_TAG = _TAG + "str", _TAG + "int", _TAG + "merge"
# scalar tags the loader's own constructors build; a str is the event's text
_CONSTRUCTED = frozenset(_TAG + name for name in ("null", "bool", "int", "float", "binary", "timestamp"))
_KEY = object()  # a mapping's next value is a key
_MERGE = object()  # a "<<" key, or a scalar tagged as one
_OPEN = object()  # an anchored collection still being built
_UNBUILT = object()  # a scalar whose written form this load has not built yet


def _error(problem: str, mark, context=None, context_mark=None) -> yaml.MarkedYAMLError:
    return yaml.constructor.ConstructorError(context, context_mark, problem, mark)


def _merged(value, mark) -> dict:
    """The entries a merge key's value (a mapping or list of mappings)
    brings in; an earlier mapping in the list wins, as in PyYAML."""
    merged: dict = {}
    for source in reversed(value) if isinstance(value, list) else [value]:
        if not isinstance(source, dict):
            raise _error("expected a mapping or list of mappings for merging", mark)
        merged.update(source)
    return merged


def _document(loader):
    """The one document's value, built from ``loader``'s parser events in
    one loop over an explicit stack of open collections: no node tree, no
    recursion.  It rejects duplicate mapping keys instead of silently
    keeping the last one, ints wider than 64 bits, any tag but the core
    scalar ones and plain ``!!seq``/``!!map``, an alias to a collection
    still open, and nesting past ``MAX_NESTING``.

    Each distinct scalar is resolved and built once per load: its value is
    kept under its written form, the text plus either ``implicit`` (which
    is all ``resolve`` reads) or the explicit tag.  Every value a core
    constructor builds is immutable, so sharing it is invisible.  A scalar
    that is refused is refused at its first occurrence, so no refusal is
    kept."""
    get_event = loader.get_event
    scalar_event, alias_event = yaml.ScalarEvent, yaml.AliasEvent
    # per start event: the collection's name, its own tag, its type
    opens = {yaml.SequenceStartEvent: ("sequence", _TAG + "seq", list),
             yaml.MappingStartEvent: ("mapping", _TAG + "map", dict)}
    closes = (yaml.SequenceEndEvent, yaml.MappingEndEvent)
    built: dict = {}  # (text, implicit or explicit tag) -> value
    anchors: dict = {}  # anchor -> (value, height, start mark)
    # per open collection: [value, anchor, start mark, height of its
    # highest child, pending key, merged entries]; the bottom list
    # holds the document
    stack: list = [[[], None, None, 0, _KEY, None]]
    root_mark = None

    def define(anchor, value, height, mark):
        if anchor in anchors:
            first = f"found duplicate anchor {shown(anchor)}; first occurrence"
            raise _error("second occurrence", mark, first, anchors[anchor][2])
        anchors[anchor] = value, height, mark

    while True:
        event = get_event()
        kind = type(event)
        # the start mark of the value to place: a closed collection's
        # comes from its frame, a scalar's or an alias's is read
        # from the event only on error
        mark = None
        if kind is scalar_event:
            tag = event.tag
            written = event.value, (event.implicit if tag is None or tag == "!" else tag)
            value = built.get(written, _UNBUILT)
            if value is _UNBUILT:
                value = built[written] = _scalar(loader, event, tag)
            if event.anchor is not None:
                define(event.anchor, value, 0, event.start_mark)
            frame = stack[-1]
        elif kind in opens:
            collection, own_tag, new = opens[kind]
            mark, tag = event.start_mark, event.tag
            if tag is not None and tag != "!" and tag != own_tag:
                raise _error(f"tag {shown(tag)} is not allowed on a {collection}", mark)
            if len(stack) > MAX_NESTING:
                raise _error(f"collections nested deeper than {MAX_NESTING} levels", mark)
            if event.anchor is not None:
                define(event.anchor, _OPEN, 0, mark)
            stack.append([new(), event.anchor, mark, 0, _KEY, None])
            continue
        elif kind in closes:
            value, anchor, mark, height, _, merged = stack.pop()
            height += 1
            if merged is not None:  # explicit keys override merged ones
                value = {**merged, **value}
            if anchor is not None:
                anchors[anchor] = value, height, mark
            frame = stack[-1]
            if height > frame[3]:
                frame[3] = height
        elif kind is alias_event:
            if event.anchor not in anchors:
                raise _error(f"found undefined alias {shown(event.anchor)}", event.start_mark)
            value, height, _ = anchors[event.anchor]
            if value is _OPEN:
                raise _error("found an alias to an enclosing collection", event.start_mark)
            if len(stack) - 1 + height > MAX_NESTING:
                raise _error(f"collections nested deeper than {MAX_NESTING} levels", event.start_mark)
            frame = stack[-1]
            if height > frame[3]:
                frame[3] = height
        elif kind is yaml.DocumentStartEvent:
            if root_mark is not None:
                raise _error("but found another document", event.start_mark,
                             "expected a single document in the stream", root_mark)
            root_mark = loader.peek_event().start_mark
            continue
        elif kind is yaml.StreamEndEvent:
            document = stack[0][0]
            return document[0] if document else None
        else:
            continue
        container, key = frame[0], frame[4]
        if value is _MERGE and (key is not _KEY or type(container) is list):
            raise _error(f"tag {_MERGE_TAG!r} is not allowed on a scalar outside a mapping key",
                         mark or event.start_mark)
        if type(container) is list:
            container.append(value)
        elif key is _KEY:
            if value is _MERGE and frame[5] is not None:
                raise _error("duplicate mapping key '<<'", mark or event.start_mark)
            if isinstance(value, (list, dict)):
                raise _error("found unhashable key", mark or event.start_mark)
            if value in container:
                raise _error(f"duplicate mapping key {shown(value)}", mark or event.start_mark)
            frame[4] = value
        elif key is _MERGE:
            frame[4], frame[5] = _KEY, _merged(value, mark or event.start_mark)
        else:
            frame[4] = _KEY
            container[key] = value


def _scalar(loader, event, tag):
    """The value of a scalar's first occurrence in the load."""
    if tag is None or tag == "!":
        tag = loader.resolve(yaml.ScalarNode, event.value, event.implicit)
    if tag == _STR:
        return event.value
    if tag in _CONSTRUCTED:
        node = yaml.ScalarNode(tag, event.value, event.start_mark, event.end_mark)
        try:
            value = loader.yaml_constructors[tag](loader, node)
        except ValueError as exc:  # e.g. "2001-02-30" or "!!int x12"
            raise _error(str(exc), event.start_mark) from None
        except (LookupError, AttributeError):  # e.g. "!!bool x", "!!int ''" or "!!timestamp x"
            raise _error(f"not a valid {tag[len(_TAG):]}: {shown(event.value)}", event.start_mark) from None
        # no field takes a wider int; one past the digit limit cannot be printed
        if tag == _INT and value.bit_length() > 64:
            raise _error("integer out of range", event.start_mark)
        return value
    if tag == _MERGE_TAG:
        return _MERGE
    raise _error(f"tag {shown(tag)} is not allowed on a scalar", event.start_mark)


def _load_yaml(text: str, what: str):
    try:
        # the pure-Python reader refuses a control character here, in its constructor
        loader = _BASE_LOADER(text)
        try:
            return _document(loader)
        finally:
            loader.dispose()
    except yaml.YAMLError as exc:
        # PyYAML names a str input "<unicode string>"; name the document
        # kind instead (the caller names the file)
        if isinstance(exc, yaml.reader.ReaderError):
            exc.name = what
        for attr in ("context_mark", "problem_mark"):
            mark = getattr(exc, attr, None)
            if mark is not None:
                setattr(exc, attr, yaml.Mark(what, mark.index, mark.line, mark.column, mark.buffer, mark.pointer))
        raise IngestError(f"{what}: {exc}") from exc


def _require_mapping(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise IngestError(f"{where} must be a mapping, got {type(value).__name__}")
    return value


def _require_list(value, where: str) -> list:
    if not isinstance(value, list):
        raise IngestError(f"{where} must be a list, got {type(value).__name__}")
    return value


def _require_str(value, where: str) -> str:
    if not isinstance(value, str) or not value:
        raise IngestError(f"{where} must be a non-empty string, got {shown(value)}")
    return value


def _require_int(value, where: str, hi: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or not 0 <= value <= hi:
        raise IngestError(f"{where}: must be an integer in [0, {hi}], got {shown(value)}")
    return value


def _require_key(node: Mapping, key: str, where: str):
    if key not in node:
        raise IngestError(f"{where}: missing {key!r}")
    return node[key]


# policy keys that can narrow what is allowed: ignoring one with a value may widen it
_WIDENING = frozenset("""matchExpressions except rules listener ingressDeny egressDeny fromRequires
    toRequires icmps serverNames authentication specs""".split())


def _node(value, allowed, where: str, warnings: Optional[list] = None) -> Mapping:
    """``value`` as a mapping, its keys checked against ``allowed``.

    Policy nodes pass ``warnings`` and get one warning per unknown key,
    in document order, failing only on a non-empty ``_WIDENING`` key or a
    protocol other than TCP or ANY.  Topology and scenario nodes pass none
    and fail on any unknown key.
    """
    node = _require_mapping(value, where)
    unknown = [key for key in node if key not in allowed]
    if warnings is not None:
        for key in unknown:
            if node[key] and (key in _WIDENING or key == "protocol" and node[key] not in ("TCP", "ANY")):
                raise IngestError(f"{where}: unsupported key {key!r}: ignoring it would widen what is allowed")
        warnings.extend(f"{where}: unknown key {shown(key)}" for key in unknown)
    elif unknown:
        raise IngestError(f"{where}: unknown keys [{', '.join(map(shown, sorted(unknown, key=repr)))}]")
    return node


def _nodes(value, allowed, where: str, warnings: Optional[list] = None):
    """Yield ``(f"{where}[i]", node)`` for each entry of the list ``value``,
    checked by ``_node`` only when reached, after the entries before it."""
    for i, entry in enumerate(_require_list(value, where)):
        yield f"{where}[{i}]", _node(entry, allowed, f"{where}[{i}]", warnings)


def parse_decimal(text: str, where: str):
    """``text`` as an int if it is ASCII digits, else ``text`` unchanged.  Past
    20 digits it is out of every field's range, and refused by its length."""
    if not (text.isascii() and text.isdigit()):
        return text
    if len(text) > 20:
        raise IngestError(f"{where}: out of range, more than 20 digits")
    return int(text)


def _parse_port(value, where: str) -> int:
    """Accepts quoted decimal strings (the Cilium convention) or ints."""
    if isinstance(value, str):
        value = parse_decimal(value, f"{where}.port")
        if isinstance(value, str):
            raise IngestError(f"{where}: port {shown(value)} is not a decimal number")
    if isinstance(value, bool) or not isinstance(value, int):
        raise IngestError(f"{where}: port must be a number, got {shown(value)}")
    if not 1 <= value <= 65535:
        raise IngestError(f"{where}: port {value} out of range 1-65535")
    return value


@dataclass(frozen=True)
class Rule:
    """One ingress or egress rule: its peers, the policy endpoints on the
    other side of it, and its ports."""

    peers: tuple[Endpoint, ...]
    ports: tuple[int, ...]


@dataclass(frozen=True)
class CiliumPolicyDoc:
    name: str
    namespace: str
    endpoint_selector: Mapping[str, str]
    ingress_rules: tuple[Rule, ...] = ()
    egress_rules: tuple[Rule, ...] = ()
    warnings: tuple[str, ...] = ()


# Kubernetes label syntax: a value, and the name part of a key, is 1 to 63
# characters, alphanumeric at both ends with "-", "_" and "." between; a key
# may start with a DNS-subdomain prefix and "/".  Neither can hold "," or
# "=", so the label string _selector_label folds them into is unambiguous.
_LABEL_NAME = re.compile(r"[A-Za-z0-9]([-A-Za-z0-9_.]{0,61}[A-Za-z0-9])?")
_DNS_SUBDOMAIN = re.compile(r"[a-z0-9]([-a-z0-9]*[a-z0-9])?(\.[a-z0-9]([-a-z0-9]*[a-z0-9])?)*")


def _is_label_key(key: str) -> bool:
    prefix, slash, name = key.rpartition("/")
    if slash and not (len(prefix) <= 253 and _DNS_SUBDOMAIN.fullmatch(prefix)):
        return False
    return _LABEL_NAME.fullmatch(name) is not None


def _parse_selector(node, where: str, warnings: list) -> dict:
    """The matchLabels map of an endpointSelector or fromEndpoints entry."""
    node = _node(node, {"matchLabels"}, where, warnings)
    labels = _require_mapping(node.get("matchLabels", {}), f"{where}.matchLabels")
    if not all(isinstance(key, str) and isinstance(item, str) for key, item in labels.items()):
        raise IngestError(f"{where}.matchLabels: matchLabels entries must map strings to strings")
    for key, item in labels.items():
        if not _is_label_key(key):
            raise IngestError(f"{where}.matchLabels: invalid label key {shown(key)}")
        if not _LABEL_NAME.fullmatch(item):
            raise IngestError(f"{where}.matchLabels: invalid value {shown(item)} for label {shown(key)}")
    return dict(labels)


def _parse_to_ports(value, where: str, warnings: list) -> tuple[int, ...]:
    ports = []
    for block_where, block in _nodes(value, {"ports"}, where, warnings):
        for entry_where, entry in _nodes(block.get("ports", []), {"port"}, f"{block_where}.ports", warnings):
            ports.append(_parse_port(_require_key(entry, "port", entry_where), entry_where))
    return tuple(ports)


def _selector_label(labels: Mapping[str, str]) -> Optional[str]:
    """The label string of a matchLabels map: the ``app`` value leads and
    every other label follows as ``key=value``, sorted by key, so none is
    lost."""
    parts = [labels["app"]] if "app" in labels else []
    parts.extend(f"{key}={labels[key]}" for key in sorted(labels) if key != "app")
    return ",".join(parts) or None


# the halves of 0.0.0.0/0: every address, but only an address
_WORLD_HALVES = (Endpoint(cidr=Cidr(0, 0, 0, 0, 1)), Endpoint(cidr=Cidr(128, 0, 0, 0, 1)))


def _parse_cidr_set(value, where: str, warnings: list) -> list[Endpoint]:
    """A CIDR set's peers, with 0.0.0.0/0 split into its /1 halves."""
    peers = []
    for entry_where, entry in _nodes(value, {"cidr"}, where, warnings):
        cidr = parse_cidr(_require_str(_require_key(entry, "cidr", entry_where), f"{entry_where}.cidr"))
        peers.extend(_WORLD_HALVES if cidr == SENTINEL_CIDR else [Endpoint(cidr=cidr)])
    return peers


def _parse_ingress_rule(rule: Mapping, where: str, namespace: str, warnings: list) -> Rule:
    """An ingress rule's CIDR peers, then one peer per fromEndpoints entry:
    its namespace label names the peer's namespace (the document's when
    absent), and its other labels fold into the peer's label."""
    peers = _parse_cidr_set(rule.get("fromCIDRSet", []), f"{where}.fromCIDRSet", warnings)
    for i, entry in enumerate(_require_list(rule.get("fromEndpoints", []), f"{where}.fromEndpoints")):
        labels = _parse_selector(entry, f"{where}.fromEndpoints[{i}]", warnings)
        peer_ns = Namespace(labels.pop(NAMESPACE_LABEL_KEY, namespace), DEFAULT_NAMESPACE_ID)
        peers.append(Endpoint(namespace=peer_ns, label=_selector_label(labels)))
    if not peers:
        raise IngestError(f"{where}: needs at least one of fromCIDRSet, fromEndpoints")
    ports = _parse_to_ports(rule.get("toPorts", []), f"{where}.toPorts", warnings)
    return Rule(tuple(peers), ports)


# Cilium's egress destinations besides toCIDRSet, none of them modeled
_EGRESS_PEERS = {
    "toEndpoints": "egress to pods", "toCIDR": "egress to bare CIDRs", "toEntities": "egress to entities",
    "toServices": "egress to services", "toFQDNs": "egress to DNS names", "toGroups": "egress to cloud groups",
    "toNodes": "egress to nodes",
}


def _parse_egress_rule(rule: Mapping, where: str, warnings: list) -> Rule:
    named = [] if "toCIDRSet" in rule else [f"{key!r} ({_EGRESS_PEERS[key]})" for key in rule if key in _EGRESS_PEERS]
    if named:  # named here, since the missing toCIDRSet would fail before the warnings are read
        verb = "is" if len(named) == 1 else "are"
        raise IngestError(f"{where}: {', '.join(named)} {verb} not modeled; egress needs 'toCIDRSet'")
    peers = _parse_cidr_set(_require_key(rule, "toCIDRSet", where), f"{where}.toCIDRSet", warnings)
    if not peers:
        raise IngestError(f"{where}: toCIDRSet must not be empty")
    ports = _parse_to_ports(rule.get("toPorts", []), f"{where}.toPorts", warnings)
    return Rule(tuple(peers), ports)


def parse_cilium_policy(text: str) -> CiliumPolicyDoc:
    """Parse the accepted CiliumNetworkPolicy subset.

    Unknown keys of the document and inside ``spec`` are warnings on the
    returned document unless ``_node`` raises; anything malformed in
    the subset raises.
    """
    data = _require_mapping(_load_yaml(text, "policy document"), "policy document")
    for key, expected in (("apiVersion", API_VERSION), ("kind", KIND)):
        if data.get(key) != expected:
            raise IngestError(f"{key} must be {expected!r}, got {shown(data.get(key))}")
    warnings: list = []
    _node(data, {"apiVersion", "kind", "metadata", "spec"}, "policy document", warnings)
    metadata = _require_mapping(data.get("metadata"), "metadata")
    name = _require_str(metadata.get("name"), "metadata.name")
    namespace = _require_str(metadata.get("namespace"), "metadata.namespace")
    spec = _node(data.get("spec"), {"endpointSelector", "ingress", "egress"}, "spec", warnings)
    selector = _parse_selector(spec.get("endpointSelector"), "spec.endpointSelector", warnings)
    ingress_rules = tuple(
        _parse_ingress_rule(rule, where, namespace, warnings)
        for where, rule in _nodes(
            spec.get("ingress", []), {"fromCIDRSet", "fromEndpoints", "toPorts"}, "spec.ingress", warnings
        )
    )
    egress_rules = tuple(
        _parse_egress_rule(rule, where, warnings)
        for where, rule in _nodes(spec.get("egress", []), {"toCIDRSet", "toPorts"}, "spec.egress", warnings)
    )
    return CiliumPolicyDoc(
        name=name,
        namespace=namespace,
        endpoint_selector=selector,
        ingress_rules=ingress_rules,
        egress_rules=egress_rules,
        warnings=tuple(warnings),
    )


def expand_rules(doc: CiliumPolicyDoc) -> list[Policy]:
    """Flatten one policy document into single-pair policies.

    Each rule contributes one policy per (peer, port): the selected
    endpoint (document namespace, selector label) paired with the peer,
    where the receiver takes the port: the selected endpoint on ingress,
    the peer on egress.  Egress rule indexes follow the ingress ones.
    """
    selected = Endpoint(namespace=Namespace(doc.namespace, DEFAULT_NAMESPACE_ID),
                        label=_selector_label(doc.endpoint_selector))
    rules = [(Direction.INGRESS, rule) for rule in doc.ingress_rules]
    rules += [(Direction.EGRESS, rule) for rule in doc.egress_rules]
    policies: list[Policy] = []
    for rule_index, (direction, rule) in enumerate(rules):
        origin = PolicyOrigin(doc.name, rule_index)
        for peer in rule.peers:
            receiver = selected if direction is Direction.INGRESS else peer
            for port in rule.ports or (None,):
                received = Endpoint(receiver.cidr, receiver.namespace, port, receiver.label)
                pair = (received, peer) if direction is Direction.INGRESS else (selected, received)
                policies.append(Policy(pair=pair, direction=direction, origin=origin))

    if not policies:
        raise IngestError(f"policy document {shown(doc.name)} produced no policies")
    return policies


# --- endpoints and applications in topology and scenario files --------------

_ENDPOINT_KEYS = frozenset({"cidr", "namespace", "port", "label"})


def parse_endpoint_fields(data, where: str) -> Endpoint:
    """One endpoint from its cidr, namespace (a name or a ``{name, id}``
    mapping), port and label fields, sentinel values normalized to absent."""
    data = _node(data, _ENDPOINT_KEYS, where)
    cidr = None
    if data.get("cidr") is not None:
        cidr = parse_cidr(_require_str(data["cidr"], f"{where}.cidr"))
    namespace = None
    ns_value = data.get("namespace")
    if isinstance(ns_value, dict):
        _node(ns_value, {"name", "id"}, f"{where}.namespace")
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
            raise IngestError(f"{where}.port: must be an integer, got {shown(port)}")
        if port != 0:
            port = _parse_port(port, where)
    label = data.get("label")
    if label is not None and not isinstance(label, str):
        raise IngestError(f"{where}.label: must be a string, got {shown(label)}")

    cidr, namespace, port, label = normalize_fields(cidr, namespace, port, label)
    if cidr is None and namespace is None and port is None and label is None:
        raise IngestError(f"{where}: endpoint has no present fields after normalization")
    return Endpoint(cidr=cidr, namespace=namespace, port=port, label=label)


_APP_KEYS = frozenset({"id", "send", "listen", "receive_only"})


def _declared(names, ref, where: str, kind: str) -> str:
    ref = _require_str(ref, where)
    if ref not in names:
        raise IngestError(f"{where}: undeclared {kind} {shown(ref)}")
    return ref


def _resolve(endpoints: Mapping, ref, where: str) -> Endpoint:
    return endpoints[_declared(endpoints, ref, where, "endpoint")]


def _parse_application(entry: Mapping, where: str, endpoints: Mapping) -> dict:
    """The id, send, listen and receive_only fields of one entry, resolved."""
    listen = _require_list(entry.get("listen", []), f"{where}.listen")
    receive_only = entry.get("receive_only", False)
    if not isinstance(receive_only, bool):
        raise IngestError(f"{where}.receive_only: must be a boolean")
    return {
        "id": _require_int(_require_key(entry, "id", where), f"{where}.id", MAX_APP_ID),
        "send": _resolve(endpoints, _require_key(entry, "send", where), f"{where}.send"),
        "listen": tuple(_resolve(endpoints, ref, f"{where}.listen[{j}]") for j, ref in enumerate(listen)),
        "receive_only": receive_only,
    }


# --- topology ----------------------------------------------------------------


def _endpoint_location(name: str) -> str:
    """Where a topology endpoint is: its name in full up to ``SHOWN_CHARS``,
    and a longer one quoted as ``shown`` quotes it."""
    return f"endpoints.{name if len(name) <= SHOWN_CHARS else shown(name)}"


def parse_topology(text: str):
    """Parse a topology document into ``(endpoints, applications, names)``:
    the endpoints by name, each application as the dict a scenario's
    deploy_application step takes as its arguments, and ``{app_id: display
    name}`` for the applications that give one.  Two names for one endpoint
    (after sentinel normalization) or two applications with one id are
    refused."""
    data = _node(_require_mapping(_load_yaml(text, "topology document"), "topology document"),
                 {"endpoints", "applications"}, "topology")

    endpoints: dict[str, Endpoint] = {}
    first_names: dict[Endpoint, str] = {}
    for name, fields in _require_mapping(data.get("endpoints", {}), "endpoints").items():
        name = _require_str(name, "endpoint name")
        ep = endpoints[name] = parse_endpoint_fields(fields, _endpoint_location(name))
        first = first_names.setdefault(ep, name)
        if first != name:
            raise IngestError(f"{_endpoint_location(name)}: same endpoint as {_endpoint_location(first)}")

    applications: dict[int, dict] = {}
    names: dict[int, str] = {}
    for where, entry in _nodes(data.get("applications", []), _APP_KEYS | {"name"}, "applications"):
        app = _parse_application(entry, where, endpoints)
        if app["id"] in applications:
            raise IngestError(f"{where}: application id {app['id']} declared twice")
        applications[app["id"]] = app
        if entry.get("name") is not None:
            names[app["id"]] = _require_str(entry["name"], f"{where}.name")
    return endpoints, tuple(applications.values()), names


# --- scenario scripts --------------------------------------------------------

# Each action: the operation an expected violation names (send_data's "deny"
# is a refused transfer) and the keys besides "expect".  Verdicts read every
# deployed policy, so deploy_application only checks that the names in its
# "policies" list were declared.
_ACTIONS = {
    "create_endpoint": ("CreateEndpoint", _ENDPOINT_KEYS | {"name"}),
    "create_policy": ("CreatePolicy", {"name", "first", "second", "direction"}),
    "deploy_application": ("DeployApplication", _APP_KEYS | {"policies"}),
    "send_data": ("TransferData", {"from", "to", "endpoint"}),
}
_STEP_KEYS = {action: keys | {"expect"} for action, (_, keys) in _ACTIONS.items()}
# create_policy's direction, 0 or 1 (an equal float too, as Direction() took)
_DIRECTIONS = {0: Direction.INGRESS, 1: Direction.EGRESS}


@dataclass(frozen=True)
class ScenarioScript:
    """Parsed scenario: resolved steps plus the mode the file declared."""

    steps: tuple[ScenarioStep, ...]
    mode: Optional[MatchMode] = None


def _parse_expectation(value, action: str, where: str) -> str:
    ok, violation = ("allow", "deny") if action == "send_data" else ("ok", "violation")
    if value is None or value == ok:
        return "ok"
    if value == violation:
        return f"violation:{_ACTIONS[action][0]}"
    raise IngestError(f"{where}.expect: must be {ok!r} or {violation!r}, got {shown(value)}")


def parse_scenario(text: str, symbols: Optional[Mapping[str, Endpoint]] = None) -> ScenarioScript:
    """Parse a scenario document into resolved, runnable steps.

    Endpoint and policy references resolve against the names declared by
    earlier create_endpoint / create_policy steps, plus any pre-declared
    symbols (e.g. the endpoint names of an already-loaded topology).
    """
    data = _node(_require_mapping(_load_yaml(text, "scenario document"), "scenario document"),
                 {"mode", "steps"}, "scenario")
    mode = data.get("mode")
    if mode is not None:
        # not MatchMode's own refusal: its message would repr a list in full
        if mode not in ("strict", "semantic"):
            raise IngestError(f"scenario: mode must be 'strict' or 'semantic', got {shown(mode)}")
        mode = MatchMode(mode)

    endpoints: dict[str, Endpoint] = dict(symbols or {})
    policies: set[str] = set()  # names only: no step reads a policy back

    def declare(body: Mapping, where: str) -> str:
        name = _require_str(body.get("name"), f"{where}.name")
        if name in endpoints or name in policies:
            raise IngestError(f"{where}: symbol {shown(name)} declared twice")
        return name

    steps = []
    for i, raw in enumerate(_require_list(data.get("steps"), "steps")):
        # a step's one-action test comes before its key check, so steps are not read by _nodes
        where = f"steps[{i}]"
        if len(_require_mapping(raw, where)) != 1:
            raise IngestError(f"{where}: step must have exactly one action key")
        action, body = next(iter(_node(raw, _ACTIONS, where).items()))
        body = _node(_require_mapping(body, f"{where}.{action}"), _STEP_KEYS[action], where)
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
                raise IngestError(f"{where}.direction: must be 0 or 1, got {shown(direction)}")
            first = _resolve(endpoints, body.get("first"), f"{where}.first")
            second = _resolve(endpoints, body.get("second"), f"{where}.second")
            name = declare(body, where)
            policies.add(name)
            args = {"name": name, "first": first, "second": second,
                    "direction": _DIRECTIONS[direction]}
        elif action == "deploy_application":
            for j, ref in enumerate(_require_list(body.get("policies", []), f"{where}.policies")):
                _declared(policies, ref, f"{where}.policies[{j}]", "policy")
            args = _parse_application(body, where, endpoints)
        else:  # send_data
            args = {
                "from": _require_int(body.get("from"), f"{where}.from", MAX_APP_ID),
                "to": _require_int(body.get("to"), f"{where}.to", MAX_APP_ID),
                "endpoint": _resolve(endpoints, body.get("endpoint"), f"{where}.endpoint"),
            }
        steps.append(ScenarioStep(action=action, arguments=args, expected=expected))

    return ScenarioScript(steps=tuple(steps), mode=mode)


# --- assembling systems ------------------------------------------------------


def assemble_state(policies: Sequence[Policy] = (), topology=None):
    """Build a system from ingested parts.

    Registers the endpoints of a ``parse_topology`` result, deploys each of
    its applications, then installs the policies as one PolicySet (of
    structural duplicates, the copy with the lowest origin is the member,
    whatever the input order, and every copy stays listed).  Returns
    (state, the topology's {app_id: display name}).
    """
    state = new_system()
    names: dict[int, str] = {}
    if topology is not None:
        endpoints, applications, names = topology
        for ep in endpoints.values():
            state, _ = create_endpoint(state, ep.cidr, ep.namespace, ep.port, ep.label)
        for app in applications:
            state = deploy_application(state, app["id"], app["send"], app["listen"], app["receive_only"])
    return replace_validated(state, policies=PolicySet(policies)), names
