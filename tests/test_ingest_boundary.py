"""Exact warnings for unknown policy keys, and the keys that fail closed."""

from __future__ import annotations

import copy
import re

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from flowcheck import MalformedYaml, expand_rules, ingest, parse_cilium_policy
from flowcheck.cli import main

# one unknown key at each of the eight policy nodes, two at spec
NOISY_POLICY = """\
apiVersion: cilium.io/v2
kind: CiliumNetworkPolicy
metadata: {name: Noisy, namespace: NS-X}
spec:
  endpointSelector:
    matchLabels: {app: X}
    matchExpressions: []
  ingress:
    - fromCIDRSet:
        - cidr: 10.0.0.0/24
          except: []
      fromEndpoints:
        - matchLabels: {app: Y}
          matchExpressions: []
      toPorts:
        - ports:
            - port: "80"
              protocol: TCP
          rules: {}
      fromEntities: [world]
  egress:
    - toCIDRSet:
        - cidr: 10.1.0.0/16
      toFQDNs: []
  ingressDeny: []
  egressDeny: []
"""


def test_unknown_key_warnings_exact():
    assert parse_cilium_policy(NOISY_POLICY).warnings == (
        "spec: unknown key 'ingressDeny'",
        "spec: unknown key 'egressDeny'",
        "spec.endpointSelector: unknown key 'matchExpressions'",
        "spec.ingress[0]: unknown key 'fromEntities'",
        "spec.ingress[0].fromCIDRSet[0]: unknown key 'except'",
        "spec.ingress[0].fromEndpoints[0]: unknown key 'matchExpressions'",
        "spec.ingress[0].toPorts[0]: unknown key 'rules'",
        "spec.ingress[0].toPorts[0].ports[0]: unknown key 'protocol'",
        "spec.egress[0]: unknown key 'toFQDNs'",
    )


EGRESS_TO_PODS = """\
apiVersion: cilium.io/v2
kind: CiliumNetworkPolicy
metadata: {name: P, namespace: NS-UI}
spec:
  endpointSelector: {matchLabels: {app: WebUI}}
  egress:
    - toEndpoints: [{matchLabels: {app: Command}}]
"""


def test_egress_to_endpoints_alone_is_named_as_not_modeled():
    with pytest.raises(MalformedYaml) as raised:
        parse_cilium_policy(EGRESS_TO_PODS)
    assert str(raised.value) == (
        "spec.egress[0]: 'toEndpoints' (egress to pods) is not modeled; egress needs 'toCIDRSet'"
    )
    beside_a_block = EGRESS_TO_PODS.replace("    - toEndpoints:", "    - toCIDRSet: [{cidr: 10.0.0.0/8}]\n      toEndpoints:")
    assert parse_cilium_policy(beside_a_block).warnings == ("spec.egress[0]: unknown key 'toEndpoints'",)


EGRESS_PEER_VALUES = {
    "toFQDNs": "[{matchName: example.com}]",
    "toEntities": "[world]",
    "toServices": "[{k8sService: {serviceName: db, namespace: NS-DB}}]",
    "toCIDR": "[10.0.0.0/8]",
    "toGroups": "[{aws: {securityGroupsIds: [sg-1]}}]",
    "toNodes": "[{matchLabels: {role: worker}}]",
}


@pytest.mark.parametrize("key", sorted(EGRESS_PEER_VALUES))
def test_another_unmodeled_egress_peer_alone_is_named(key):
    alone = EGRESS_TO_PODS.replace("toEndpoints: [{matchLabels: {app: Command}}]", f"{key}: {EGRESS_PEER_VALUES[key]}")
    with pytest.raises(MalformedYaml) as raised:
        parse_cilium_policy(alone)
    assert str(raised.value) == (
        f"spec.egress[0]: {key!r} ({ingest._EGRESS_PEERS[key]}) is not modeled; egress needs 'toCIDRSet'"
    )
    beside_a_block = alone.replace(f"    - {key}:", f"    - toCIDRSet: [{{cidr: 10.0.0.0/8}}]\n      {key}:")
    assert parse_cilium_policy(beside_a_block).warnings == (f"spec.egress[0]: unknown key {key!r}",)


def test_every_unmodeled_egress_peer_has_a_case():
    assert set(ingest._EGRESS_PEERS) == {"toEndpoints", *EGRESS_PEER_VALUES}


def test_several_unmodeled_egress_peers_are_all_named():
    text = EGRESS_TO_PODS + "      toFQDNs: [{matchName: example.com}]\n"
    with pytest.raises(MalformedYaml) as raised:
        parse_cilium_policy(text)
    assert str(raised.value) == (
        "spec.egress[0]: 'toEndpoints' (egress to pods), 'toFQDNs' (egress to DNS names) are not modeled;"
        " egress needs 'toCIDRSet'"
    )
    with pytest.raises(MalformedYaml, match=r"^spec\.egress\[0\]: missing 'toCIDRSet'$"):
        parse_cilium_policy(EGRESS_TO_PODS.replace("toEndpoints: [{matchLabels: {app: Command}}]", "toPorts: []"))


PLAIN_POLICY = {
    "apiVersion": "cilium.io/v2",
    "kind": "CiliumNetworkPolicy",
    "metadata": {"name": "Plain", "namespace": "NS-X"},
    "spec": {
        "endpointSelector": {"matchLabels": {"app": "X"}},
        "ingress": [{
            "fromCIDRSet": [{"cidr": "10.0.0.0/24"}],
            "fromEndpoints": [{"matchLabels": {"app": "Y"}}],
            "toPorts": [{"ports": [{"port": "80"}]}],
        }],
        "egress": [{"toCIDRSet": [{"cidr": "10.1.0.0/16"}], "toPorts": [{"ports": [{"port": "53"}]}]}],
    },
}

SELECT_TIER = [{"key": "tier", "operator": "In", "values": ["a"]}]

# (node, key, value): each narrows what the document allows, so ignoring
# it with a warning would widen what is allowed
WIDENING_KEYS = [
    ("spec", "ingressDeny", [{"fromCIDRSet": [{"cidr": "10.0.0.0/28"}]}]),
    ("spec", "egressDeny", [{"toCIDRSet": [{"cidr": "10.1.0.0/24"}]}]),
    ("spec.endpointSelector", "matchExpressions", SELECT_TIER),
    ("spec.ingress[0]", "fromRequires", [{"matchLabels": {"env": "prod"}}]),
    ("spec.ingress[0]", "icmps", [{"fields": [{"type": 8, "family": "IPv4"}]}]),
    ("spec.ingress[0].fromCIDRSet[0]", "except", ["10.0.0.0/28"]),
    ("spec.ingress[0].fromEndpoints[0]", "matchExpressions", SELECT_TIER),
    ("spec.ingress[0].toPorts[0]", "rules", {"http": [{"method": "GET"}]}),
    ("spec.ingress[0].toPorts[0]", "serverNames", ["only.example.com"]),
    ("spec.ingress[0].toPorts[0]", "listener",
     {"envoyConfig": {"kind": "CiliumEnvoyConfig", "name": "f"}, "name": "l7"}),
    ("spec.ingress[0].toPorts[0].ports[0]", "protocol", "UDP"),
    ("spec.egress[0]", "toRequires", [{"matchLabels": {"env": "prod"}}]),
    ("spec.egress[0]", "authentication", {"mode": "required"}),
    ("spec.egress[0].toPorts[0].ports[0]", "protocol", "SCTP"),
]


def _with_key(where: str, key: str, value) -> str:
    doc = copy.deepcopy(PLAIN_POLICY)
    node = doc
    for name, index in re.findall(r"(\w+)(?:\[(\d+)\])?", where):
        node = node[name] if not index else node[name][int(index)]
    node[key] = value
    return yaml.safe_dump(doc, sort_keys=False)


@pytest.mark.parametrize(
    "where, key, value", WIDENING_KEYS, ids=[f"{where}.{key}" for where, key, _ in WIDENING_KEYS]
)
def test_widening_keys_fail_closed(where, key, value, tmp_path, capsys):
    text = _with_key(where, key, value)
    with pytest.raises(MalformedYaml, match=re.escape(f"{where}: unsupported key {key!r}")):
        parse_cilium_policy(text)
    path = tmp_path / "policy.yaml"
    path.write_text(text, encoding="utf-8")
    assert main(["explain", "--policies", str(path), "--", "label=Y", "label=X"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith(f"error: {path}: {where}: unsupported key {key!r}")


def test_every_widening_key_has_a_fail_closed_case():
    # a top-level specs list has its own case, test_a_top_level_specs_list_fails_closed,
    # since _with_key places a key below the document only
    assert set(ingest._WIDENING) | {"protocol"} == {key for _, key, _ in WIDENING_KEYS} | {"specs"}


# every node of PLAIN_POLICY whose keys ingest checks, below the document
POLICY_NODES = [
    "spec", "spec.endpointSelector",
    "spec.ingress[0]", "spec.ingress[0].fromCIDRSet[0]", "spec.ingress[0].fromEndpoints[0]",
    "spec.ingress[0].toPorts[0]", "spec.ingress[0].toPorts[0].ports[0]",
    "spec.egress[0]", "spec.egress[0].toCIDRSet[0]", "spec.egress[0].toPorts[0]",
    "spec.egress[0].toPorts[0].ports[0]",
]
MODELED_KEYS = {"endpointSelector", "ingress", "egress", "matchLabels", "fromCIDRSet", "fromEndpoints",
                "toPorts", "toCIDRSet", "ports", "port", "cidr"}

# real Cilium keys that flowcheck does not model and whose omission can only
# narrow what a rule allows
NARROWING_KEYS = """fromEntities fromNodes fromCIDR toEndpoints toEntities toServices toFQDNs toNodes
    endPort terminatingTLS originatingTLS enableDefaultDeny description labels""".split()

YAML_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**63), 2**63) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_an_unmodeled_narrowing_key_only_warns(data):
    where = data.draw(st.sampled_from(POLICY_NODES))
    fresh = st.from_regex(r"[a-zA-Z][a-zA-Z0-9]{0,11}", fullmatch=True)
    key = data.draw((st.sampled_from(NARROWING_KEYS) | fresh).filter(
        lambda key: key not in ingest._WIDENING | MODELED_KEYS | {"protocol"}
    ))
    doc = parse_cilium_policy(_with_key(where, key, data.draw(YAML_VALUES)))
    assert doc.warnings == (f"{where}: unknown key {key!r}",)
    plain = parse_cilium_policy(yaml.safe_dump(PLAIN_POLICY))
    assert plain.warnings == ()
    assert [(p, p.origin) for p in expand_rules(doc)] == [(p, p.origin) for p in expand_rules(plain)]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_a_widening_key_with_a_value_is_refused(data):
    where = data.draw(st.sampled_from(POLICY_NODES))
    key = data.draw(st.sampled_from(sorted(ingest._WIDENING | {"protocol"})))
    value = data.draw(YAML_VALUES.filter(
        lambda value: value and (key != "protocol" or value not in ("TCP", "ANY"))
    ))
    with pytest.raises(MalformedYaml) as raised:
        parse_cilium_policy(_with_key(where, key, value))
    assert str(raised.value).startswith(f"{where}: unsupported key {key!r}")


@pytest.mark.parametrize("value", ["TCP", "ANY", ""])
def test_tcp_any_and_empty_protocols_still_warn(value):
    where = "spec.ingress[0].toPorts[0].ports[0]"
    doc = parse_cilium_policy(_with_key(where, "protocol", value))
    assert doc.warnings == (f"{where}: unknown key 'protocol'",)


# selectors that hold only matchExpressions read as "select everything"
# when ignored, and a UDP port as one that TCP reaches
ONLY_EXPRESSIONS_OVER_UDP = """\
apiVersion: cilium.io/v2
kind: CiliumNetworkPolicy
metadata: {name: P, namespace: NS-UI}
spec:
  endpointSelector:
    matchExpressions: [{key: app, operator: In, values: [WebUI]}]
  ingress:
    - fromEndpoints:
        - matchExpressions: [{key: app, operator: In, values: [Client]}]
      toPorts:
        - ports:
            - port: "443"
              protocol: UDP
"""


def test_expression_only_selectors_are_not_read_as_select_all(tmp_path, capsys):
    path = tmp_path / "policy.yaml"
    path.write_text(ONLY_EXPRESSIONS_OVER_UDP, encoding="utf-8")
    code = main(["explain", "--mode", "semantic", "--policies", str(path), "--",
                 "namespace=NS-UI,label=Anything", "namespace=NS-UI,label=Other,port=443"])
    captured = capsys.readouterr()
    assert code == 2 and "ALLOWED" not in captured.out
    assert captured.err == (
        f"error: {path}: spec.endpointSelector: unsupported key 'matchExpressions': "
        "ignoring it would widen what is allowed\n"
    )


# an ingress rule admitting 10.28.1.2/32 to WebUI on 443, checked with
# explain in semantic mode
WEBUI_POLICY = """\
apiVersion: cilium.io/v2
kind: CiliumNetworkPolicy
metadata: {name: P, namespace: NS-UI}
spec:
  endpointSelector:
    matchLabels: {app: WebUI}
  ingress:
    - fromCIDRSet: [{cidr: 10.28.1.2/32}]
      toPorts: [{ports: [{port: "443"}]}]
"""


def _explain_webui(text, tmp_path, capsys):
    path = tmp_path / "policy.yaml"
    path.write_text(text, encoding="utf-8")
    code = main(["explain", "--mode", "semantic", "--policies", str(path), "--",
                 "cidr=10.28.1.2/32", "namespace=NS-UI,label=WebUI,port=443"])
    return code, capsys.readouterr(), path


def test_an_icmp_only_rule_is_not_read_as_every_port(tmp_path, capsys):
    # WIDENING_KEYS puts icmps beside toPorts; here it is the rule's only
    # narrowing, so ignoring it would allow every port
    text = WEBUI_POLICY.replace('      toPorts: [{ports: [{port: "443"}]}]\n', "")
    text += "      icmps: [{fields: [{type: 8, family: IPv4}]}]\n"
    code, captured, path = _explain_webui(text, tmp_path, capsys)
    assert code == 2 and "ALLOWED" not in captured.out
    assert captured.err == (
        f"error: {path}: spec.ingress[0]: unsupported key 'icmps': ignoring it would widen what is allowed\n"
    )


def test_a_top_level_specs_list_fails_closed(tmp_path, capsys):
    # a second rule list, here one that denies the flow the spec allows
    text = WEBUI_POLICY + """\
specs:
  - endpointSelector: {matchLabels: {app: WebUI}}
    ingressDeny: [{fromCIDRSet: [{cidr: 10.28.1.2/32}]}]
"""
    code, captured, path = _explain_webui(text, tmp_path, capsys)
    assert code == 2 and "ALLOWED" not in captured.out
    assert captured.err == (
        f"error: {path}: policy document: unsupported key 'specs': ignoring it would widen what is allowed\n"
    )


def test_unknown_top_level_keys_warn_first(tmp_path, capsys):
    status = "status: {nodes: {node-1: {enforcing: true}}}\n"
    doc = parse_cilium_policy(WEBUI_POLICY + status)
    assert doc.warnings == ("policy document: unknown key 'status'",)
    assert expand_rules(doc) == expand_rules(parse_cilium_policy(WEBUI_POLICY))
    assert parse_cilium_policy(NOISY_POLICY + status).warnings == (
        "policy document: unknown key 'status'",
        *parse_cilium_policy(NOISY_POLICY).warnings,
    )
    code, captured, path = _explain_webui(WEBUI_POLICY + status, tmp_path, capsys)
    assert code == 0 and captured.out.endswith("ALLOWED\n")
    assert captured.err == f"warning: {path}: policy document: unknown key 'status'\n"
