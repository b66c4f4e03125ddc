"""Parsing the policy YAML subset, topology and scenario documents."""

from __future__ import annotations

import pytest
import yaml

from flowcheck import (
    Cidr,
    Direction,
    DuplicateSymbol,
    EmptyExpansion,
    Endpoint,
    InvalidCidrString,
    InvalidPort,
    MalformedYaml,
    MatchMode,
    Namespace,
    Policy,
    UnknownEndpointReference,
    UnsupportedApiVersion,
    UnsupportedKind,
    expand_rules,
    parse_cilium_policy,
    parse_scenario,
    parse_topology,
    policies_from_text,
    policies_to_text,
)
from flowcheck.cli import main


def declared_endpoint(script, name):
    """The endpoint a scenario's create_endpoint step declared under name."""
    for step in script.steps:
        args = step.arguments
        if step.action == "create_endpoint" and args["name"] == name:
            return Endpoint(args["cidr"], args["namespace"], args["port"], args["label"])
    raise KeyError(name)


class TestParseCiliumPolicy:
    def test_ui_policy_document(self, ui_policy_text):
        doc = parse_cilium_policy(ui_policy_text)
        assert doc.name == "UIPolicy"
        assert doc.namespace == "NS-UI"
        assert doc.endpoint_selector == {"app": "WebUI"}
        assert len(doc.ingress_rules) == 1
        rule = doc.ingress_rules[0]
        assert rule.from_cidr_set == (Cidr(10, 28, 1, 2, 30),)
        assert rule.from_endpoints == ()
        assert rule.to_ports == (443,)
        assert doc.egress_rules == ()
        assert doc.warnings == ()

    def test_command_policy_document(self, command_policy_text):
        doc = parse_cilium_policy(command_policy_text)
        assert doc.name == "Command-Policy"
        assert doc.namespace == "NS-Command"
        assert len(doc.ingress_rules) == 1
        assert doc.ingress_rules[0].from_endpoints == (
            {"app": "WebUI", "io.kubernetes.pod.namespace": "NS-UI"},
        )
        assert doc.ingress_rules[0].to_ports == ()
        assert len(doc.egress_rules) == 1
        assert doc.egress_rules[0].to_cidr_set == (Cidr(10, 29, 1, 23, 28),)
        assert doc.egress_rules[0].to_ports == (5443,)
        assert doc.warnings == ()

    def test_wrong_api_version(self, ui_policy_text):
        with pytest.raises(UnsupportedApiVersion):
            parse_cilium_policy(ui_policy_text.replace("cilium.io/v2", "cilium.io/v1"))

    def test_wrong_kind(self, ui_policy_text):
        with pytest.raises(UnsupportedKind):
            parse_cilium_policy(
                ui_policy_text.replace("CiliumNetworkPolicy", "NetworkPolicy")
            )

    def test_invalid_cidr(self, ui_policy_text):
        with pytest.raises(InvalidCidrString):
            parse_cilium_policy(ui_policy_text.replace("10.28.1.2/30", "10.28.1.2/33"))

    @pytest.mark.parametrize("bad_port", ['"0"', '"70000"', '"https"'])
    def test_invalid_port(self, ui_policy_text, bad_port):
        with pytest.raises(InvalidPort):
            parse_cilium_policy(ui_policy_text.replace('"443"', bad_port))

    def test_not_yaml(self):
        with pytest.raises(MalformedYaml):
            parse_cilium_policy("{unbalanced: [")

    def test_unknown_spec_keys_warn(self, ui_policy_text):
        doc = parse_cilium_policy(ui_policy_text + "  egressDeny: []\n")
        assert any("egressDeny" in w for w in doc.warnings)

    def test_unknown_port_keys_warn(self, ui_policy_text):
        text = ui_policy_text.replace('- port: "443"', '- port: "443"\n              protocol: TCP')
        doc = parse_cilium_policy(text)
        assert any("protocol" in w for w in doc.warnings)
        assert doc.ingress_rules[0].to_ports == (443,)

    def test_ingress_rule_without_sources_rejected(self):
        text = """
apiVersion: cilium.io/v2
kind: CiliumNetworkPolicy
metadata: {name: P, namespace: NS}
spec:
  endpointSelector: {matchLabels: {app: A}}
  ingress:
    - toPorts:
        - ports:
            - port: "80"
"""
        with pytest.raises(MalformedYaml):
            parse_cilium_policy(text)

    def test_duplicate_mapping_keys_rejected(self):
        text = """
apiVersion: cilium.io/v2
kind: CiliumNetworkPolicy
metadata: {name: P, namespace: NS}
spec:
  endpointSelector: {matchLabels: {app: A}}
  endpointSelector: {matchLabels: {app: B}}
"""
        with pytest.raises(MalformedYaml):
            parse_cilium_policy(text)


class TestExpandRules:
    def test_ui_policy_expansion(self, ui_policy_text):
        policies = expand_rules(parse_cilium_policy(ui_policy_text))
        assert policies == [
            Policy(
                pair=(
                    Endpoint(namespace=Namespace("NS-UI", 1), port=443, label="WebUI"),
                    Endpoint(cidr=Cidr(10, 28, 1, 2, 30)),
                ),
                direction=Direction.INGRESS,
            )
        ]
        assert policies[0].origin.document == "UIPolicy"
        assert policies[0].origin.rule_index == 0

    def test_command_policy_expansion(self, command_policy_text):
        policies = expand_rules(parse_cilium_policy(command_policy_text))
        assert len(policies) == 2
        ingress, egress = policies
        assert ingress.direction is Direction.INGRESS
        assert ingress.pair == (
            Endpoint(namespace=Namespace("NS-Command", 1), label="Command"),
            Endpoint(namespace=Namespace("NS-UI", 1), label="WebUI"),
        )
        assert egress.direction is Direction.EGRESS
        assert egress.pair == (
            Endpoint(namespace=Namespace("NS-Command", 1), label="Command"),
            Endpoint(cidr=Cidr(10, 29, 1, 23, 28), port=5443),
        )
        assert [p.origin.rule_index for p in policies] == [0, 1]

    def test_cartesian_expansion(self):
        text = """
apiVersion: cilium.io/v2
kind: CiliumNetworkPolicy
metadata: {name: Multi, namespace: NS-X}
spec:
  endpointSelector: {matchLabels: {app: X}}
  ingress:
    - fromCIDRSet:
        - cidr: 10.0.0.0/24
        - cidr: 10.0.1.0/24
      toPorts:
        - ports:
            - port: "80"
            - port: "443"
"""
        policies = expand_rules(parse_cilium_policy(text))
        assert len(policies) == 4
        ports = sorted(p.pair[0].port for p in policies)
        assert ports == [80, 80, 443, 443]

    def test_no_rules_empty_expansion(self):
        text = """
apiVersion: cilium.io/v2
kind: CiliumNetworkPolicy
metadata: {name: Empty, namespace: NS-X}
spec:
  endpointSelector: {matchLabels: {app: X}}
"""
        with pytest.raises(EmptyExpansion):
            expand_rules(parse_cilium_policy(text))

    def test_extra_match_labels_lossless(self):
        text = """
apiVersion: cilium.io/v2
kind: CiliumNetworkPolicy
metadata: {name: Extra, namespace: NS-X}
spec:
  endpointSelector:
    matchLabels:
      app: X
      tier: backend
      zone: a
  ingress:
    - fromCIDRSet:
        - cidr: 10.0.0.0/24
"""
        policies = expand_rules(parse_cilium_policy(text))
        assert policies[0].pair[0].label == "X,tier=backend,zone=a"

    def test_from_endpoints_defaults_to_doc_namespace(self):
        text = """
apiVersion: cilium.io/v2
kind: CiliumNetworkPolicy
metadata: {name: SameNs, namespace: NS-X}
spec:
  endpointSelector: {matchLabels: {app: X}}
  ingress:
    - fromEndpoints:
        - matchLabels: {app: Y}
"""
        policies = expand_rules(parse_cilium_policy(text))
        assert policies[0].pair[1] == Endpoint(namespace=Namespace("NS-X", 1), label="Y")

    def test_round_trip_serialization(self, ui_policy_text, command_policy_text):
        policies = expand_rules(parse_cilium_policy(ui_policy_text))
        policies += expand_rules(parse_cilium_policy(command_policy_text))
        assert policies_from_text(policies_to_text(policies)) == policies

    def test_expansion_count_formula(self, command_policy_text):
        doc = parse_cilium_policy(command_policy_text)
        expected = sum(
            (len(r.from_cidr_set) + len(r.from_endpoints)) * max(1, len(r.to_ports))
            for r in doc.ingress_rules
        ) + sum(len(r.to_cidr_set) * max(1, len(r.to_ports)) for r in doc.egress_rules)
        assert len(expand_rules(doc)) == expected


class TestParseTopology:
    def test_ics_topology(self, topology_text):
        endpoints, records = parse_topology(topology_text)
        assert len(endpoints) == 9
        assert len(records) == 8
        by_id = {r.app_id: r for r in records}
        assert by_id[1].name == "Client"
        assert by_id[1].send == Endpoint(cidr=Cidr(10, 28, 1, 2, 30))
        assert by_id[1].listen == ()
        assert by_id[2].listen == (
            Endpoint(namespace=Namespace("NS-UI", 1), port=443, label="WebUI"),
        )
        assert by_id[8].receive_only is True

    def test_unknown_endpoint_reference(self, topology_text):
        with pytest.raises(UnknownEndpointReference):
            parse_topology(topology_text.replace("send: client", "send: clientX"))

    def test_duplicate_application_id(self, topology_text):
        with pytest.raises(DuplicateSymbol):
            parse_topology(topology_text.replace("id: 8", "id: 7"))

    def test_unknown_keys_rejected(self):
        with pytest.raises(MalformedYaml):
            parse_topology("endpoints: {}\napplications: []\nextras: {}\n")

    MERGED = """
endpoints:
  a: &base {namespace: NS-UI, port: 443, label: A}
  b: {<<: *base, label: B}
  c: {<<: [{cidr: 10.0.0.1/32, port: 80}, *base]}
applications:
  - &app {id: 1, send: a, listen: [a]}
  - {<<: *app, id: 2, send: b}
"""

    def test_merge_keys_parse_as_flattened(self):
        flattened = """
endpoints:
  a: {namespace: NS-UI, port: 443, label: A}
  b: {namespace: NS-UI, port: 443, label: B}
  c: {cidr: 10.0.0.1/32, port: 80, namespace: NS-UI, label: A}
applications:
  - {id: 1, send: a, listen: [a]}
  - {id: 2, send: b, listen: [a]}
"""
        assert parse_topology(self.MERGED) == parse_topology(flattened)

    def test_explicit_duplicate_beside_merge_rejected(self):
        with pytest.raises(MalformedYaml, match="duplicate mapping key 'label'"):
            parse_topology(self.MERGED.replace("label: B}", "label: B, label: C}"))

    def test_merge_of_scalar_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "topology.yaml"
        path.write_text("endpoints:\n  a: {<<: 5}\n", encoding="utf-8")
        assert main(["reachability", "--topology", str(path)]) == 2
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if line.startswith("error:")] == [err.splitlines()[0]]
        assert "Traceback" not in err


class TestParseScenario:
    def test_client_flow_steps(self, scenario_texts):
        script = parse_scenario(scenario_texts["client_to_webui"])
        assert script.mode is MatchMode.STRICT
        assert len(script.steps) == 6
        actions = [s.action for s in script.steps]
        assert actions == [
            "create_endpoint",
            "create_endpoint",
            "create_policy",
            "deploy_application",
            "deploy_application",
            "send_data",
        ]
        assert script.steps[-1].expected.ok
        # sentinels normalized at parse time
        ep1 = declared_endpoint(script, "ep1")
        assert ep1 == Endpoint(cidr=Cidr(10, 28, 1, 2, 30))
        ep2 = declared_endpoint(script, "ep2")
        assert ep2 == Endpoint(namespace=Namespace("NS-UI", 1), port=443, label="WebUI")

    def test_violation_scenarios_expect_deny(self, scenario_texts):
        for name in ("client_to_webui_denied", "command_to_asset_denied"):
            script = parse_scenario(scenario_texts[name])
            last = script.steps[-1]
            assert last.action == "send_data"
            assert last.expected.violation_of == "TransferData"

    def test_unknown_endpoint_reference(self, scenario_texts):
        text = scenario_texts["client_to_webui"].replace("endpoint: ep2, expect", "endpoint: ep9, expect")
        with pytest.raises(UnknownEndpointReference):
            parse_scenario(text)

    def test_duplicate_symbol(self, scenario_texts):
        text = scenario_texts["client_to_webui"].replace("name: ep2,", "name: ep1,")
        with pytest.raises(DuplicateSymbol):
            parse_scenario(text)

    def test_direction_must_be_0_or_1(self, scenario_texts):
        text = scenario_texts["client_to_webui"].replace("direction: 0", "direction: 2")
        with pytest.raises(MalformedYaml):
            parse_scenario(text)
        text = scenario_texts["client_to_webui"].replace("direction: 0", "direction: ingress")
        with pytest.raises(MalformedYaml):
            parse_scenario(text)

    def test_port_zero_is_sentinel_here(self):
        script = parse_scenario(
            "steps:\n  - create_endpoint: {name: e, namespace: NS-A, port: 0}\n"
        )
        assert declared_endpoint(script, "e") == Endpoint(namespace=Namespace("NS-A", 1))

    def test_all_sentinel_endpoint_rejected(self):
        text = 'steps:\n  - create_endpoint: {name: e, cidr: 0.0.0.0/0, namespace: "-", port: 0, label: ""}\n'
        with pytest.raises(MalformedYaml):
            parse_scenario(text)

    def test_bad_expect_value(self, scenario_texts):
        text = scenario_texts["client_to_webui"].replace("expect: allow", "expect: maybe")
        with pytest.raises(MalformedYaml):
            parse_scenario(text)

    def test_namespace_with_explicit_id(self):
        script = parse_scenario(
            "steps:\n  - create_endpoint: {name: e, namespace: {name: NS-A, id: 4}}\n"
        )
        assert declared_endpoint(script, "e").namespace == Namespace("NS-A", 4)

    def test_concrete_endpoints_collects_usage(self, scenario_texts):
        script = parse_scenario(scenario_texts["client_to_webui"])
        used = script.concrete_endpoints()
        assert declared_endpoint(script, "ep1") in used
        assert declared_endpoint(script, "ep2") in used

    def test_mode_optional(self):
        script = parse_scenario("steps: []\n")
        assert script.mode is None
        assert script.steps == ()

    def test_predeclared_symbols_resolve(self, topology_text):
        endpoints, _ = parse_topology(topology_text)
        text = "steps:\n  - send_data: {from: 1, to: 2, endpoint: webui_https}\n"
        script = parse_scenario(text, symbols=endpoints)
        assert script.steps[0].arguments["endpoint"] == endpoints["webui_https"]

    def test_predeclared_symbol_cannot_be_redeclared(self, topology_text):
        endpoints, _ = parse_topology(topology_text)
        text = "steps:\n  - create_endpoint: {name: client, label: clash}\n"
        with pytest.raises(DuplicateSymbol):
            parse_scenario(text, symbols=endpoints)


def test_listing_yaml_parses_as_expected_shape(ui_policy_text):
    # plain yaml view of the same document, as a sanity cross-check
    raw = yaml.safe_load(ui_policy_text)
    assert raw["spec"]["ingress"][0]["fromCIDRSet"][0]["cidr"] == "10.28.1.2/30"
    assert raw["spec"]["ingress"][0]["toPorts"][0]["ports"][0]["port"] == "443"
