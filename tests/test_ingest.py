"""Parsing the policy YAML subset, topology and scenario documents."""

from __future__ import annotations

import re

import pytest
import yaml

from flowcheck import (
    Cidr,
    Direction,
    Endpoint,
    FlowcheckError,
    IngestError,
    MatchMode,
    Namespace,
    Policy,
    Rule,
    SystemState,
    evaluate,
    expand_rules,
    parse_cilium_policy,
    parse_scenario,
    parse_topology,
)
from flowcheck.cli import main


WORLD_POLICY = """
apiVersion: cilium.io/v2
kind: CiliumNetworkPolicy
metadata: {name: World, namespace: NS-UI}
spec:
  endpointSelector: {matchLabels: {app: WebUI}}
  ingress:
    - fromCIDRSet:
        - cidr: 0.0.0.0/0
      toPorts:
        - ports:
            - port: "443"
  egress:
    - toCIDRSet:
        - cidr: 0.0.0.0/0
"""


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
        assert doc.ingress_rules == (Rule(peers=(Endpoint(cidr=Cidr(10, 28, 1, 2, 30)),), ports=(443,)),)
        assert doc.egress_rules == ()
        assert doc.warnings == ()

    def test_command_policy_document(self, command_policy_text):
        doc = parse_cilium_policy(command_policy_text)
        assert doc.name == "Command-Policy"
        assert doc.namespace == "NS-Command"
        # the selector's namespace label names the peer's namespace
        assert doc.ingress_rules == (
            Rule(peers=(Endpoint(namespace=Namespace("NS-UI", 1), label="WebUI"),), ports=()),
        )
        assert doc.egress_rules == (Rule(peers=(Endpoint(cidr=Cidr(10, 29, 1, 23, 28)),), ports=(5443,)),)
        assert doc.warnings == ()

    def test_wrong_api_version(self, ui_policy_text):
        with pytest.raises(IngestError, match=r"^apiVersion must be 'cilium\.io/v2', got 'cilium\.io/v1'$"):
            parse_cilium_policy(ui_policy_text.replace("cilium.io/v2", "cilium.io/v1"))

    def test_wrong_kind(self, ui_policy_text):
        with pytest.raises(IngestError, match="^kind must be 'CiliumNetworkPolicy', got 'NetworkPolicy'$"):
            parse_cilium_policy(
                ui_policy_text.replace("CiliumNetworkPolicy", "NetworkPolicy")
            )

    def test_invalid_cidr(self, ui_policy_text):
        with pytest.raises(IngestError, match=r"^prefix length out of range in '10\.28\.1\.2/33'$"):
            parse_cilium_policy(ui_policy_text.replace("10.28.1.2/30", "10.28.1.2/33"))

    @pytest.mark.parametrize("bad_port", ['"0"', '"70000"', '"https"'])
    def test_invalid_port(self, ui_policy_text, bad_port):
        problem = {'"0"': "0 out of range 1-65535", '"70000"': "70000 out of range 1-65535",
                   '"https"': "'https' is not a decimal number"}[bad_port]
        with pytest.raises(IngestError, match=f"^{re.escape(f'spec.ingress[0].toPorts[0].ports[0]: port {problem}')}$"):
            parse_cilium_policy(ui_policy_text.replace('"443"', bad_port))

    def test_not_yaml(self):
        with pytest.raises(IngestError, match=r"^policy document: while parsing a flow node\n"):
            parse_cilium_policy("{unbalanced: [")

    def test_unknown_spec_keys_warn(self, ui_policy_text):
        doc = parse_cilium_policy(ui_policy_text + "  egressDeny: []\n")
        assert any("egressDeny" in w for w in doc.warnings)

    def test_unknown_port_keys_warn(self, ui_policy_text):
        text = ui_policy_text.replace('- port: "443"', '- port: "443"\n              protocol: TCP')
        doc = parse_cilium_policy(text)
        assert any("protocol" in w for w in doc.warnings)
        assert doc.ingress_rules[0].ports == (443,)

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
        with pytest.raises(IngestError, match=r"^spec\.ingress\[0\]: needs at least one of fromCIDRSet, fromEndpoints$"):
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
        with pytest.raises(IngestError, match=r"^policy document: duplicate mapping key 'endpointSelector'\n"):
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
        with pytest.raises(IngestError, match="^policy document 'Empty' produced no policies$"):
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

    @pytest.mark.parametrize("mode", [MatchMode.STRICT, MatchMode.SEMANTIC])
    def test_world_block_still_needs_an_address(self, mode):
        # 0.0.0.0/0 is every address, not "no address needed": it expands
        # to its /1 halves, which a sender or receiver without a CIDR fails
        policies = expand_rules(parse_cilium_policy(WORLD_POLICY))
        halves = [Cidr(0, 0, 0, 0, 1), Cidr(128, 0, 0, 0, 1)]
        assert [p.pair[1] for p in policies] == [
            Endpoint(cidr=half) for half in halves
        ] * 2
        webui = Endpoint(namespace=Namespace("NS-UI", 1), port=443, label="WebUI")
        webui_sender = Endpoint(namespace=Namespace("NS-UI", 1), label="WebUI")
        state = SystemState(policies=policies)
        no_address = (Endpoint(namespace=Namespace("NS-Other", 1), label="Anything"),
                      Endpoint(cidr=Cidr(0, 0, 0, 0, 0)))  # the "unconstrained" sentinel
        for peer in no_address:
            assert not evaluate(state.policies, peer, webui, mode).allowed
            assert not evaluate(state.policies, webui_sender, peer, mode).allowed
        hosts = [Endpoint(cidr=Cidr(10, 0, 0, 1, 32)), Endpoint(cidr=Cidr(200, 1, 2, 3, 32))]
        if mode is MatchMode.SEMANTIC:
            for host in hosts:
                assert evaluate(state.policies, host, webui, mode).allowed
                assert evaluate(state.policies, webui_sender, host, mode).allowed
        else:
            # strict compares endpoints structurally: only a half itself matches
            for host in hosts:
                assert not evaluate(state.policies, host, webui, mode).allowed
            for half in halves:
                assert evaluate(state.policies, Endpoint(cidr=half), webui, mode).allowed
                assert evaluate(state.policies, webui_sender, Endpoint(cidr=half), mode).allowed

    def test_expansion_count_formula(self, command_policy_text):
        doc = parse_cilium_policy(command_policy_text)
        expected = sum(len(r.peers) * max(1, len(r.ports)) for r in doc.ingress_rules + doc.egress_rules)
        assert len(expand_rules(doc)) == expected


class TestParseTopology:
    def test_ics_topology(self, topology_text):
        endpoints, applications, names = parse_topology(topology_text)
        assert len(endpoints) == 9
        assert len(applications) == 8
        by_id = {app["id"]: app for app in applications}
        assert names[1] == "Client"
        assert by_id[1]["send"] == Endpoint(cidr=Cidr(10, 28, 1, 2, 30))
        assert by_id[1]["listen"] == ()
        assert by_id[2]["listen"] == (
            Endpoint(namespace=Namespace("NS-UI", 1), port=443, label="WebUI"),
        )
        assert by_id[8]["receive_only"] is True

    def test_application_is_a_deploy_steps_arguments(self):
        # one entry, read as a topology application and as a scenario step
        entry = "{id: 2, send: webui, listen: [webui_https], receive_only: true}"
        endpoints, (application,), _ = parse_topology(
            "endpoints:\n  webui: {namespace: NS-UI, label: WebUI}\n"
            f"  webui_https: {{namespace: NS-UI, port: 443, label: WebUI}}\napplications: [{entry}]\n"
        )
        script = parse_scenario(f"steps:\n  - deploy_application: {entry}\n", symbols=endpoints)
        assert application == script.steps[0].arguments

    def test_unknown_endpoint_reference(self, topology_text):
        with pytest.raises(IngestError, match=r"^applications\[0\]\.send: undeclared endpoint 'clientX'$"):
            parse_topology(topology_text.replace("send: client", "send: clientX"))

    def test_duplicate_application_id(self, topology_text):
        with pytest.raises(IngestError, match=r"^applications\[7\]: application id 7 declared twice$"):
            parse_topology(topology_text.replace("id: 8", "id: 7"))

    def test_unknown_keys_rejected(self):
        with pytest.raises(IngestError, match=r"^topology: unknown keys \['extras'\]$"):
            parse_topology("endpoints: {}\napplications: []\nextras: {}\n")

    def test_two_names_for_one_endpoint_rejected(self):
        # sentinel fields normalize away, so these are the same endpoint
        text = "endpoints:\n  a: {cidr: 10.0.0.1/32, port: 0}\n  b: {cidr: 10.0.0.1/32, namespace: '-'}\n"
        with pytest.raises(IngestError, match=r"^endpoints\.b: same endpoint as endpoints\.a$"):
            parse_topology(text)

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
        with pytest.raises(IngestError, match="duplicate mapping key 'label'"):
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
        assert script.steps[-1].expected == "ok"
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
            assert last.expected == "violation:TransferData"

    def test_unknown_endpoint_reference(self, scenario_texts):
        text = scenario_texts["client_to_webui"].replace("endpoint: ep2, expect", "endpoint: ep9, expect")
        with pytest.raises(IngestError, match=r"^steps\[5\]\.endpoint: undeclared endpoint 'ep9'$"):
            parse_scenario(text)

    def test_duplicate_symbol(self, scenario_texts):
        text = scenario_texts["client_to_webui"].replace("name: ep2,", "name: ep1,")
        with pytest.raises(IngestError, match=r"^steps\[1\]: symbol 'ep1' declared twice$"):
            parse_scenario(text)

    def test_direction_must_be_0_or_1(self, scenario_texts):
        text = scenario_texts["client_to_webui"].replace("direction: 0", "direction: 2")
        with pytest.raises(IngestError, match=r"^steps\[2\]\.direction: must be 0 or 1, got 2$"):
            parse_scenario(text)
        text = scenario_texts["client_to_webui"].replace("direction: 0", "direction: ingress")
        with pytest.raises(IngestError, match=r"^steps\[2\]\.direction: must be 0 or 1, got 'ingress'$"):
            parse_scenario(text)

    @pytest.mark.parametrize("written, direction", [
        ("0", Direction.INGRESS), ("1", Direction.EGRESS), ("0.0", Direction.INGRESS), ("1.0", Direction.EGRESS),
    ])
    def test_a_number_equal_to_0_or_1_is_that_direction(self, scenario_texts, written, direction):
        text = scenario_texts["client_to_webui"].replace("direction: 0", f"direction: {written}")
        step = parse_scenario(text).steps[2]
        assert step.action == "create_policy" and step.arguments["direction"] is direction

    @pytest.mark.parametrize("written", ["true", "false", "2", "-1", '"1"', "'0'", ".nan", "~", "[1]", "{a: 1}"])
    def test_any_other_direction_exits_2(self, scenario_texts, written, tmp_path, capsys):
        text = scenario_texts["client_to_webui"].replace("direction: 0", f"direction: {written}")
        with pytest.raises(IngestError, match=r"^steps\[2\]\.direction: must be 0 or 1, got "):
            parse_scenario(text)
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(text, encoding="utf-8")
        assert main(["check", "--scenario", str(scenario)]) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_port_zero_is_sentinel_here(self):
        script = parse_scenario(
            "steps:\n  - create_endpoint: {name: e, namespace: NS-A, port: 0}\n"
        )
        assert declared_endpoint(script, "e") == Endpoint(namespace=Namespace("NS-A", 1))

    def test_all_sentinel_endpoint_rejected(self):
        text = 'steps:\n  - create_endpoint: {name: e, cidr: 0.0.0.0/0, namespace: "-", port: 0, label: ""}\n'
        with pytest.raises(IngestError, match=r"^steps\[0\]: endpoint has no present fields after normalization$"):
            parse_scenario(text)

    def test_bad_expect_value(self, scenario_texts):
        text = scenario_texts["client_to_webui"].replace("expect: allow", "expect: maybe")
        with pytest.raises(IngestError, match=r"^steps\[5\]\.expect: must be 'allow' or 'deny', got 'maybe'$"):
            parse_scenario(text)

    def test_namespace_with_explicit_id(self):
        script = parse_scenario(
            "steps:\n  - create_endpoint: {name: e, namespace: {name: NS-A, id: 4}}\n"
        )
        assert declared_endpoint(script, "e").namespace == Namespace("NS-A", 4)

    def test_mode_optional(self):
        script = parse_scenario("steps: []\n")
        assert script.mode is None
        assert script.steps == ()

    def test_predeclared_symbols_resolve(self, topology_text):
        endpoints = parse_topology(topology_text)[0]
        text = "steps:\n  - send_data: {from: 1, to: 2, endpoint: webui_https}\n"
        script = parse_scenario(text, symbols=endpoints)
        assert script.steps[0].arguments["endpoint"] == endpoints["webui_https"]

    def test_predeclared_symbol_cannot_be_redeclared(self, topology_text):
        endpoints = parse_topology(topology_text)[0]
        text = "steps:\n  - create_endpoint: {name: client, label: clash}\n"
        with pytest.raises(IngestError, match=r"^steps\[0\]: symbol 'client' declared twice$"):
            parse_scenario(text, symbols=endpoints)


def test_listing_yaml_parses_as_expected_shape(ui_policy_text):
    # plain yaml view of the same document, as a sanity cross-check
    raw = yaml.safe_load(ui_policy_text)
    assert raw["spec"]["ingress"][0]["fromCIDRSet"][0]["cidr"] == "10.28.1.2/30"
    assert raw["spec"]["ingress"][0]["toPorts"][0]["ports"][0]["port"] == "443"


_POLICY_HEAD = "apiVersion: cilium.io/v2\nkind: CiliumNetworkPolicy\n"
_POLICY_SPEC = "spec:\n  endpointSelector: {matchLabels: {app: A}}\n  ingress: [{fromCIDRSet: [{cidr: 10.0.0.0/8}], "

# each refusal that prints a value it was given, handed a list or a mapping
_SHOWN_BY_TYPE = {
    "apiVersion": (parse_cilium_policy, "apiVersion: [a]\n", "apiVersion must be 'cilium.io/v2', got list"),
    "kind": (parse_cilium_policy, "apiVersion: cilium.io/v2\nkind: {a: 1}\n",
             "kind must be 'CiliumNetworkPolicy', got dict"),
    "metadata-name": (parse_cilium_policy, _POLICY_HEAD + "metadata: {name: [a], namespace: N}\n",
                      "metadata.name must be a non-empty string, got list"),
    "policy-port": (parse_cilium_policy,
                    _POLICY_HEAD + "metadata: {name: P, namespace: N}\n" + _POLICY_SPEC + "toPorts: [{ports: [{port: [1]}]}]}]\n",
                    "port must be a number, got list"),
    "namespace-id": (parse_topology, "endpoints:\n  a: {namespace: {name: N, id: {a: 1}}}\n",
                     "endpoints.a.namespace.id: must be an integer in [0, 2147483647], got dict"),
    "endpoint-port": (parse_topology, "endpoints:\n  a: {port: [1]}\n", "endpoints.a.port: must be an integer, got list"),
    "endpoint-label": (parse_topology, "endpoints:\n  a: {label: {x: 1}}\n",
                       "endpoints.a.label: must be a string, got dict"),
    "expect": (parse_scenario, "steps:\n  - create_endpoint: {name: e, label: x, expect: [ok]}\n",
               "steps[0].expect: must be 'ok' or 'violation', got list"),
    "mode": (parse_scenario, "mode: [strict]\nsteps: []\n", "scenario: mode must be 'strict' or 'semantic', got list"),
    "direction": (parse_scenario,
                  "steps:\n  - create_endpoint: {name: e, label: x}\n"
                  "  - create_policy: {name: p, first: e, second: e, direction: {a: 0}}\n",
                  "steps[1].direction: must be 0 or 1, got dict"),
}


@pytest.mark.parametrize("parse, text, message", list(_SHOWN_BY_TYPE.values()), ids=list(_SHOWN_BY_TYPE))
def test_a_refused_list_or_mapping_is_shown_by_its_type(parse, text, message):
    # aliases can make a collection's text exponentially longer than the file
    with pytest.raises(FlowcheckError) as raised:
        parse(text)
    assert str(raised.value).endswith(message)
