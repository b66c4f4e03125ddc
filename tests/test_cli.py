"""Command-line behavior: exit codes, output formats, determinism."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, given, settings, strategies as st

from flowcheck.cli import main, parse_endpoint_spec
from flowcheck import Cidr, Endpoint, Namespace, ingest
from flowcheck.errors import SHOWN_CHARS, FlowcheckError, shown
from flowcheck.ingest import _ACTIONS, _APP_KEYS, _ENDPOINT_KEYS, parse_endpoint_fields

from test_ingest import WORLD_POLICY

BASES = [yaml.SafeLoader] + ([yaml.CSafeLoader] if yaml.__with_libyaml__ else [])

REPO = Path(__file__).resolve().parent.parent
DATA = REPO / "data"
UI_POLICY = str(DATA / "policies" / "ui-policy.yaml")
COMMAND_POLICY = str(DATA / "policies" / "command-policy.yaml")
TOPOLOGY = str(DATA / "topology" / "ics.yaml")
CLIENT_FLOW = str(DATA / "scenarios" / "client_to_webui.yaml")
CLIENT_FLOW_DENIED = str(DATA / "scenarios" / "client_to_webui_denied.yaml")
COMMAND_FLOW = str(DATA / "scenarios" / "command_to_asset.yaml")
COMMAND_FLOW_DENIED = str(DATA / "scenarios" / "command_to_asset_denied.yaml")
UI_CHECK = str(DATA / "scenarios" / "ui_policy_check.yaml")
PEER_BLOCK_TOPOLOGY = str(REPO / "tests" / "data" / "policy-peer-block-topology.yaml")
PEER_BLOCK_SCENARIO = str(REPO / "tests" / "data" / "policy-peer-block-scenario.yaml")

BAD_CLIENT_SCENARIO = """\
mode: strict
steps:
  - create_endpoint: {name: client, cidr: 10.28.1.4/30}
  - create_endpoint: {name: webui, namespace: NS-UI, port: 443, label: WebUI}
  - deploy_application: {id: 1, send: client, listen: [], receive_only: false}
  - deploy_application: {id: 2, send: webui, listen: [webui], receive_only: true}
  - send_data: {from: 1, to: 2, endpoint: webui, expect: allow}
"""


class TestCheck:
    @pytest.mark.parametrize(
        "scenario", [CLIENT_FLOW, CLIENT_FLOW_DENIED, COMMAND_FLOW, COMMAND_FLOW_DENIED]
    )
    def test_self_contained_scenarios_pass(self, scenario, capsys):
        assert main(["check", "--scenario", scenario]) == 0
        assert "PASSED" in capsys.readouterr().out

    def test_policy_file_drives_scenario(self, capsys):
        code = main(["check", "--policies", UI_POLICY, "--scenario", UI_CHECK])
        assert code == 0

    def test_wrong_client_expecting_allow_fails(self, tmp_path, capsys):
        scenario = tmp_path / "bad.yaml"
        scenario.write_text(BAD_CLIENT_SCENARIO, encoding="utf-8")
        code = main(["check", "--policies", UI_POLICY, "--scenario", str(scenario)])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAILED" in out and "MISMATCH" in out

    def test_topology_driven_scenario(self, capsys):
        code = main(
            [
                "check",
                "--policies", UI_POLICY, COMMAND_POLICY,
                "--topology", TOPOLOGY,
                "--scenario", str(DATA / "scenarios" / "ics_flows.yaml"),
            ]
        )
        assert code == 0
        assert "PASSED (6 steps run)" in capsys.readouterr().out

    def test_missing_file_is_config_error(self, capsys):
        assert main(["check", "--scenario", "/nonexistent/scenario.yaml"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_topology_file_is_config_error(self, capsys):
        code = main(
            ["check", "--topology", "/nonexistent/topology.yaml", "--scenario", CLIENT_FLOW]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_scenario_is_config_error(self, tmp_path, capsys):
        scenario = tmp_path / "broken.yaml"
        scenario.write_text("steps: [{send_data: {from: 1, to: 2, endpoint: nope}}]\n")
        assert main(["check", "--scenario", str(scenario)]) == 2

    def test_json_format(self, capsys):
        assert main(["check", "--scenario", CLIENT_FLOW, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is True
        assert doc["steps_run"] == 6
        assert doc["mode"] == "strict"
        assert doc["outcomes"][-1]["action"] == "send_data"

    @pytest.mark.parametrize("mode", ["strict", "semantic"])
    def test_denials_between_writes_insert_one_row_per_member(self, mode, inserted_rows, tmp_path, capsys):
        # 4 rounds of 5 policy writes and a denied send: printing reads each
        # denial's detail on the older set it was decided on, and the table
        # the sends share gets each of the 20 members' rows once
        steps = [
            "create_endpoint: {name: client, cidr: 10.28.1.4/32}",
            "create_endpoint: {name: webui, namespace: NS-UI, port: 443, label: WebUI}",
            "deploy_application: {id: 1, send: client, listen: [], receive_only: false}",
            "deploy_application: {id: 2, send: webui, listen: [webui], receive_only: true}",
        ]
        for i in range(20):
            steps += [f"create_endpoint: {{name: peer{i}, cidr: 10.28.2.{4 * i}/30}}",
                      f"create_policy: {{name: pol{i}, first: webui, second: peer{i}, direction: 0}}"]
            if i % 5 == 4:
                steps.append("send_data: {from: 1, to: 2, endpoint: webui, expect: deny}")
        scenario = tmp_path / "churn.yaml"
        scenario.write_text(f"mode: {mode}\nsteps:\n" + "".join(f"  - {step}\n" for step in steps), encoding="utf-8")
        assert main(["check", "--scenario", str(scenario), "--format", "json"]) == 0
        sends = [outcome for outcome in json.loads(capsys.readouterr().out)["outcomes"]
                 if outcome["action"] == "send_data"]
        assert [send["detail"].count(" failed sender.cidr") for send in sends] == [5, 10, 15, 20]
        tables = inserted_rows.by_table().values()
        assert [(len(members), len(set(members))) for members in tables] == [(20, 20)]

    def test_check_listen_flag(self, capsys):
        # the command flow's receiving asset listens nowhere, so the opt-in
        # listen validation flips the expected-allow step to a violation
        assert main(["check", "--scenario", COMMAND_FLOW]) == 0
        capsys.readouterr()
        assert main(["check", "--scenario", COMMAND_FLOW, "--check-listen"]) == 1

    def test_semantic_mode_rejects_block_endpoints(self, capsys):
        code = main(["check", "--scenario", CLIENT_FLOW, "--mode", "semantic"])
        assert code == 2
        assert "/32" in capsys.readouterr().err

    def test_semantic_mode_accepts_a_block_only_policies_name(self, capsys):
        # the topology's /24 is a policy peer; its applications use /32 hosts
        assert main(["check", "--topology", PEER_BLOCK_TOPOLOGY, "--scenario", PEER_BLOCK_SCENARIO]) == 0
        assert capsys.readouterr().out.endswith("scenario PASSED (2 steps run)\n")
        assert main(["reachability", "--topology", PEER_BLOCK_TOPOLOGY, "--mode", "semantic"]) == 0


class TestReachability:
    def test_table_output(self, capsys):
        code = main(
            ["reachability", "--policies", UI_POLICY, COMMAND_POLICY, "--topology", TOPOLOGY]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "3 allowed / 37 evaluated" in out
        assert "1:Client" in out and "8:Asset" in out

    def test_json_matches_golden(self, capsys):
        code = main(
            [
                "reachability",
                "--policies", UI_POLICY, COMMAND_POLICY,
                "--topology", TOPOLOGY,
                "--format", "json",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        allowed = [e for e in doc["entries"] if e["allowed"]]
        assert [(e["sender"], e["receiver"]) for e in allowed] == [(1, 2), (2, 5), (5, 8)]
        assert all("matched_policy" in e for e in allowed)

    def test_no_policies_all_denied(self, capsys):
        assert main(["reachability", "--topology", TOPOLOGY]) == 0
        assert "0 allowed / 37 evaluated" in capsys.readouterr().out

    def test_output_stable_across_policy_order(self, capsys):
        main(["reachability", "--policies", UI_POLICY, COMMAND_POLICY, "--topology", TOPOLOGY])
        first = capsys.readouterr().out
        main(["reachability", "--policies", COMMAND_POLICY, UI_POLICY, "--topology", TOPOLOGY])
        second = capsys.readouterr().out
        assert first == second

    def test_witness_independent_of_document_order(self, tmp_path, capsys):
        # DocA and DocB hold the same rule, so their policies collapse to one
        text = (DATA / "policies" / "ui-policy.yaml").read_text(encoding="utf-8")
        docs = []
        for name in ("DocA", "DocB"):
            docs.append(tmp_path / f"{name}.yaml")
            docs[-1].write_text(text.replace("UIPolicy", name), encoding="utf-8")
        outputs = {}
        for order in (docs, docs[::-1]):
            for fmt in ("table", "json"):
                main(["reachability", "--policies", *map(str, order), "--topology", TOPOLOGY,
                      "--format", fmt])
                outputs.setdefault(fmt, set()).add(capsys.readouterr().out)
            main(["explain", "--policies", *map(str, order), "--",
                  "cidr=10.28.1.2/30", "namespace=NS-UI,port=443,label=WebUI"])
            outputs.setdefault("explain", set()).add(capsys.readouterr().out)
            for fmt in ("table", "json"):
                main(["explain", "--policies", *map(str, order), "--format", fmt, "--",
                      "cidr=10.28.1.4/30", "namespace=NS-UI,port=443,label=WebUI"])
                outputs.setdefault(f"denied-{fmt}", set()).add(capsys.readouterr().out)
            main(["check", "--policies", *map(str, order), "--topology", TOPOLOGY,
                  "--scenario", str(DATA / "scenarios" / "ics_flows.yaml"), "--format", "json"])
            outputs.setdefault("check", set()).add(capsys.readouterr().out)
        assert all(len(texts) == 1 for texts in outputs.values())
        witness = outputs["explain"].pop().split("\n")[2]
        assert witness == "[DocA#0] MATCH (ingress)"
        # a denial names every document the collapsed rule came from
        assert outputs["denied-table"].pop().split("\n")[2:4] == [
            "[DocA#0] FAIL sender.cidr", "[DocB#0] FAIL sender.cidr"
        ]
        denied = json.loads(outputs["denied-json"].pop())["failed_predicates"]
        assert [e["policy"]["origin"]["document"] for e in denied] == ["DocA", "DocB"]
        assert json.loads(outputs["check"].pop())["steps_run"] > 0
        assert "allow    DocA#0" in outputs["table"].pop()
        allowed = [e for e in json.loads(outputs["json"].pop())["entries"] if e["allowed"]]
        assert [e["matched_policy"]["origin"] for e in allowed] == [
            {"document": "DocA", "rule_index": 0}
        ]

    def test_missing_topology_flag_usage_error(self):
        with pytest.raises(SystemExit) as exc_info:
            main(["reachability", "--policies", UI_POLICY])
        assert exc_info.value.code == 2


class TestExplain:
    @pytest.mark.parametrize(
        "sender, code, verdict",
        [("namespace=NS-Other,label=Anything", 1, "DENIED"), ("cidr=10.0.0.1/32", 0, "ALLOWED")],
    )
    def test_world_block_needs_a_sender_address(self, tmp_path, capsys, sender, code, verdict):
        world = tmp_path / "World.yaml"
        world.write_text(WORLD_POLICY, encoding="utf-8")
        assert main(["explain", "--policies", str(world), "--mode", "semantic", "--",
                     sender, "namespace=NS-UI,label=WebUI,port=443"]) == code
        assert capsys.readouterr().out.splitlines()[-1] == verdict

    def test_semantic_match(self, capsys):
        code = main(
            [
                "explain",
                "--policies", UI_POLICY,
                "--mode", "semantic",
                "cidr=10.28.1.2/32",
                "namespace=NS-UI,label=WebUI,port=443",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "MATCH" in out and "UIPolicy#0" in out and "ALLOWED" in out

    def test_semantic_containment_denial(self, capsys):
        code = main(
            [
                "explain",
                "--policies", UI_POLICY,
                "--mode", "semantic",
                "cidr=10.28.1.4/32",
                "namespace=NS-UI,label=WebUI,port=443",
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "cidr-containment" in out and "DENIED" in out

    def test_port_mismatch_denial(self, capsys):
        code = main(
            [
                "explain",
                "--policies", UI_POLICY,
                "--mode", "semantic",
                "cidr=10.28.1.2/32",
                "namespace=NS-UI,label=WebUI,port=80",
            ]
        )
        assert code == 1
        assert "receiver.port" in capsys.readouterr().out

    def test_strict_mode_default(self, capsys):
        # positional specs go first (or after "--"): a bare nargs="*"
        # --policies would swallow them otherwise
        code = main(
            ["explain", "cidr=10.28.1.2/30", "namespace=NS-UI,label=WebUI,port=443",
             "--policies", UI_POLICY]
        )
        assert code == 0

    def test_double_dash_separator(self, capsys):
        code = main(
            ["explain", "--policies", UI_POLICY, "--",
             "cidr=10.28.1.2/30", "namespace=NS-UI,label=WebUI,port=443"]
        )
        assert code == 0

    @pytest.mark.parametrize("argv", [
        ["--policies", UI_POLICY, "cidr=10.28.1.2/30", "namespace=NS-UI,label=WebUI,port=443"],
        ["cidr=10.28.1.2/30", "--policies", UI_POLICY, "namespace=NS-UI,label=WebUI,port=443"],
    ])
    def test_specs_after_policies_say_where_they_go(self, capsys, argv):
        assert main(["explain", *argv]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "before --policies or after --" in err

    def test_malformed_spec(self, capsys):
        assert main(["explain", "bogus", "also=bogus", "--policies", UI_POLICY]) == 2

    # a number past 20 digits is out of every field's range: it is refused
    # by its length, and the spec is named by its role, not repeated
    @pytest.mark.parametrize("sender, receiver, policy_port, where", [
        ("label=x", "label=y,port=" + "9" * 5000, "443", "receiver.port"),
        ("label=x,namespace=NS/" + "9" * 25, "label=y", "443", "sender.namespace.id"),
        ("label=x", "label=y", "9" * 3000, "spec.ingress[0].toPorts[0].ports[0].port"),
    ], ids=["spec-port", "spec-namespace-id", "policy-port"])
    def test_too_many_digits_are_out_of_range(self, tmp_path, capsys, sender, receiver, policy_port, where):
        policy = tmp_path / "policy.yaml"
        policy.write_text(POLICY_WITH_SUPERSCRIPT_PORT.replace("\u00b2", policy_port), encoding="utf-8")
        assert main(["explain", sender, receiver, "--policies", str(policy)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and len(err) < 1024
        assert f"{where}: out of range" in err

    def test_json_format(self, capsys):
        code = main(
            [
                "explain",
                "--policies", UI_POLICY,
                "--format", "json",
                "cidr=10.28.1.4/30",
                "namespace=NS-UI,label=WebUI,port=443",
            ]
        )
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["allowed"] is False
        assert doc["failed_predicates"][0]["predicate"] == "sender.cidr"


class TestEndpointSpec:
    def test_full_spec(self):
        ep = parse_endpoint_spec("cidr=10.0.0.1/32,namespace=NS-A/2,port=80,label=X")
        assert ep == Endpoint(
            cidr=Cidr(10, 0, 0, 1, 32), namespace=Namespace("NS-A", 2), port=80, label="X"
        )

    def test_namespace_default_id(self):
        assert parse_endpoint_spec("namespace=NS-A").namespace == Namespace("NS-A", 1)

    def test_sentinels_normalized(self):
        ep = parse_endpoint_spec("cidr=0.0.0.0/0,label=X")
        assert ep == Endpoint(label="X")

    # "-" with id 0 is the unconstrained sentinel; any other id is a namespace
    @pytest.mark.parametrize(
        "spec, file_form, namespace",
        [("-", "-", None), ("-/0", {"name": "-", "id": 0}, None),
         ("-/5", {"name": "-", "id": 5}, Namespace("-", 5))],
    )
    def test_dash_namespace_parsed_like_the_file_form(self, spec, file_form, namespace):
        ep = parse_endpoint_spec(f"namespace={spec},label=x")
        assert ep.namespace == namespace
        assert ep == parse_endpoint_fields({"namespace": file_form, "label": "x"}, "file")

    @pytest.mark.parametrize(
        "spec", ["", "port=eighty", "nonsense=1", "cidr=1.2.3.4", "namespace=-/abc,label=x"]
    )
    def test_bad_specs(self, spec):
        with pytest.raises(FlowcheckError):
            parse_endpoint_spec(spec)


POLICY_WITH_SUPERSCRIPT_PORT = """\
apiVersion: cilium.io/v2
kind: CiliumNetworkPolicy
metadata: {name: P, namespace: NS}
spec:
  endpointSelector: {matchLabels: {app: A}}
  ingress:
    - fromCIDRSet: [{cidr: 10.0.0.0/8}]
      toPorts: [{ports: [{port: "\u00b2"}]}]
"""

# an empty label value would select every label (app) or fall back to the
# document's namespace (io.kubernetes.pod.namespace)
POLICY_WITH_EMPTY_APP_LABEL = """\
apiVersion: cilium.io/v2
kind: CiliumNetworkPolicy
metadata: {name: P, namespace: NS-UI}
spec:
  endpointSelector: {matchLabels: {app: ""}}
  ingress:
    - fromCIDRSet: [{cidr: 10.28.1.0/24}]
      toPorts: [{ports: [{port: "443"}]}]
"""

POLICY_WITH_EMPTY_NAMESPACE_LABEL = """\
apiVersion: cilium.io/v2
kind: CiliumNetworkPolicy
metadata: {name: P, namespace: NS-UI}
spec:
  endpointSelector: {matchLabels: {app: WebUI}}
  ingress:
    - fromEndpoints: [{matchLabels: {app: Client, io.kubernetes.pod.namespace: ""}}]
"""


# "\u0661\u0660" is 10 in Arabic-Indic digits: int() reads it, so the policy
# once admitted 10.28.1.2
POLICY_WITH_ARABIC_INDIC_CIDR = """\
apiVersion: cilium.io/v2
kind: CiliumNetworkPolicy
metadata: {name: P, namespace: NS-UI}
spec:
  endpointSelector: {matchLabels: {app: WebUI}}
  ingress:
    - fromCIDRSet: [{cidr: "\u0661\u0660.28.1.2/32"}]
      toPorts: [{ports: [{port: "443"}]}]
"""


def _policy_with_selector(match_labels: str) -> str:
    return POLICY_WITH_EMPTY_APP_LABEL.replace('{app: ""}', match_labels)


def _doubling_list(levels: int) -> str:
    """A flow list of ``levels`` anchored lists, each holding the one before
    it twice: the value's text doubles with every level."""
    items = ["&l0 x"] + [f"&l{i} [*l{i - 1}, *l{i - 1}]" for i in range(1, levels + 1)]
    return f"[{', '.join(items)}]"


def _doubling_mode(levels: int) -> str:
    """A scenario whose mode is ``_doubling_list(levels)``."""
    return f"mode: {_doubling_list(levels)}\nsteps: []\n"


# name -> (arguments, file content); a file holding the content, if any,
# is appended to the arguments
MALFORMED_INPUTS = {
    "topology-namespace-id-negative": (
        ["reachability", "--topology"], "endpoints:\n  a: {namespace: {name: NS-UI, id: -5}}\n"),
    "topology-app-id-huge": (
        ["reachability", "--topology"],
        "endpoints:\n  a: {label: A}\napplications:\n  - {id: 99999999999999999999, send: a}\n"),
    "topology-namespace-empty": (["reachability", "--topology"], 'endpoints:\n  a: {namespace: ""}\n'),
    "topology-mixed-type-keys": (["reachability", "--topology"], "1: x\nfoo: y\n"),
    "scenario-namespace-id-bool": (
        ["check", "--scenario"],
        "steps:\n  - create_endpoint: {name: e, namespace: {name: NS-A, id: true}}\n"),
    "scenario-app-id-huge": (
        ["check", "--scenario"],
        "steps:\n  - create_endpoint: {name: e, label: x}\n"
        "  - deploy_application: {id: 99999999999999999999, send: e}\n"),
    "scenario-mixed-type-step-keys": (
        ["check", "--scenario"], "steps:\n  - create_endpoint: {name: e, label: x, 3: y, z: 1}\n"),
    "scenario-unhashable-key": (["check", "--scenario"], "steps: []\n? [a, b]\n: 1\n"),
    "scenario-not-utf8": (["check", "--scenario"], b"steps: []\n# \xff\xfe\n"),
    "explain-namespace-id-huge": (["explain", "label=x", "namespace=NS-UI/99999999999"], None),
    "explain-namespace-name-empty": (["explain", "label=x", "namespace=/3"], None),
    "explain-namespace-dash-id-not-decimal": (["explain", "namespace=-/abc,label=x", "label=y"], None),
    "explain-port-superscript-digit": (["explain", "label=x", "port=\u00b2"], None),
    "policy-port-superscript-digit": (
        ["explain", "label=x", "label=y", "--policies"], POLICY_WITH_SUPERSCRIPT_PORT),
    "scenario-impossible-date": (["check", "--scenario"], "steps: []\nmode: 2001-02-30\n"),
    "scenario-bad-float-tag": (["check", "--scenario"], "steps: !!float abc\n"),
    "scenario-step-impossible-date": (
        ["check", "--scenario"], "steps:\n  - create_endpoint: {name: b, label: 2001-02-30}\n"),
    "scenario-step-bad-int-tag": (["check", "--scenario"], "steps:\n  - create_endpoint: {name: b, label: !!int x12}\n"),
    "scenario-step-bad-bool-tag": (["check", "--scenario"], "steps:\n  - create_endpoint: {name: b, label: !!bool x}\n"),
    "scenario-step-bad-timestamp-tag": (
        ["check", "--scenario"], "steps:\n  - create_endpoint: {name: b, label: !!timestamp x}\n"),
    "scenario-int-past-digit-limit": (["check", "--scenario"], "steps: []\nmode: " + "9" * 5000 + "\n"),
    "topology-hex-int-past-digit-limit": (
        ["reachability", "--topology"],
        "endpoints:\n  a: {label: A}\napplications:\n  - {id: 0x" + "f" * 4000 + ", send: a}\n"),
    "explain-port-past-digit-limit": (["explain", "label=x", "port=" + "9" * 5000], None),
    "scenario-deep-nesting": (["check", "--scenario"], "steps: " + "[" * 700 + "]" * 700 + "\n"),
    # a sequence tagged as a mapping once ended in a traceback
    "policy-map-tagged-sequence": (["reachability", "--topology", TOPOLOGY, "--policies"], "!!map [a, b]\n"),
    "topology-map-tagged-sequence": (["reachability", "--topology"], "endpoints: !!map [a, b]\n"),
    "scenario-map-tagged-sequence": (["check", "--scenario"], "steps: !!map [a, b]\n"),
    "policy-empty-app-label": (
        ["explain", "cidr=10.28.1.2/32", "namespace=NS-UI,label=Database,port=443",
         "--mode", "semantic", "--policies"], POLICY_WITH_EMPTY_APP_LABEL),
    "policy-empty-namespace-label": (
        ["explain", "namespace=NS-UI,label=Client", "namespace=NS-UI,label=WebUI", "--policies"],
        POLICY_WITH_EMPTY_NAMESPACE_LABEL),
    "policy-cidr-arabic-indic-digits": (
        ["explain", "cidr=10.28.1.2/32", "namespace=NS-UI,label=WebUI,port=443", "--policies"],
        POLICY_WITH_ARABIC_INDIC_CIDR),
    # "A,tier=x" would fold into the same label string as {app: A, tier: x}
    "policy-label-value-comma": (
        ["explain", "cidr=10.28.1.2/32", "namespace=NS-UI,label=A,port=443", "--policies"],
        _policy_with_selector('{app: "A,tier=x"}')),
    "policy-label-key-equals": (
        ["explain", "cidr=10.28.1.2/32", "namespace=NS-UI,label=A,port=443", "--policies"],
        _policy_with_selector('{app: A, "tier=x": y}')),
    "policy-label-value-too-long": (
        ["explain", "cidr=10.28.1.2/32", "namespace=NS-UI,label=A,port=443", "--policies"],
        _policy_with_selector("{app: " + "a" * 64 + "}")),
    "policy-label-key-bad-prefix": (
        ["explain", "cidr=10.28.1.2/32", "namespace=NS-UI,label=A,port=443", "--policies"],
        _policy_with_selector("{Bad_Prefix/app: A}")),
    "policy-label-value-int": (
        ["explain", "cidr=10.28.1.2/32", "namespace=NS-UI,label=A,port=443", "--policies"],
        _policy_with_selector("{app: 5}")),
    "policy-port-float": (
        ["explain", "label=x", "label=y", "--policies"], POLICY_WITH_SUPERSCRIPT_PORT.replace('"\u00b2"', "4.5")),
    "policy-egress-cidr-set-empty": (
        ["explain", "label=x", "label=y", "--policies"],
        _policy_with_selector("{app: A}") + "  egress: [{toCIDRSet: []}]\n"),
    "topology-label-list": (["reachability", "--topology"], "endpoints:\n  a: {label: [x]}\n"),
    "topology-receive-only-int": (
        ["reachability", "--topology"],
        "endpoints:\n  a: {label: A}\napplications:\n  - {id: 1, send: a, receive_only: 1}\n"),
    "scenario-two-documents": (["check", "--scenario"], "steps: []\n---\nsteps: []\n"),
    "scenario-steps-mapping": (["check", "--scenario"], "steps: {a: 1}\n"),
    # 2**16 items deep in aliases: printed in full, the refusal was about 1 MB
    "scenario-mode-alias-doubling": (["check", "--scenario"], _doubling_mode(16)),
}


@pytest.mark.parametrize(
    "args, content", list(MALFORMED_INPUTS.values()), ids=list(MALFORMED_INPUTS)
)
def test_malformed_input_is_config_error(args, content, tmp_path, capsys):
    if content is not None:
        path = tmp_path / "input.yaml"
        path.write_bytes(content if isinstance(content, bytes) else content.encode("utf-8"))
        args = [*args, str(path)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert err.count("error:") == 1


@pytest.mark.parametrize("name", [name for name in MALFORMED_INPUTS if name.endswith("-map-tagged-sequence")])
def test_a_tag_that_does_not_fit_its_node_is_one_error_line(name, tmp_path, capsys):
    args, content = MALFORMED_INPUTS[name]
    path = tmp_path / "input.yaml"
    path.write_text(content, encoding="utf-8")
    assert main([*args, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and err.count("error:") == 1
    assert "tag 'tag:yaml.org,2002:map' is not allowed on a sequence" in err


@pytest.mark.parametrize("name", [name for name in MALFORMED_INPUTS if name.startswith("scenario-step-")])
def test_a_scalar_refused_in_a_scenario_step_names_its_position(name, tmp_path, capsys):
    args, content = MALFORMED_INPUTS[name]
    path = tmp_path / "input.yaml"
    path.write_text(content, encoding="utf-8")
    assert main([*args, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: scenario document: ") and err.count("error:") == 1
    assert '\n  in "scenario document", line 2, column 39' in err


# cases whose refusal no other test reaches, with the text it prints
REFUSALS = {
    "policy-label-key-bad-prefix": "matchLabels: invalid label key 'Bad_Prefix/app'\n",
    "policy-label-value-int": "matchLabels: matchLabels entries must map strings to strings\n",
    "policy-port-float": "ports[0]: port must be a number, got 4.5\n",
    "policy-egress-cidr-set-empty": "spec.egress[0]: toCIDRSet must not be empty\n",
    "topology-label-list": "endpoints.a.label: must be a string, got list\n",
    "topology-receive-only-int": "applications[0].receive_only: must be a boolean\n",
    "scenario-two-documents": "expected a single document in the stream\n",
    "scenario-steps-mapping": "steps must be a list, got dict\n",
    "scenario-mode-alias-doubling": "scenario: mode must be 'strict' or 'semantic', got list\n",
}


@pytest.mark.parametrize("name", list(REFUSALS))
def test_a_malformed_input_reaches_its_own_refusal(name, tmp_path, capsys):
    args, content = MALFORMED_INPUTS[name]
    path = tmp_path / "input.yaml"
    path.write_text(content, encoding="utf-8")
    assert main([*args, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and REFUSALS[name] in err and len(err) < 1024


# each refusal that quotes a value, with the value in the VALUE slot
ALIASED_VALUES = {
    "scenario-mode": (ingest.parse_scenario, "mode: VALUE\nsteps: []\n"),
    "scenario-direction": (
        ingest.parse_scenario, "steps:\n  - create_policy: {name: p, first: a, second: b, direction: VALUE}\n"),
    "scenario-expect": (ingest.parse_scenario, "steps:\n  - send_data: {expect: VALUE}\n"),
    "scenario-from": (ingest.parse_scenario, "steps:\n  - send_data: {from: VALUE, to: 1, endpoint: a}\n"),
    "scenario-name": (ingest.parse_scenario, "steps:\n  - create_endpoint: {name: VALUE, label: x}\n"),
    "topology-label": (ingest.parse_topology, "endpoints:\n  a: {label: VALUE}\n"),
    "topology-port": (ingest.parse_topology, "endpoints:\n  a: {port: VALUE}\n"),
    "policy-api-version": (ingest.parse_cilium_policy, "apiVersion: VALUE\n"),
}


@pytest.mark.parametrize("parse, template", list(ALIASED_VALUES.values()), ids=list(ALIASED_VALUES))
def test_a_refused_alias_chain_is_never_rendered(parse, template):
    # 2**22 items deep in aliases: the value rendered in full is about 60 MB of text
    text = template.replace("VALUE", _doubling_list(22))
    tracemalloc.start()
    try:
        with pytest.raises(FlowcheckError, match="got list$"):
            parse(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


# a 5,000-character value in each refusal that quotes it; the topology key
# is explicit ("? "), since YAML limits a plain key to 1,024 characters
LONG_INPUTS = {
    "explain-cidr": (["explain", "cidr=" + "1" * 5000, "label=y"], None),
    "explain-key": (["explain", "label=x," + "k" * 5000 + "=1", "label=y"], None),
    "topology-endpoint-key": (
        ["reachability", "--topology"], "endpoints:\n  a:\n    label: A\n    ? " + "k" * 5000 + "\n    : 1\n"),
}


@pytest.mark.parametrize("args, content", list(LONG_INPUTS.values()), ids=list(LONG_INPUTS))
def test_a_long_input_is_quoted_by_its_start_and_length(args, content, tmp_path, capsys):
    if content is not None:
        path = tmp_path / "input.yaml"
        path.write_text(content, encoding="utf-8")
        args = [*args, str(path)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err.encode("utf-8")) < 300
    assert "'... (5000 characters)" in err


def test_a_str_is_quoted_in_full_up_to_the_bound():
    assert shown("k" * SHOWN_CHARS) == repr("k" * SHOWN_CHARS)
    assert shown("k" * (SHOWN_CHARS + 1)) == f"{'k' * SHOWN_CHARS!r}... ({SHOWN_CHARS + 1} characters)"


# one bad file among good ones, in the BAD slot: its error line names it
NAMED_INPUT_ERRORS = {
    "policies": (
        ["explain", "--policies", UI_POLICY, "BAD", COMMAND_POLICY, "--", "label=x", "label=y"],
        "apiVersion: cilium.io/v2\nkind: CiliumNetworkPolicy\nmetadata: {name: P}\nspec: {}\n",
        "metadata.namespace must be a non-empty string, got None",
    ),
    "topology": (
        ["reachability", "--policies", UI_POLICY, COMMAND_POLICY, "--topology", "BAD"],
        "endpoints:\n  a: {label: [x\n",
        "topology document: while parsing a flow sequence",
    ),
    "topology-endpoint-twice": (
        ["reachability", "--topology", "BAD"],
        "endpoints:\n  a: {cidr: 10.0.0.1/32}\n  b: {cidr: 10.0.0.1/32}\n",
        "endpoints.b: same endpoint as endpoints.a\n",
    ),
    "scenario": (
        ["check", "--policies", UI_POLICY, "--topology", TOPOLOGY, "--scenario", "BAD"],
        "steps:\n  - send_data: {from: 1, to: 2, endpoint: webui_https, expect: allow, via: x}\n",
        "steps[0]: unknown keys ['via']",
    ),
}


@pytest.mark.parametrize(
    "args, content, message", list(NAMED_INPUT_ERRORS.values()), ids=list(NAMED_INPUT_ERRORS)
)
def test_an_input_error_names_its_file(args, content, message, tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text(content, encoding="utf-8")
    assert main([str(path) if arg == "BAD" else arg for arg in args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: {message}")
    assert captured.err.count("error:") == 1


# ways an input path can fail to read, each given the path to make
UNREADABLE = {
    "missing": lambda path: None,
    "directory": lambda path: path.mkdir(),
    "not-utf-8": lambda path: path.write_bytes(b"steps: [\xff]\n"),
}


@pytest.mark.parametrize("make", list(UNREADABLE.values()), ids=list(UNREADABLE))
@pytest.mark.parametrize(
    "args", [args for args, _, _ in NAMED_INPUT_ERRORS.values()], ids=list(NAMED_INPUT_ERRORS)
)
def test_an_unreadable_input_is_one_error_line(args, make, tmp_path, capsys):
    path = tmp_path / "input.yaml"
    make(path)
    assert main([str(path) if arg == "BAD" else arg for arg in args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read {path}: ")
    assert captured.err.count("\n") == 1


def test_a_warning_is_printed_before_a_later_file_fails_to_read(tmp_path, capsys):
    noisy, missing = tmp_path / "noisy.yaml", tmp_path / "missing.yaml"
    noisy.write_text(Path(UI_POLICY).read_text(encoding="utf-8") + "status: {}\n", encoding="utf-8")
    assert main(["explain", "--policies", str(noisy), str(missing), "--", "label=x", "label=y"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    warning, error = captured.err.splitlines()
    assert warning == f"warning: {noisy}: policy document: unknown key 'status'"
    assert error.startswith(f"error: cannot read {missing}: ")


# PyYAML's pure-Python reader refuses the control character as the loader
# is built, libyaml's as it reads
@pytest.mark.parametrize("base", BASES, ids=lambda base: base.__name__)
@pytest.mark.parametrize("content, mark", [
    ("endpoints:\n  a: {label: [x\n", 'in "topology document", line 2, column 14'),
    ('endpoints:\n  a: {label: "\x07"}\n', 'in "topology document", position 25'),
], ids=["syntax", "control-character"])
def test_a_yaml_error_mark_names_the_document_kind(content, mark, base, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(ingest, "_BASE_LOADER", base)
    path = tmp_path / "topology.yaml"
    path.write_text(content, encoding="utf-8")
    assert main(["reachability", "--topology", str(path)]) == 2
    err = capsys.readouterr().err
    lines = err.splitlines()
    assert [line for line in lines if line.startswith("error:")] == lines[:1]
    assert lines[0].startswith(f"error: {path}: topology document: ")
    assert mark in err and "<unicode string>" not in err


# Hostile documents built from the schema's own key names: values include
# negative, huge and bool ints, "", lists and nested maps; keys mix types.
_names = st.sampled_from(["a", "b"])
_hostile = st.recursive(
    st.sampled_from(
        [-5, 0, 1, 2, 443, 2**31, 2**63, 10**20, True, False, None, "", "-", "a", "b",
         "NS-A", "10.0.0.1/32", "10.0.0.0/8", "0.0.0.0/0", "ok", "violation", "deny"]
    ),
    lambda inner: st.lists(inner, max_size=2)
    | st.dictionaries(st.sampled_from(["name", "id", "x"]) | st.integers(0, 2), inner, max_size=2),
    max_leaves=4,
)


def _node(keys):
    key = st.sampled_from(sorted(keys)) | st.integers(-1, 2)
    return st.dictionaries(key, _hostile | st.lists(_names, max_size=2), max_size=len(keys) + 1)


_topology = st.fixed_dictionaries(
    {},
    optional={
        "endpoints": st.dictionaries(
            _names | st.integers(0, 1), _node(_ENDPOINT_KEYS) | _hostile, max_size=3
        ),
        "applications": st.lists(_node(_APP_KEYS | {"name"}) | _hostile, max_size=3),
        1: _hostile,
    },
)
_step = st.sampled_from(sorted(_ACTIONS)).flatmap(
    lambda action: st.fixed_dictionaries({action: _node(_ACTIONS[action][1] | {"expect"})})
)
_scenario = st.fixed_dictionaries(
    {"steps": st.lists(_step | _hostile, max_size=4)},
    optional={"mode": st.sampled_from(["strict", "semantic", 3, None])},
)
_spec = st.lists(
    st.tuples(
        st.sampled_from(sorted(_ENDPOINT_KEYS) + ["x"]),
        st.sampled_from(["", "NS", "NS/7", "-", "/3", "0", "443", "99999999999", "10.0.0.1/32",
                         "\u00b2", "a=b"]),
    ),
    max_size=3,
).map(lambda pairs: ",".join(f"{key}={value}" for key, value in pairs))


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(topology=_topology, scenario=_scenario, sender=_spec, receiver=_spec)
def test_hostile_files_never_raise(topology, scenario, sender, receiver, tmp_path):
    topo, scen = tmp_path / "topology.yaml", tmp_path / "scenario.yaml"
    topo.write_text(yaml.safe_dump(topology, sort_keys=False), encoding="utf-8")
    scen.write_text(yaml.safe_dump(scenario, sort_keys=False), encoding="utf-8")
    for argv in (
        ["check", "--topology", str(topo), "--scenario", str(scen)],
        ["check", "--scenario", str(scen), "--mode", "semantic"],
        ["reachability", "--topology", str(topo)],
        ["explain", "--", sender, receiver],
    ):
        assert main(argv) in (0, 1, 2)


def _run_flowcheck(*args, **kwargs):
    """``python -m flowcheck`` in a child process, importing this checkout."""
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "flowcheck", *args],
        env={**os.environ, "PYTHONPATH": path}, **kwargs,
    )


def test_console_entry_point():
    result = _run_flowcheck("check", "--scenario", CLIENT_FLOW, capture_output=True, text=True)
    assert result.returncode == 0
    assert "PASSED" in result.stdout


# In a child process, so a composer that recursed once per level and
# crashed would fail these tests, not end the test run.
@pytest.mark.parametrize("open_, close", [("[", "]"), ("{a: ", "}")], ids=["lists", "mappings"])
@pytest.mark.parametrize(
    "args",
    [["explain", "label=x", "label=y", "--policies"], ["reachability", "--topology"],
     ["check", "--scenario"]],
    ids=["policy", "topology", "scenario"],
)
def test_deep_nesting_is_config_error(args, open_, close, tmp_path):
    path = tmp_path / "deep.yaml"
    path.write_text(open_ * 100_000 + close * 100_000, encoding="utf-8")
    result = _run_flowcheck(*args, str(path), capture_output=True, text=True, timeout=60)
    assert result.returncode == 2, result.returncode  # a negative code is a signal
    assert result.stderr.startswith("error:") and result.stderr.count("error:") == 1
    assert "nested deeper than 100 levels" in result.stderr and "Traceback" not in result.stderr


def test_closed_stdout_exits_quietly():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = _run_flowcheck(
            "reachability", "--policies", UI_POLICY, "--topology", TOPOLOGY,
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
        )
    finally:
        os.close(write_end)
    assert result.returncode == 141
    assert result.stderr == ""
