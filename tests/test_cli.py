"""Command-line behavior: exit codes, output formats, determinism."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest
import yaml
from hypothesis import HealthCheck, given, settings, strategies as st

from flowcheck.cli import main, parse_endpoint_spec
from flowcheck import Cidr, Endpoint, Namespace
from flowcheck.errors import FlowcheckError
from flowcheck.ingest import _ACTIONS, _APP_KEYS, _ENDPOINT_KEYS

from conftest import DATA, REPO

UI_POLICY = str(DATA / "policies" / "ui-policy.yaml")
COMMAND_POLICY = str(DATA / "policies" / "command-policy.yaml")
TOPOLOGY = str(DATA / "topology" / "ics.yaml")
CLIENT_FLOW = str(DATA / "scenarios" / "client_to_webui.yaml")
CLIENT_FLOW_DENIED = str(DATA / "scenarios" / "client_to_webui_denied.yaml")
COMMAND_FLOW = str(DATA / "scenarios" / "command_to_asset.yaml")
COMMAND_FLOW_DENIED = str(DATA / "scenarios" / "command_to_asset_denied.yaml")
UI_CHECK = str(DATA / "scenarios" / "ui_policy_check.yaml")

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
        assert all(len(texts) == 1 for texts in outputs.values())
        witness = outputs["explain"].pop().split("\n")[2]
        assert witness == "[DocA#0] MATCH (ingress)"
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

    def test_malformed_spec(self, capsys):
        assert main(["explain", "bogus", "also=bogus", "--policies", UI_POLICY]) == 2

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

    @pytest.mark.parametrize("spec", ["", "port=eighty", "nonsense=1", "cidr=1.2.3.4"])
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


def _policy_with_selector(match_labels: str) -> str:
    return POLICY_WITH_EMPTY_APP_LABEL.replace('{app: ""}', match_labels)


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
    "explain-port-superscript-digit": (["explain", "label=x", "port=\u00b2"], None),
    "policy-port-superscript-digit": (
        ["explain", "label=x", "label=y", "--policies"], POLICY_WITH_SUPERSCRIPT_PORT),
    "scenario-impossible-date": (["check", "--scenario"], "steps: []\nmode: 2001-02-30\n"),
    "scenario-bad-float-tag": (["check", "--scenario"], "steps: !!float abc\n"),
    "scenario-int-past-digit-limit": (["check", "--scenario"], "steps: []\nmode: " + "9" * 5000 + "\n"),
    "topology-hex-int-past-digit-limit": (
        ["reachability", "--topology"],
        "endpoints:\n  a: {label: A}\napplications:\n  - {id: 0x" + "f" * 4000 + ", send: a}\n"),
    "explain-port-past-digit-limit": (["explain", "label=x", "port=" + "9" * 5000], None),
    "scenario-deep-nesting": (["check", "--scenario"], "steps: " + "[" * 700 + "]" * 700 + "\n"),
    "policy-empty-app-label": (
        ["explain", "cidr=10.28.1.2/32", "namespace=NS-UI,label=Database,port=443",
         "--mode", "semantic", "--policies"], POLICY_WITH_EMPTY_APP_LABEL),
    "policy-empty-namespace-label": (
        ["explain", "namespace=NS-UI,label=Client", "namespace=NS-UI,label=WebUI", "--policies"],
        POLICY_WITH_EMPTY_NAMESPACE_LABEL),
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
