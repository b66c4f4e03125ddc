"""The command line's full output on the shipped inputs, byte for byte.

Every scenario under ``data/scenarios`` is checked in both formats with the
inputs its header names, and ``explain`` is run on allowed and denied
flows in both modes, among them denials that answer
``direction-orientation``.  Each case runs on both YAML loader bases:
libyaml's parser when PyYAML has it, and PyYAML's own.  The scenarios use
/30 and /28 client blocks, which semantic mode refuses, so their checks
run in strict mode, and ``ERROR_CASES`` records that refusal and the
other answers on standard error: warnings for unknown policy keys, input
errors and command lines in the wrong order.

``tests/data/cli_golden.json`` holds each case's command line, exit code,
standard output and standard error.  After a deliberate change to the
output, rewrite it from the repository root with::

    PYTHONPATH=src python3 tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import sys
from pathlib import Path
from unittest import mock

import pytest
import yaml

from flowcheck import ingest
from flowcheck.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "cli_golden.json"

POLICIES = ["--policies", "data/policies/ui-policy.yaml", "data/policies/command-policy.yaml"]
TOPOLOGY = ["--topology", "data/topology/ics.yaml"]
SCENARIO_INPUTS = {
    "client_to_webui": [],
    "client_to_webui_denied": [],
    "command_to_asset": [],
    "command_to_asset_denied": [],
    "ui_policy_check": ["--policies", "data/policies/ui-policy.yaml"],
    "ics_flows": POLICIES + TOPOLOGY,
}
FLOWS = {
    "client-webui": ("cidr=10.28.1.2/30", "namespace=NS-UI,label=WebUI,port=443"),
    "client-webui-port80": ("cidr=10.28.1.2/30", "namespace=NS-UI,label=WebUI,port=80"),
    "webui-client-reversed": ("namespace=NS-UI,label=WebUI,port=443", "cidr=10.28.1.2/30"),
    "command-webui-reversed": ("namespace=NS-Command,label=Command", "namespace=NS-UI,label=WebUI"),
    "semantic:host-webui-port80": ("cidr=10.28.1.3/32", "namespace=NS-UI,label=WebUI,port=80"),
    "semantic:command-asset": ("namespace=NS-Command,label=Command", "cidr=10.29.1.20/32,port=5443"),
    "semantic:asset-command-reversed": ("cidr=10.29.1.20/32,port=5443", "namespace=NS-Command,label=Command"),
}

UI_FLOW = ("cidr=10.28.1.2/32", "namespace=NS-UI,label=WebUI,port=443")
ERROR_CASES = {
    "reachability semantic block refusal": ["reachability", *POLICIES, *TOPOLOGY, "--mode", "semantic"],
    "check ics_flows semantic block refusal": [
        "check", *POLICIES, *TOPOLOGY, "--scenario", "data/scenarios/ics_flows.yaml", "--mode", "semantic",
    ],
    "explain unknown-key warnings": [
        "explain", *UI_FLOW, "--policies", "tests/data/noisy-policy.yaml", "--mode", "semantic",
    ],
    "explain egress toEndpoints": ["explain", *UI_FLOW, "--policies", "tests/data/egress-to-endpoints.yaml"],
    "explain specs after --policies": ["explain", "--policies", "data/policies/ui-policy.yaml", *UI_FLOW],
    "check semantic policy-peer block": [
        "check", "--topology", "tests/data/policy-peer-block-topology.yaml",
        "--scenario", "tests/data/policy-peer-block-scenario.yaml",
    ],
}


def _cases() -> dict[str, list[str]]:
    cases = {}
    for fmt in ("table", "json"):
        for name, inputs in SCENARIO_INPUTS.items():
            cases[f"check {name} {fmt}"] = [
                "check", *inputs, "--scenario", f"data/scenarios/{name}.yaml", "--format", fmt,
            ]
        for name, (sender, receiver) in FLOWS.items():
            mode = "semantic" if name.startswith("semantic:") else "strict"
            cases[f"explain {name} {fmt}"] = ["explain", sender, receiver, *POLICIES, "--mode", mode, "--format", fmt]
        cases[f"reachability strict {fmt}"] = ["reachability", *POLICIES, *TOPOLOGY, "--format", fmt]
        cases[f"reachability empty {fmt}"] = [
            "reachability", *POLICIES, "--topology", "tests/data/empty-topology.yaml", "--format", fmt,
        ]
    return cases | ERROR_CASES


CASES = _cases()

# the loader base on libyaml's parser when PyYAML has it, and PyYAML's own
BASES = [ingest._BASE_LOADER] + ([yaml.SafeLoader] if yaml.__with_libyaml__ else [])


@functools.cache
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def run(argv: list[str]) -> dict:
    """The case's command line, exit code, standard output and standard
    error, run in process; argparse's own errors exit through SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    # argparse wraps its usage text to the terminal's width
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), mock.patch.dict(os.environ, COLUMNS="80"):
        try:
            code = main(argv)
        except SystemExit as exit:
            code = exit.code
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def test_every_scenario_is_covered():
    assert set(SCENARIO_INPUTS) == {path.stem for path in (ROOT / "data" / "scenarios").glob("*.yaml")}


def test_flows_cover_reversed_denials_and_allows():
    answers = [golden()[f"explain {name} table"]["stdout"] for name in FLOWS]
    assert sum("FAIL direction-orientation" in text for text in answers) >= 2
    assert sum("ALLOWED" in text for text in answers) >= 2


@pytest.mark.parametrize("name", list(CASES))
def test_output_matches_golden(name, monkeypatch):
    monkeypatch.chdir(ROOT)
    for base in BASES:
        monkeypatch.setattr(ingest, "_BASE_LOADER", base)
        assert run(CASES[name]) == golden()[name], base.__name__


if __name__ == "__main__":
    os.chdir(ROOT)
    results = {name: run(argv) for name, argv in CASES.items()}
    GOLDEN.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(results)} cases to {GOLDEN.relative_to(ROOT)}", file=sys.stderr)
