"""Tests of the benchmark itself: the generator is deterministic, and the
reference agrees with the frozen golden file and with what the generator
built.  Run with ``python -m pytest perfbench/tests`` from the repo root."""

from __future__ import annotations

import json
from pathlib import Path
from types import SimpleNamespace

import pytest

import expected
import reference
import tracing
import workloads
from flowcheck import assemble_state, expand_rules, parse_cilium_policy, parse_scenario, parse_topology
from flowcheck.matching import MatchMode
from flowcheck.model import endpoint_to_dict
from flowcheck.scenario import run_scenario

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_byte_identical_for_a_seed(name, tmp_path):
    first = workloads.generate(name, 7).write(tmp_path / "a")
    second = workloads.generate(name, 7).write(tmp_path / "b")
    assert first == second
    for rel in first:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()
    assert workloads.generate(name, 8).files() != first


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_shape_does_not_depend_on_the_seed(name):
    shapes = set()
    for seed in (1, 2, 3):
        wl = workloads.generate(name, seed)
        policies = [p for doc in wl.docs for p in expand_rules(parse_cilium_policy(workloads.policy_yaml(doc)))]
        shapes.add((len(wl.docs), len(policies), len(wl.flows), len(wl.steps), len(wl.verdict_flows)))
    assert len(shapes) == 1


def test_reference_reproduces_the_reachability_golden_file():
    policies = []
    for path in sorted((ROOT / "data" / "policies").glob("*.yaml")):
        policies += expand_rules(parse_cilium_policy(path.read_text(encoding="utf-8")))
    topology = parse_topology((ROOT / "data" / "topology" / "ics.yaml").read_text(encoding="utf-8"))
    state, _ = assemble_state(policies, topology)
    golden = json.loads((ROOT / "tests" / "data" / "reachability_golden.json").read_text(encoding="utf-8"))

    matrix = reference.reachability(state, "strict")
    allowed = sorted(
        (sid, rid, json.dumps(endpoint_to_dict(ep), sort_keys=True))
        for (sid, rid, ep), (ok, witness) in matrix.items()
        if ok
    )
    assert len(matrix) == golden["total_entries"] == 37
    assert allowed == sorted(
        (e["sender"], e["receiver"], json.dumps(e["endpoint"], sort_keys=True)) for e in golden["allowed"]
    )
    assert len(allowed) == 3


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_reference_agrees_with_the_generator(name):
    wl = workloads.generate(name, 3)
    files = wl.files()
    policies = []
    for rel in sorted(files):
        if rel.startswith("policies/"):
            policies += expand_rules(parse_cilium_policy(files[rel]))
    topology = parse_topology(files["topology.yaml"])
    script = parse_scenario(files["scenario.yaml"], symbols=topology[0])
    state, _ = assemble_state(policies, topology)

    name_of = {ep: key for key, ep in topology[0].items()}
    matrix = reference.reachability(state, wl.mode)
    assert {
        workloads.flow_key(sid, rid, name_of[ep]): ok for (sid, rid, ep), (ok, _) in matrix.items()
    } == wl.flows
    assert reference.replay(script.steps, state, wl.mode) == [outcome for _, outcome in wl.steps]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_the_parsed_inputs_match_the_generator_model(name):
    wl = workloads.generate(name, 4)
    files = wl.files()
    policies = []
    for rel in sorted(files):
        if rel.startswith("policies/"):
            policies += expand_rules(parse_cilium_policy(files[rel]))
    topology = parse_topology(files["topology.yaml"])
    script = parse_scenario(files["scenario.yaml"], symbols=topology[0])
    state, _ = assemble_state(policies, topology)
    model = expected.Model(wl)

    assert expected.mismatches(model, SimpleNamespace(state=state, policies=policies, script=script)) == []
    report = run_scenario(script.steps, mode=MatchMode(wl.mode), initial_state=state)
    assert report.passed and expected.final_policies_match(model, report.final_state)
    assert not expected.final_policies_match(model, state)

    # a parse that loses one policy is the program's fault, and is reported
    shorter, _ = assemble_state(policies[1:], topology)
    wrong = expected.mismatches(model, SimpleNamespace(state=shorter, policies=policies[1:], script=script))
    assert wrong and wrong[0].startswith("expanded policies")


def test_the_tracer_cost_per_call_is_positive():
    assert 0 < tracing.call_cost_s(calls=2000, batches=3) < 1e-4


def test_benchmark_json_lists_the_metrics_a_run_prints():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
