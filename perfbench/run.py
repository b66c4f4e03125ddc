"""End-to-end and per-layer benchmark of flowcheck.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload reach-strict --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seed 1

The seed drives a generator (``workloads.py``) that writes policy,
topology and scenario YAML under ``.perfbench/``; the program sees only
those files.  One run repeats rounds while the next one still fits in
``--seconds`` (at least three rounds).  A round is what a user waits
for: load the files (``setup_s``), compute the reachability matrix
(``reach_s``), run the scenario (``scenario_s``), decide a slice of
single flows one call at a time (``verdict_p90_us``), and run one CLI
process on the same files (``cli_s``, ``cli_peak_rss_mb``).

Before the rounds, the program's parsed inputs are compared with the
generator's own model of them (``expected.py``); the expected answers
are the generator's verdicts and step outcomes, and ``reference.py``
supplies the witness of each allowed flow.  Every verdict, step outcome,
CLI answer and the policy set a script leaves is checked, and a call
that raises counts as a wrong outcome; ``failed`` counts the outcomes
that disagree.

With ``--trace 1`` the run instead makes one traced round, times the
scaling sweep and the single operations, and reports the per-layer
metrics; the spans go to ``.perfbench/<workload>-trace.json.gz``.

Everything runs in one process on one thread; CLI processes are started
one at a time and waited for.  The last line of standard output is one
JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import expected
import workloads
from workloads import SWEEP_SIZES, VERDICT_FLOWS, WORKLOADS, flow_key

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
MIN_ROUNDS = 3
REPEAT_S = 0.3  # a step shorter than this is repeated within a round
SWEEP_FLOWS = 30

# Each metric is the mean of its samples in the run, except the 90th
# percentile of the per-flow times.  On a shared host the per-flow times
# fall into a fast and a slow mode whose mix drifts from run to run and
# can leave one mode out of a run: the median and the mean follow the
# mix, the 10th percentile lands in either mode, and the 99th follows
# stray stalls, while the 90th stays inside the slow mode unless a run
# has almost none of it.  A run has only a few samples of each long
# step, and their mean is steadier than their median.
END_TO_END = {
    "setup_s": "s",
    "reach_s": "s",
    "verdict_p90_us": "us",
    "scenario_s": "s",
    "cli_s": "s",
    "cli_peak_rss_mb": "MB",
}

# the layer boundaries the traced round records: (module, attribute, span)
TRACE_POINTS = (
    ("ingest", "parse_cilium_policy", "ingest.parse_cilium_policy"),
    ("ingest", "expand_rules", "ingest.expand_rules"),
    ("ingest", "parse_topology", "ingest.parse_topology"),
    ("ingest", "parse_scenario", "ingest.parse_scenario"),
    ("ingest", "assemble_state", "ingest.assemble_state"),
    ("ingest", "create_endpoint", "scenario.create_endpoint"),
    ("ingest", "deploy_application", "scenario.deploy_application"),
    ("reachability", "compute_reachability", "reachability.compute_reachability"),
    ("reachability", "evaluate", "matching.evaluate"),
    ("reachability", "canonical_endpoint_text", "model.canonical_endpoint_text"),
    ("matching", "evaluate", "matching.evaluate"),
    ("matching", "canonical_policy_text", "model.canonical_policy_text"),
    ("scenario", "run_scenario", "scenario.run_scenario"),
    ("scenario", "create_endpoint", "scenario.create_endpoint"),
    ("scenario", "create_policy", "scenario.create_policy"),
    ("scenario", "deploy_application", "scenario.deploy_application"),
    ("scenario", "send_data", "scenario.send_data"),
    ("scenario", "evaluate", "matching.evaluate"),
    ("scenario", "canonical_policy_text", "model.canonical_policy_text"),
)
LAYERS = ("ingest", "model", "matching", "reachability", "scenario")  # cli: see cli.wall_s


class BenchmarkInvalid(Exception):
    """The generator and the reference disagree on inputs the program
    parsed as the generator meant them: the benchmark, not the program,
    is wrong."""


class ProgramFailed(Exception):
    """The program could not load the generated inputs at all, so there
    is nothing to measure."""


def import_program():
    """Import flowcheck from this checkout's src/, or exit 2."""
    if not (SRC / "flowcheck" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program at {SRC / 'flowcheck'}")
    sys.path.insert(0, str(SRC))
    import flowcheck
    import flowcheck.ingest
    import flowcheck.matching
    import flowcheck.model
    import flowcheck.reachability
    import flowcheck.scenario

    if Path(flowcheck.__file__).resolve().parent != (SRC / "flowcheck").resolve():
        sys.exit(f"perfbench: imported flowcheck from {flowcheck.__file__}, not {SRC}")
    return flowcheck


class Check:
    """Counts outcomes compared with the reference and those that differ."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.examples: list = []

    def __call__(self, ok: bool, what) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.examples) < 5:
                self.examples.append(what() if callable(what) else what)

    def answer(self, result, what: str) -> bool:
        """False, and one wrong outcome, if the call raised."""
        if isinstance(result, Exception):
            self(False, f"{what} raised {result!r}")
            return False
        return True

    @contextlib.contextmanager
    def reading(self, what: str):
        """Count an answer that cannot be read as a wrong outcome."""
        try:
            yield
        except Exception as exc:
            self(False, f"{what}: unreadable answer, {exc!r}")


@dataclass
class Loaded:
    state: object
    script: object
    named: dict  # topology endpoint name -> endpoint
    policies: list  # every expanded policy, before duplicates collapse
    documents: int
    rules: int
    bytes: int


def repeat(fn, min_seconds: float):
    """Call fn until min_seconds have passed (at least once); return the
    time of each call and the last result, or the exception the call
    raised (its time counts too)."""
    gc.collect()
    times, total = [], 0.0
    while True:
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:
            times.append(time.perf_counter() - start)
            return times, exc
        elapsed = time.perf_counter() - start
        times.append(elapsed)
        total += elapsed
        if total >= min_seconds:
            return times, result


class Session:
    """One workload at one seed: its files, references and the program."""

    def __init__(self, fc, name: str, seed: int):
        self.fc = fc
        self.name = name
        self.wl = workloads.generate(name, seed)
        self.mode = fc.matching.MatchMode(self.wl.mode)
        self.dir = WORK / "inputs" / name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.wl.write(self.dir)
        self.policy_files = sorted(self.dir.glob("policies/*.yaml"))
        self.topology_file = self.dir / "topology.yaml"
        self.scenario_file = self.dir / "scenario.yaml"
        self.check = Check()
        self.model = expected.Model(self.wl)
        self._prepare_references()

    # --- the program, as a library user calls it -------------------------------

    def load(self) -> Loaded:
        ingest = self.fc.ingest
        size, expanded, documents, rules = 0, [], 0, 0
        for path in self.policy_files:
            text = path.read_text(encoding="utf-8")
            size += len(text)
            doc = ingest.parse_cilium_policy(text)
            documents += 1
            rules += len(doc.ingress_rules) + len(doc.egress_rules)
            expanded += ingest.expand_rules(doc)
        topology_text = self.topology_file.read_text(encoding="utf-8")
        scenario_text = self.scenario_file.read_text(encoding="utf-8")
        size += len(topology_text) + len(scenario_text)
        topology = ingest.parse_topology(topology_text)
        script = ingest.parse_scenario(scenario_text, symbols=topology[0])
        state, _ = ingest.assemble_state(expanded, topology)
        return Loaded(state, script, dict(topology[0]), expanded, documents, rules, size)

    def reach(self, state):
        return self.fc.reachability.compute_reachability(state, self.mode)

    def run_script(self, loaded: Loaded):
        return self.fc.scenario.run_scenario(loaded.script.steps, mode=self.mode, initial_state=loaded.state)

    def cli_args(self) -> list:
        policies = ["--policies", *map(str, self.policy_files), "--topology", str(self.topology_file)]
        if self.name == "scenario-churn":
            return ["check", *policies, "--scenario", str(self.scenario_file), "--format", "json"]
        return ["reachability", *policies, "--mode", self.wl.mode, "--format", "json"]

    # --- references ---------------------------------------------------------------

    def _prepare_references(self) -> None:
        """Check the program's parse against the generator's model, then
        derive the expected answers: allowed or not, and each step's
        outcome, from the generator; the witness of each allowed flow
        from the reference."""
        import reference

        try:
            loaded = self.load()
        except Exception as exc:
            raise ProgramFailed(f"loading the generated inputs raised {exc!r}") from exc
        self.loaded = loaded
        wrong = expected.mismatches(self.model, loaded)
        self.check(not wrong, lambda: "program's parse differs from the generated inputs: " + "; ".join(wrong))

        named, mode = loaded.named, self.wl.mode
        ref_matrix = reference.reachability(loaded.state, mode)
        ref_steps = reference.replay(loaded.script.steps, loaded.state, mode)
        outcomes = [outcome for _, outcome in self.wl.steps]
        if not wrong:
            # inputs verified: a disagreement now is the benchmark's fault
            name_of = {ep: name for name, ep in named.items()}
            by_key = {flow_key(s, r, name_of[ep]): allowed for (s, r, ep), (allowed, _) in ref_matrix.items()}
            if by_key != self.wl.flows:
                bad = sorted(k for k in set(by_key) | set(self.wl.flows) if by_key.get(k) != self.wl.flows.get(k))
                raise BenchmarkInvalid(f"reference and generator disagree on flows {bad[:5]}")
            if ref_steps != outcomes:
                i = next(i for i, (a, b) in enumerate(zip(ref_steps, outcomes)) if a != b)
                raise BenchmarkInvalid(f"reference and generator disagree on step {i}: {ref_steps[i]} vs {outcomes[i]}")

        # (sender id, receiver id, endpoint) -> (allowed, witness)
        self.expected_matrix = {}
        for key, allowed in self.wl.flows.items():
            sid, rid, ep = key.split()
            flow = (int(sid), int(rid), named.get(ep))
            witness = ref_matrix.get(flow, (None, None))[1]
            self.expected_matrix[flow] = (allowed, witness if allowed else None)
        self.expected_steps = outcomes
        send_of = {app.app_id: app.send for app in self.wl.apps}
        self.flows = []
        for key, allowed in self.wl.verdict_flows:
            sid, _, ep = key.split()
            self.flows.append((named.get(send_of[int(sid)]), named.get(ep), allowed))

    # --- checks of each answer ------------------------------------------------------

    def check_matrix(self, matrix) -> None:
        check = self.check
        with check.reading("reachability"):
            check(len(matrix.entries) == len(self.expected_matrix), "reachability covers another set of flows")
            for key, (allowed, witness) in self.expected_matrix.items():
                verdict = matrix.entries.get(key)
                check(
                    verdict is not None and verdict.allowed == allowed
                    and _same_policy(verdict.matched_policy, witness),
                    lambda: f"reachability {key[0]}->{key[1]}: {verdict}",
                )

    def check_report(self, report) -> None:
        check = self.check
        with check.reading("scenario"):
            check(report.passed and report.steps_run == len(self.expected_steps), "scenario did not pass")
            actual = [outcome.actual for outcome in report.outcomes]
            for i, want in enumerate(self.expected_steps):
                check(i < len(actual) and actual[i] == want, lambda: f"step {i}: {actual[i:i + 1]} != {want}")
            check(expected.final_policies_match(self.model, report.final_state),
                  "the script left another policy set than it created")

    def check_cli(self, code: int, out: bytes) -> None:
        """The CLI's answer against the same expected answers as the
        in-process result, so where the two disagree at least one of them
        counts as wrong."""
        import reference

        check = self.check
        check(code == 0, f"CLI exited with {code}")
        with check.reading("CLI output"):
            doc = json.loads(out)
            if self.name == "scenario-churn":
                got = [(o["step_index"], o["actual"], o["matched"]) for o in doc["outcomes"]]
                want = [(i, outcome, True) for i, outcome in enumerate(self.expected_steps)]
                check(len(got) == len(want), "CLI reports another number of steps")
                for i, expect in enumerate(want):
                    check(i < len(got) and got[i] == expect, lambda: f"CLI step {i}: {got[i:i + 1]}")
                return
            got = {}
            for entry in doc["entries"]:
                key = (entry["sender"], entry["receiver"], json.dumps(entry["endpoint"], sort_keys=True))
                got[key] = (entry["allowed"], entry.get("matched_policy"))  # absent on a denial
            check(len(got) == len(self.expected_matrix), "CLI reports another number of flows")
            for (sid, rid, ep), (allowed, witness) in self.expected_matrix.items():
                key = (sid, rid, json.dumps(reference.endpoint_json(ep), sort_keys=True) if ep else None)
                want = (allowed, None if witness is None else reference.policy_json(witness))
                check(got.get(key) == want, lambda: f"CLI flow {sid}->{rid}: {got.get(key)}")

    # --- one round ------------------------------------------------------------------

    def round(self, samples: dict, flows, repeat_s: float, tracer=None) -> dict:
        """Load, reach, script, per-flow verdicts, CLI; add each time to
        samples and return what the per-layer report needs."""
        check = self.check
        times, loaded = repeat(self.load, repeat_s)
        samples["setup_s"] += times
        if not check.answer(loaded, "loading the inputs"):
            loaded = self.loaded  # the rest of the round works on the first load
        times, matrix = repeat(lambda: self.reach(loaded.state), repeat_s)
        samples["reach_s"] += times
        if check.answer(matrix, "compute_reachability"):
            self.check_matrix(matrix)
        times, report = repeat(lambda: self.run_script(loaded), repeat_s)
        samples["scenario_s"] += times
        if check.answer(report, "run_scenario"):
            self.check_report(report)

        state = loaded.state
        policies, matching, mode = state.policies, self.fc.matching, self.mode
        clock = time.perf_counter_ns
        verdicts = []
        gc.collect()
        for send, target, allowed in flows:
            start = clock()
            try:
                verdict = matching.evaluate(policies, send, target, mode)
            except Exception as exc:  # a raising verdict is a wrong outcome
                verdict = exc
            samples["verdict_ns"].append(clock() - start)
            verdicts.append(verdict)
            check(getattr(verdict, "allowed", None) == allowed,
                  lambda: f"verdict {send} -> {target}: {verdict!r}, expected allowed={allowed}")

        with tracer.span("cli.process") if tracer else contextlib.nullcontext():
            wall, rss, code, out = run_cli(self.cli_args())
        samples["cli_s"].append(wall)
        samples["cli_peak_rss_mb"].append(rss)
        self.check_cli(code, out)
        return {"loaded": loaded, "matrix": matrix, "report": report, "verdicts": verdicts}


def _same_policy(policy, witness) -> bool:
    if policy is None or witness is None:
        return policy is witness
    return policy == witness and policy.origin == witness.origin


def run_cli(args: list):
    """Run one `python -m flowcheck` process through launch.py; return its
    wall seconds, peak RSS in MB, exit code and standard output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    report = WORK / "cli-report.json"
    report.unlink(missing_ok=True)
    launcher = [sys.executable, str(Path(__file__).with_name("launch.py")), str(report)]
    with open(WORK / "cli-stderr.txt", "wb") as err:
        done = subprocess.run([*launcher, sys.executable, "-m", "flowcheck", *args],
                              stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT, check=True)
    result = json.loads(report.read_text(encoding="utf-8"))
    return result["wall_s"], result["peak_rss_kb"] / 1024, result["exit"], done.stdout


def python_wall(code: str) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT,
                   env=dict(os.environ, PYTHONPATH=str(SRC)))
    return time.perf_counter() - start


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def new_samples() -> dict:
    return {name: [] for name in ("setup_s", "reach_s", "scenario_s", "cli_s", "cli_peak_rss_mb", "verdict_ns")}


def end_to_end(samples: dict) -> dict:
    us = [ns / 1000 for ns in samples["verdict_ns"]]
    values = {name: statistics.fmean(samples[name]) for name in END_TO_END if name in samples}
    values["verdict_p90_us"] = percentile(us, 90)
    counts = {name: len(samples[name]) for name in END_TO_END if name in samples}
    counts["verdict_p90_us"] = len(us)
    return {name: (values[name], END_TO_END[name], counts[name]) for name in END_TO_END}


# --- --trace 0 ------------------------------------------------------------------------


def measure(session: Session, seconds: float) -> dict:
    samples = new_samples()
    flows = session.flows
    start, rounds, last = time.perf_counter(), 0, 0.0
    # stop before a round that would end past the time budget
    while rounds < MIN_ROUNDS or time.perf_counter() - start + last <= seconds:
        first = (rounds % (len(flows) // VERDICT_FLOWS)) * VERDICT_FLOWS
        began = time.perf_counter()
        session.round(samples, flows[first:first + VERDICT_FLOWS], REPEAT_S)
        last = time.perf_counter() - began
        rounds += 1
    print(f"# {session.name}: {rounds} rounds in {time.perf_counter() - start:.1f} s")
    (WORK / f"{session.name}-samples.json").write_text(json.dumps(samples))
    return end_to_end(samples)


# --- --trace 1 ------------------------------------------------------------------------


def measure_layers(session: Session) -> dict:
    """One traced round over every verdict flow, then the single-operation
    timings that the round cannot separate."""
    import tracing

    fc = session.fc
    tracer = tracing.Tracer(f"{session.name}:{session.wl.seed}")
    targets = [(getattr(fc, module), attribute, name) for module, attribute, name in TRACE_POINTS]
    samples = new_samples()
    start = time.perf_counter()
    with tracer.installed(targets), tracer.span("bench.round"):
        got = session.round(samples, session.flows, 0.0, tracer)
    traced = time.perf_counter() - start - samples["cli_s"][0]
    tracer.write(WORK / f"{session.name}-trace.json.gz")

    loaded, matrix, report, verdicts = got["loaded"], got["matrix"], got["report"], got["verdicts"]
    for answer in (matrix, report):
        if isinstance(answer, Exception):
            raise ProgramFailed(f"the traced round raised {answer!r}")
    verdict_us = tracer.named("matching.evaluate")[-len(verdicts):]
    allowed = [getattr(v, "allowed", False) for v in verdicts]  # a raised error counts as a denial here
    allow_us = [t * 1e6 for t, ok in zip(verdict_us, allowed) if ok]
    deny_us = [t * 1e6 for t, ok in zip(verdict_us, allowed) if not ok]
    denials = [v for v, ok in zip(verdicts, allowed) if not ok and hasattr(v, "failed_predicates")]
    reach = tracer.named("reachability.compute_reachability")
    evaluations = tracer.named("matching.evaluate")
    layer_self = tracer.layer_self_seconds()
    reach_self = tracer.layer_self_seconds("reachability.compute_reachability")

    m = {}

    def put(name, value, unit, n=1):
        m[name] = (value, unit, n)

    for metric, span in (("parse_policy_s", "parse_cilium_policy"), ("expand_s", "expand_rules"),
                         ("parse_topology_s", "parse_topology"), ("parse_scenario_s", "parse_scenario"),
                         ("assemble_s", "assemble_state")):
        times = tracer.named(f"ingest.{span}")
        put(f"ingest.{metric}", sum(times), "s", len(times))
    put("ingest.bytes", loaded.bytes, "bytes")
    put("ingest.documents", loaded.documents, "count")
    put("ingest.rules", loaded.rules, "count")
    put("ingest.policies_expanded", len(loaded.policies), "count")
    put("ingest.policies_collapsed", len(loaded.policies) - len(loaded.state.policies), "count")

    canonical = fc.model.canonical_policy_text
    policies = list(loaded.state.policies)
    times, _ = repeat(lambda: [canonical(p) for p in policies], 0.2)
    put("model.canonical_text_s", statistics.median(times), "s", len(times))
    put("model.policies", len(policies), "count")

    put("matching.evaluate_calls", len(evaluations), "count")
    put("matching.evaluate_s", sum(evaluations), "s", len(evaluations))
    put("matching.allow_us_p50", statistics.median(allow_us) if allow_us else 0.0, "us", len(allow_us))
    put("matching.deny_us_p50", statistics.median(deny_us) if deny_us else 0.0, "us", len(deny_us))
    put("matching.allowed_ratio", len(allow_us) / len(verdicts), "ratio", len(verdicts))
    put("matching.failed_predicates_per_deny",
        statistics.fmean(len(v.failed_predicates) for v in denials) if denials else 0.0, "count", len(denials))
    for size, (median_us, n) in sweep(session, loaded.state).items():
        put(f"matching.evaluate_us.P{size}", median_us, "us", n)

    entries = len(matrix.entries)
    put("reachability.compute_s", reach[0], "s")
    put("reachability.entries", entries, "count")
    put("reachability.allowed", sum(v.allowed for v in matrix.entries.values()), "count")
    put("reachability.us_per_entry", reach[0] / entries * 1e6, "us", entries)
    put("reachability.explanation_items",
        sum(len(v.failed_predicates) for v in matrix.entries.values()), "count")

    run = tracer.named("scenario.run_scenario")
    put("scenario.run_s", run[0], "s")
    put("scenario.steps_run", report.steps_run, "count")
    put("scenario.mismatched_steps", sum(not o.matched for o in report.outcomes), "count")
    writes, policy_writes, sends = replay_operations(session, loaded)
    put("scenario.write_us_p50", statistics.median(writes), "us", len(writes))
    put("scenario.create_policy_us_p50", statistics.median(policy_writes), "us", len(policy_writes))
    put("scenario.write_share", sum(writes) / (sum(writes) + sum(sends)), "ratio", len(writes) + len(sends))
    put("scenario.send_us_p50", statistics.median(sends), "us", len(sends))

    imports = [python_wall("import flowcheck.cli") for _ in range(3)]
    bare = [python_wall("pass") for _ in range(3)]
    put("cli.import_s", statistics.median(imports) - statistics.median(bare), "s", 3)
    put("cli.wall_s", tracer.named("cli.process")[0], "s")

    for layer in LAYERS:
        put(f"{layer}.self_s", layer_self.get(layer, 0.0), "s")
    inside = reach_self.get("model", 0.0) + reach_self.get("matching", 0.0)
    put("trace.model_matching_share", inside / reach[0], "ratio")
    put("trace.overhead_s", tracing.call_cost_s() * len(tracer.spans), "s", len(tracer.spans))
    put("trace.spans", len(tracer.spans), "count")
    put("check.wrong_ratio", session.check.failed / session.check.attempted, "ratio", session.check.attempted)
    print(f"# {session.name}: in-process part of the traced round {traced:.2f} s")
    print("# self time per layer over the traced round: "
          + ", ".join(f"{k} {v:.3f} s" for k, v in sorted(layer_self.items())))
    print(f"# inside compute_reachability ({reach[0]:.3f} s), self time: "
          + ", ".join(f"{k} {v:.3f} s" for k, v in sorted(reach_self.items())))
    return m


def sweep(session: Session, state) -> dict:
    """evaluate on nested prefixes of the policies the verdict flows are
    decided against, followed by policies of apps that are never
    deployed; once a prefix holds all of the former, no verdict changes."""
    fc = session.fc
    pool = sorted(state.policies, key=fc.model.canonical_policy_text)
    for text in session.wl.sweep_docs:
        pool += fc.ingest.expand_rules(fc.ingest.parse_cilium_policy(text))
    flows = session.flows[:SWEEP_FLOWS]
    out = {}
    for size in SWEEP_SIZES:
        subset = frozenset(pool[:size])
        times = []
        gc.collect()
        for send, target, allowed in flows:
            start = time.perf_counter_ns()
            verdict = fc.matching.evaluate(subset, send, target, session.mode)
            times.append((time.perf_counter_ns() - start) / 1000)
            if size >= len(state.policies):
                session.check(verdict.allowed == allowed, f"sweep P{size}: verdict differs")
        out[size] = (statistics.median(times), len(times))
    return out


def replay_operations(session: Session, loaded: Loaded):
    """Time each scripted step as a direct call of its operation;
    return (write µs, create_policy µs, send µs)."""
    sc = session.fc.scenario
    violation = session.fc.errors.ContractViolation
    state, writes, policy_writes, sends = loaded.state, [], [], []
    clock = time.perf_counter_ns
    gc.collect()
    for step in loaded.script.steps:
        args = step.arguments
        start = clock()
        try:
            if step.action == "create_endpoint":
                state, _ = sc.create_endpoint(state, args["cidr"], args["namespace"], args["port"], args["label"])
            elif step.action == "create_policy":
                state, _ = sc.create_policy(state, args["first"], args["second"], args["direction"])
            elif step.action == "deploy_application":
                state = sc.deploy_application(state, args["id"], args["send"], args["listen"], args["receive_only"])
            else:
                state, _ = sc.send_data(state, args["from"], args["to"], args["endpoint"], session.mode)
        except violation:
            pass
        elapsed = (clock() - start) / 1000
        (sends if step.action == "send_data" else writes).append(elapsed)
        if step.action == "create_policy":
            policy_writes.append(elapsed)
    return writes, policy_writes, sends


# --- entry point ----------------------------------------------------------------------


def run_one(fc, name: str, seed: int, seconds: float, trace: bool) -> dict:
    session = Session(fc, name, seed)
    metrics = measure_layers(session) if trace else measure(session, seconds)
    check = session.check
    for example in check.examples:
        print(f"# wrong: {example}", file=sys.stderr)
    wrong_ratio = check.failed / check.attempted
    print(f"# {name} seed {seed}: wrong_ratio {wrong_ratio:.6f} ratio "
          f"({check.failed} of {check.attempted} outcomes)")
    for metric, (value, unit, n) in metrics.items():
        print(f"{name}  {metric:36s} {value:14.6f} {unit:6s} n={n}")
    return {
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {metric: {"value": value, "unit": unit} for metric, (value, unit, _) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    fc = import_program()
    WORK.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_one(fc, name, args.seed, args.seconds, bool(args.trace)) for name in names]
    except BenchmarkInvalid as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    except ProgramFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for result in results:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
