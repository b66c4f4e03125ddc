"""The benchmark's traced round, run once per workload.

``perfbench/run.py --trace 1`` reads program attributes and CLI JSON
fields (``report.steps_run``, ``step.arguments``,
``verdict.failed_predicates``, the outcome keys of ``check --format
json``) that a refactor can rename or drop.  A run checks every verdict
and step outcome it makes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["reach-strict", "reach-semantic", "scenario-churn"])
def test_traced_round_runs_and_agrees(workload):
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--trace", "1"],
        cwd=REPO, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    last = json.loads(result.stdout.strip().splitlines()[-1])
    assert last["failed"] == 0 and last["attempted"] > 0, result.stderr[-2000:]
