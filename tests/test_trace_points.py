"""The benchmark's traced round wraps module attributes by name; a
refactor that moves or renames one breaks ``perfbench/run.py --trace 1``.

The names are read from the benchmark's source, not imported, so this
test needs nothing from perfbench but its text.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

RUN_PY = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def _trace_points():
    tree = ast.parse(RUN_PY.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "TRACE_POINTS" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py defines no TRACE_POINTS")


def test_every_trace_point_resolves():
    points = _trace_points()
    assert points
    for module, attribute, span in points:
        wrapped = getattr(importlib.import_module(f"flowcheck.{module}"), attribute, None)
        assert wrapped is not None, f"flowcheck.{module}.{attribute} is gone"
        # the span names the function's home module
        home, _, name = span.rpartition(".")
        assert wrapped is getattr(importlib.import_module(f"flowcheck.{home}"), name, None), span
