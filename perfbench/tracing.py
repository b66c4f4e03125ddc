"""Spans recorded from outside the program.

The tracer wraps the public functions each module calls on another
(``evaluate`` as reachability and scenario call it,
``canonical_policy_text`` as matching calls it, and so on) by swapping
the module attribute for a timing wrapper, and it restores the original
on exit.  Spans live in memory as (name, start ns, end ns, parent index)
and are written out once, at the end, each with the tracer's run id.  A
span's layer is its name up to the first dot.
"""

from __future__ import annotations

import gzip
import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self._stack = [-1]

    def wrap(self, name: str, fn):
        # the same steps as span(), without a context manager, because
        # the wrapper runs hundreds of thousands of times in a round
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)

        return traced

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1]
        self._stack.append(index)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent)

    @contextmanager
    def installed(self, targets):
        """Trace (module, attribute, span name) targets for the block."""
        originals = []
        try:
            for module, attribute, name in targets:
                original = getattr(module, attribute)
                originals.append((module, attribute, original))
                setattr(module, attribute, self.wrap(name, original))
            yield self
        finally:
            for module, attribute, original in reversed(originals):
                setattr(module, attribute, original)

    # --- analysis --------------------------------------------------------------

    def named(self, name: str) -> list:
        """Durations in seconds of every span with this name."""
        return [(end - start) / 1e9 for n, start, end, _ in self.spans if n == name]

    def self_seconds(self) -> list:
        """Per span: its duration minus the time its child spans cover.

        Children of a span run one after another on one thread, so their
        durations add up without overlap."""
        children = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                children[parent] += end - start
        return [(end - start - children[i]) / 1e9 for i, (_, start, end, _) in enumerate(self.spans)]

    def layer_self_seconds(self, root: str | None = None) -> dict:
        """Self time per layer, over all spans or under the first span
        named root (root included)."""
        own = self.self_seconds()
        inside = range(len(self.spans))
        if root is not None:
            top = next(i for i, span in enumerate(self.spans) if span[0] == root)
            inside = [i for i in inside if self._descends(i, top)]
        out: dict = defaultdict(float)
        for i in inside:
            out[self.spans[i][0].split(".", 1)[0]] += own[i]
        return dict(out)

    def _descends(self, index: int, ancestor: int) -> bool:
        while index >= 0:
            if index == ancestor:
                return True
            index = self.spans[index][3]
        return False

    def write(self, path) -> None:
        names = sorted({span[0] for span in self.spans})
        code = {name: i for i, name in enumerate(names)}
        doc = {
            "run_id": self.run_id,
            "fields": ["id", "parent", "name", "start_ns", "end_ns", "run_id"],
            "names": names,
            "spans": [
                [i, parent, code[name], start, end, self.run_id]
                for i, (name, start, end, parent) in enumerate(self.spans)
            ],
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            json.dump(doc, out, separators=(",", ":"))


def call_cost_s(calls: int = 20000, batches: int = 7) -> float:
    """Seconds that tracing adds to one call: a traced call of a function
    that does nothing minus an untraced one, median over batches."""

    def nothing():
        return None

    clock, costs = time.perf_counter_ns, []
    for _ in range(batches):
        traced = Tracer("calibration").wrap("calibration", nothing)
        start = clock()
        for _ in range(calls):
            traced()
        middle = clock()
        for _ in range(calls):
            nothing()
        end = clock()
        costs.append((middle - start - (end - middle)) / calls / 1e9)
    return statistics.median(costs)
