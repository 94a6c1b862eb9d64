"""Spans around the public calls of each sincov layer, recorded from outside.

A Tracer swaps each traced public function for a wrapper in every sincov
module namespace that refers to it, so calls made by the CLI and by other
library functions (bound_suite -> gauge_bound) are recorded too.  Spans stay in memory as plain tuples:

    (name, start, end, parent, op, size)

where parent is the index of the enclosing span (-1 at the top), op is the
operation id set by the caller, and size is the work count the call reports
(bytes parsed or rendered, triples scanned, checks produced), or 0.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager

SINCOV_MODULES = ("sincov", "sincov.kernel", "sincov.analysis", "sincov.ipspace", "sincov.cli")

TRACED = {
    "kernel": ("load_kernel", "save_kernel", "generate"),
    "analysis": (
        "sincov_defect",
        "slice_residual",
        "diagonal_report",
        "unit_diag_bound",
        "growth_witness",
        "gauge_bound",
        "bound_suite",
        "render_report",
    ),
    "ipspace": ("sample_vectors", "normalized_gram"),
}

def _size(name: str, args: tuple, result) -> int:
    """The work count a call reports, from its argument or result."""
    if name == "load_kernel":
        return len(args[0])
    if name in ("save_kernel", "render_report"):
        return len(result)
    if name == "sincov_defect":
        return result.triple_count
    if name == "bound_suite":
        return len(result)
    return 0


class Tracer:
    """In-memory span recorder; install() patches sincov, uninstall() restores."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.errors: dict[str, int] = defaultdict(int)
        self.op = 0  # operation id the next spans get; the caller sets it
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), None, parent, self.op, 0))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            name_, start, _, parent_, op, size_ = self.spans[index]
            self.spans[index] = (name_, start, time.perf_counter(), parent_, op, size_)

    def _wrap(self, layer: str, name: str, func):
        tracer = self

        def traced(*args, **kwargs):
            index = len(tracer.spans)
            with tracer.span(f"{layer}.{name}"):
                try:
                    result = func(*args, **kwargs)
                except Exception:
                    tracer.errors[layer] += 1
                    raise
            span = tracer.spans[index]
            tracer.spans[index] = span[:5] + (_size(name, args, result),)
            return result

        traced.__wrapped__ = func
        return traced

    def install(self) -> None:
        modules = [sys.modules[m] for m in SINCOV_MODULES if m in sys.modules]
        for layer, names in TRACED.items():
            home = sys.modules[f"sincov.{layer}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(layer, name, original)
                for module in modules:
                    if getattr(module, name, None) is original:
                        setattr(module, name, wrapper)
                        self._patched.append((module, name, original))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()


def op_stats(spans: list[tuple]) -> dict[str, dict[str, float]]:
    """Per span name: inclusive seconds, self seconds and summed size.

    Self time is a span's duration minus the durations of its direct
    children; calls are sequential, so children never overlap.
    """
    child_time = defaultdict(float)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats: dict[str, dict[str, float]] = {}
    for i, (name, start, end, _, _, size) in enumerate(spans):
        entry = stats.setdefault(name, {"s": 0.0, "self_s": 0.0, "size": 0})
        entry["s"] += end - start
        entry["self_s"] += end - start - child_time[i]
        entry["size"] += size
    return stats
