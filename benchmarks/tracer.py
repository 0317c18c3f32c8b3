"""Spans recorded from outside the program, and the per-layer numbers they give.

The tracer replaces a module attribute (such as ``phasorlife.cli.step_grid``)
with a wrapper that records a span around each call. Spans stay in memory
as ``[id, parent, name, start, end, attrs]`` lists and are written out once,
at exit. The program runs single-threaded, so one stack gives each span its
parent.
"""

from __future__ import annotations

import json
import math
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        rec = [len(self.spans), self._stack[-1] if self._stack else None, name, 0.0, 0.0, None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        rec[3] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[4] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def wrap(self, module, attr: str, name: str, measure: Callable | None = None) -> None:
        """Trace every call of ``module.attr``; ``measure(args, result)`` gives the span's attrs.

        ``measure`` runs after the span ends, so its cost lands in the parent's self time.
        """
        fn = getattr(module, attr)

        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if measure is not None:
                rec[5] = measure(args, result)
            return result

        setattr(module, attr, traced)

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans), encoding="utf-8")


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for sid, parent, _name, start, end, _attrs in spans:
        if parent is not None:
            children[parent].append((start, end))
    return [end - start - _covered(children[sid], start, end) for sid, _p, _n, start, end, _a in spans]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, 0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q / 100 * len(ordered)) - 1))]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list], iterations: int) -> dict[str, float]:
    """Per-layer numbers per workload iteration, keyed by the names in BENCHMARK.json.

    A layer that the workload never calls reads 0.
    """
    selfs = self_times(spans)
    self_s: dict[str, float] = defaultdict(float)
    dur: dict[str, list[float]] = defaultdict(list)
    attrs: dict[str, list[dict]] = defaultdict(list)
    for (_sid, _p, name, start, end, extra), own in zip(spans, selfs):
        self_s[name] += own
        dur[name].append(end - start)
        if extra is not None:
            attrs[name].append(extra)

    def total(name: str, key: str) -> float:
        return sum(a[key] for a in attrs[name])

    per = 1.0 / max(iterations, 1)
    step_us = [d * 1e6 for d in dur["rules.step_grid"]]
    verdicts = [a["verdict"] for a in attrs["analysis.classify"]]
    m = {
        "state.parse_pattern.s": sum(dur["state.parse_pattern"]) * per,
        "state.parse_pattern.tokens_per_s": _ratio(
            total("state.parse_pattern", "cells"), sum(dur["state.parse_pattern"])
        ),
        "rules.step_grid.calls": len(dur["rules.step_grid"]) * per,
        "rules.step_grid.cells": total("rules.step_grid", "cells") * per,
        "rules.step_grid.self_s": self_s["rules.step_grid"] * per,
        "rules.step_grid.ns_per_cell": _ratio(
            self_s["rules.step_grid"] * 1e9, total("rules.step_grid", "cells")
        ),
        "rules.step_grid.call_us.p50": percentile(step_us, 50),
        "rules.step_grid.call_us.p99": percentile(step_us, 99),
        "analysis.classify.calls": len(verdicts) * per,
        "analysis.classify.generations": total("analysis.classify", "generations") * per,
        "analysis.classify.self_s": self_s["analysis.classify"] * per,
        "analysis.classify.self_us_per_generation": _ratio(
            self_s["analysis.classify"] * 1e6, total("analysis.classify", "generations")
        ),
        "analysis.sweep_phase.self_s": self_s["analysis.sweep_phase"] * per,
        "analysis.resolved_ratio": _ratio(
            sum(v != "unresolved" for v in verdicts), len(verdicts)
        ),
    }
    for fmt in ("ascii", "ppm", "csv"):
        name = f"render.render_{fmt}"
        m[f"{name}.self_s"] = self_s[name] * per
        m[f"{name}.ns_per_cell"] = _ratio(self_s[name] * 1e9, total(name, "cells"))
    m["render.bytes"] = sum(total(f"render.render_{f}", "bytes") for f in ("ascii", "ppm", "csv")) * per
    m["oracle.conway_step.self_s"] = self_s["oracle.conway_step"] * per
    m["oracle.project.self_s"] = self_s["oracle.project"] * per
    m["cli.main.self_s"] = self_s["cli.main"] * per
    return m
