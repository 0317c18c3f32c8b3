from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from phasorlife import Grid, PatternDocument, parse_pattern, rules

TESTS_DIR = Path(__file__).resolve().parent
PATTERNS_DIR = TESTS_DIR.parent / "patterns"


def load_pattern(name: str) -> PatternDocument:
    return parse_pattern((PATTERNS_DIR / name).read_text(encoding="utf-8"))


def probability_drift(g1: Grid, g2: Grid) -> float:
    """Largest per-cell change of the alive probability |a|^2 between two grids."""
    return float(np.max(np.abs(g1.alive_probability() - g2.alive_probability())))


def step_on_cpus(stepper, cpus: int, *args) -> Grid:
    """``stepper(*args)`` in a process whose CPU affinity allows ``cpus`` CPUs."""
    with mock.patch.object(rules, "_cpu_count", return_value=cpus):
        return stepper(*args)


def random_grid(rng: np.random.Generator, width: int, height: int, boundary=None) -> Grid:
    """Seeded random normalized grid; mixes generic states with exact 0/1 amplitudes."""
    from phasorlife import Boundary

    r = rng.random((height, width))
    kind = rng.random((height, width))
    r = np.where(kind < 0.15, 0.0, r)
    r = np.where(kind > 0.85, 1.0, r)
    pa = rng.uniform(-np.pi, np.pi, (height, width))
    pb = rng.uniform(-np.pi, np.pi, (height, width))
    a = r * np.exp(1j * pa)
    b = np.sqrt(np.clip(1.0 - r * r, 0.0, 1.0)) * np.exp(1j * pb)
    if boundary is None:
        boundary = Boundary.FIXED_DEAD
    return Grid(a, b, boundary)


def dispatch_targets() -> list[str]:
    """numpy's SIMD dispatch targets that are on in this process."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    return [t for t in __cpu_dispatch__ if __cpu_features__.get(t)]


def run_dispatch_child(code: str, disabled: list[str]) -> dict:
    """The JSON object ``code`` prints in a child process with numpy's ``disabled``
    dispatch targets turned off; the child imports ``phasorlife`` from this source
    tree, and can import this directory's modules."""
    paths = [str(TESTS_DIR.parent / "src"), str(TESTS_DIR), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    if disabled:
        env["NPY_DISABLE_CPU_FEATURES"] = " ".join(disabled)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def native_and_baseline(code: str) -> tuple[dict, dict]:
    """``run_dispatch_child(code, ...)`` with every dispatch target on, then with
    every one off; ``code`` reports ``dispatch_targets()`` as ``on``."""
    targets = dispatch_targets()
    if not targets:
        pytest.skip("numpy dispatches no kernels beyond its baseline on this host")
    native, baseline = run_dispatch_child(code, []), run_dispatch_child(code, targets)
    # numpy ignores a name it cannot disable, so check that every target went off
    assert native["on"] == targets
    assert baseline["on"] == []
    return native, baseline
