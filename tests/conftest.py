from __future__ import annotations

from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from phasorlife import Grid, PatternDocument, parse_pattern, rules

PATTERNS_DIR = Path(__file__).resolve().parent.parent / "patterns"


@pytest.fixture
def patterns_dir() -> Path:
    return PATTERNS_DIR


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
