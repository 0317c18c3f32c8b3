"""Pair-at-a-time recurrence matcher, the oracle the batched ``classify`` must equal.

This is ``classify`` as it was before the matcher was batched: one numpy pass
per (generation, earlier generation) pair, a dict cache of pair results, and
one ``np.roll`` per candidate offset; translations are searched on a torus
only. It plays the role ``step_cell`` plays for the stepper and
``render_reference.py`` for the renderers: ``tests/test_analysis.py`` asserts
that ``phasorlife.classify`` returns an equal ``FateReport`` (same verdict,
offsets and bit-identical history) on every case it tries.
"""

from __future__ import annotations

import warnings

import numpy as np

from phasorlife.analysis import (
    DEAD_THRESHOLD,
    VERDICT_DEAD,
    VERDICT_OSCILLATOR,
    VERDICT_STILL_LIFE,
    VERDICT_TRANSLATING,
    VERDICT_UNRESOLVED,
    FateReport,
    _touches_border,
)
from phasorlife.rules import step_grid
from phasorlife.state import Boundary, Grid


def _find_translation(
    p_now: np.ndarray, p_then: np.ndarray, gap: int, tol: float
) -> tuple[int, int] | None:
    """First nonzero offset that carries p_then onto p_now on a torus."""
    h, w = p_now.shape
    lim_x = min(gap, w - 1)  # speed of light: one cell per generation
    lim_y = min(gap, h - 1)
    for dy in range(-lim_y, lim_y + 1):
        for dx in range(-lim_x, lim_x + 1):
            if dx == 0 and dy == 0:
                continue
            if np.max(np.abs(p_now - np.roll(p_then, (dy, dx), axis=(0, 1)))) <= tol:
                return (dx, dy)
    return None


def _match(
    probs: list[np.ndarray],
    i: int,
    j: int,
    boundary: Boundary,
    tol: float,
    cache: dict[tuple[int, int], tuple[int, int] | None],
) -> tuple[int, int] | None:
    key = (i, j)
    if key in cache:
        return cache[key]
    p_now, p_then = probs[i], probs[j]
    n, total_now, total_then = p_now.size, float(p_now.sum()), float(p_then.sum())
    # tol per cell plus eight units of roundoff per cell in either sum, as in
    # the matcher's totals gate: no match, in place or moved, fails it
    slack = tol * n + n * 2.0**-50 * (total_now + total_then + tol * n) + 2.0**-1022
    result: tuple[int, int] | None = None
    if np.max(np.abs(p_now - p_then)) <= tol:
        result = (0, 0)
    elif boundary is Boundary.TORUS and not abs(total_now - total_then) > slack:
        # a fixed boundary matches in place only: a mover reaches the wall.
        # Totals are translation invariant; only then is the offset search worth it
        result = _find_translation(p_now, p_then, i - j, tol)
    cache[key] = result
    return result


def classify(
    g0: Grid,
    max_gen: int = 200,
    tol: float = 1e-6,
    dead_threshold: float = DEAD_THRESHOLD,
    canonicalize_dead_phase: bool = False,
) -> FateReport:
    """Run up to max_gen generations and classify the long-run behavior.

    Reports dead at the first generation where every cell's alive probability
    sits below ``dead_threshold``; otherwise looks for the smallest
    recurrence period (still life, oscillator, or, on a torus, translation)
    confirmed at two consecutive generations; otherwise unresolved.
    """
    if max_gen < 1:
        raise ValueError("max_gen must be at least 1")
    if tol <= 0.0:
        raise ValueError("tol must be positive")

    fixed = g0.boundary is Boundary.FIXED_DEAD
    g = g0
    probs = [g.alive_probability()]
    totals = [float(probs[0].sum())]
    border = fixed and _touches_border(probs[0])
    if border:
        warnings.warn(
            "live amplitude on the fixed boundary; the finite grid truncates the dynamics",
            RuntimeWarning,
            stacklevel=2,
        )

    def report(verdict: str, t: int, **extra) -> FateReport:
        return FateReport(
            verdict=verdict,
            generations_run=t,
            max_alive_probability_final=float(probs[-1].max()),
            alive_probability_history=tuple(totals),
            border_contact=border,
            **extra,
        )

    if probs[0].max() < dead_threshold:
        return report(VERDICT_DEAD, 0, generation=0)

    cache: dict[tuple[int, int], tuple[int, int] | None] = {}
    for t in range(1, max_gen + 1):
        g = step_grid(g, canonicalize_dead_phase)
        p = g.alive_probability()
        probs.append(p)
        totals.append(float(p.sum()))
        if fixed and not border and _touches_border(p):
            border = True
            warnings.warn(
                "live amplitude reached the fixed boundary; the finite grid truncates the dynamics",
                RuntimeWarning,
                stacklevel=2,
            )
        if p.max() < dead_threshold:
            return report(VERDICT_DEAD, t, generation=t)
        for period in range(1, t):
            offset = _match(probs, t, t - period, g.boundary, tol, cache)
            if offset is None:
                continue
            if _match(probs, t - 1, t - 1 - period, g.boundary, tol, cache) != offset:
                continue
            if offset == (0, 0):
                if period == 1:
                    return report(VERDICT_STILL_LIFE, t)
                return report(VERDICT_OSCILLATOR, t, period=period)
            return report(VERDICT_TRANSLATING, t, period=period, dx=offset[0], dy=offset[1])
    return report(VERDICT_UNRESOLVED, max_gen)
