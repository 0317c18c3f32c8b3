"""Whole-grid steppers in the pre-banding style, the oracle ``step_grid`` must equal.

This is ``step_grid`` and ``dual_step_grid`` written as they were before the
four mix/normalize branches were folded into one banded core: full-grid
``np.pad`` alpha, masked fancy-index weights, one ``_mixed_raw`` and one
``_normalized_pair`` pass over the whole grid, without row-band threading.
It plays the role ``step_cell`` plays for the stepper's arithmetic and
``render_reference.py`` for the renderers: ``tests/test_rules.py`` asserts
that ``phasorlife.step_grid`` and ``phasorlife.dual_step_grid`` give the same
``a``/``b`` bytes on every grid it tries.

The core scales each region's table weights by a factor that renormalization
cancels (``rules._REGION_FACTORS``), so this file does too, in its own way:
it assigns each of the README's five regions its formula without the
``SQRT2_PLUS_1`` term, times the region's factor, where the core evaluates
three continuous hat and ramp functions of A. The two agree bit for bit,
since every difference of A with 1, 2, 3 or 4 inside [1, 4] is exact. The
zero-norm test compares the norm with ``ZERO_NORM`` times the same factor,
which collapses the cells the table's norm would. The results are wrapped
with ``Grid._adopt``, since ``Grid(...)`` refuses the NaN and infinite cells
the tests step.
"""

from __future__ import annotations

import numpy as np

from phasorlife.rules import (
    PHASE_EPS,
    SQRT2_PLUS_1,
    ZERO_NORM,
    _OFFSETS,
)
from phasorlife.state import Boundary, Grid

# the core's region factors: 1 on [0, 1], then 1/s, 1/s^2 and 1/s^3, with s = SQRT2_PLUS_1
F1, F2, F3 = (SQRT2_PLUS_1**-k for k in (1, 2, 3))


def _alpha_array(coeff: np.ndarray, boundary: Boundary) -> np.ndarray:
    h, w = coeff.shape
    if boundary is Boundary.TORUS:
        padded = np.pad(coeff, 1, mode="wrap")
    else:
        padded = np.pad(coeff, 1, mode="constant")
    acc = np.zeros_like(coeff)
    for dx, dy in _OFFSETS:
        acc += padded[1 + dy : 1 + dy + h, 1 + dx : 1 + dx + w]
    return acc


def _region_factor(A: np.ndarray) -> np.ndarray:
    factor = np.full_like(A, F3)
    factor[A <= 3.0] = F2
    factor[A <= 2.0] = F1
    factor[A <= 1.0] = 1.0
    return factor


def _weights_array(A: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    wB = np.zeros_like(A)
    wS = np.zeros_like(A)
    wD = np.zeros_like(A)
    r1 = A <= 1.0
    r2 = ~r1 & (A <= 2.0)
    r3 = ~r1 & ~r2 & (A <= 3.0)
    r4 = ~r1 & ~r2 & ~r3 & (A < 4.0)
    r5 = A >= 4.0
    wS[r2] = (A[r2] - 1.0) * F1
    wD[r2] = 2.0 - A[r2]
    wB[r3] = (A[r3] - 2.0) * F2
    wS[r3] = (3.0 - A[r3]) * F1
    wB[r4] = (4.0 - A[r4]) * F2
    wD[r4] = (A[r4] - 3.0) * F3
    wD[r1] = 1.0
    wD[r5] = F3
    return wB, wS, wD


def _mixed_raw(
    live: np.ndarray, dead: np.ndarray, alpha: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Raw updated (live, dead) coefficient arrays for the component summed in alpha,
    and the sum's magnitude."""
    A = np.abs(alpha)
    big = A >= PHASE_EPS
    unit = np.where(big, alpha / np.where(big, A, 1.0), 1.0 + 0j)
    wB, wS, wD = _weights_array(A)
    raw_live = wB * (live + np.abs(dead) * unit) + wS * live
    raw_dead = wS * dead + wD * (np.abs(live) * unit + dead)
    return raw_live, raw_dead, A


def _normalized_pair(
    raw_live: np.ndarray,
    raw_dead: np.ndarray,
    A: np.ndarray,
    zero_live: complex,
    zero_dead: complex,
) -> tuple[np.ndarray, np.ndarray]:
    n = np.sqrt(np.abs(raw_live) ** 2 + np.abs(raw_dead) ** 2)
    vanished = n < ZERO_NORM * _region_factor(A)
    safe = np.where(vanished, 1.0, n)
    out_live = np.where(vanished, zero_live, raw_live / safe)
    out_dead = np.where(vanished, zero_dead, raw_dead / safe)
    return out_live, out_dead


def ref_step_grid(g: Grid, canonicalize_dead_phase: bool = False) -> Grid:
    """Synchronous update of the whole grid.

    Pure function: the input grid is untouched, because every cell reads only
    the previous generation.
    """
    alpha = _alpha_array(g.a, g.boundary)
    raw_a, raw_b, A = _mixed_raw(g.a, g.b, alpha)
    new_a, new_b = _normalized_pair(raw_a, raw_b, A, 0j, 1 + 0j)
    if canonicalize_dead_phase:
        new_b = np.abs(new_b).astype(np.complex128)
    return Grid._adopt(new_a, new_b, g.boundary)


def ref_dual_step_grid(g: Grid, canonicalize_dead_phase: bool = False) -> Grid:
    """Mirror stepper with the roles of the two components exchanged.

    Neighbor sums run over the b coefficients, birth fills the b slot, death
    fills the a slot, and total cancellation maps to the canonical all-alive
    cell (1, 0). It shares ``_mixed_raw`` and ``_normalized_pair`` with
    ``step_grid``, so swap-step-swap agreement does not check it on its own;
    the scalar ``step_cell``, applied with the roles swapped, does.
    """
    alpha = _alpha_array(g.b, g.boundary)
    raw_b, raw_a, A = _mixed_raw(g.b, g.a, alpha)
    new_b, new_a = _normalized_pair(raw_b, raw_a, A, 0j, 1 + 0j)
    if canonicalize_dead_phase:
        new_a = np.abs(new_a).astype(np.complex128)
    return Grid._adopt(new_a, new_b, g.boundary)
