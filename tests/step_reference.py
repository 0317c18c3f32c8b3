"""Whole-grid steppers as they were before the banded core, the oracle ``step_grid`` must equal.

This is ``step_grid`` and ``dual_step_grid`` as they were before the four
mix/normalize branches were folded into one banded core: full-grid
``np.pad`` alpha, masked fancy-index weights, one ``_mixed_raw`` and one
``_normalized_pair`` pass over the whole grid (or over each worker's band).
It plays the role ``step_cell`` plays for the stepper's arithmetic and
``render_reference.py`` for the renderers: ``tests/test_rules.py`` asserts
that ``phasorlife.step_grid`` and ``phasorlife.dual_step_grid`` give the same
``a``/``b`` bytes on every grid it tries. Only the two public names are
renamed (``ref_`` prefix), and the result is wrapped with ``Grid._adopt``
instead of ``Grid(...)``, which now refuses the NaN and infinite cells the
tests step; the bodies are otherwise copied verbatim.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from phasorlife.rules import (
    DEFAULT_CONFIG,
    PHASE_EPS,
    SQRT2_PLUS_1,
    ZERO_NORM,
    _OFFSETS,
    StepConfig,
)
from phasorlife.state import Boundary, Grid


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


def _weights_array(A: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    wB = np.zeros_like(A)
    wS = np.zeros_like(A)
    wD = np.zeros_like(A)
    r1 = A <= 1.0
    r2 = ~r1 & (A <= 2.0)
    r3 = ~r1 & ~r2 & (A <= 3.0)
    r4 = ~r1 & ~r2 & ~r3 & (A < 4.0)
    r5 = A >= 4.0
    wS[r2] = A[r2] - 1.0
    wD[r2] = SQRT2_PLUS_1 * (2.0 - A[r2])
    wB[r3] = A[r3] - 2.0
    wS[r3] = SQRT2_PLUS_1 * (3.0 - A[r3])
    wB[r4] = SQRT2_PLUS_1 * (4.0 - A[r4])
    wD[r4] = A[r4] - 3.0
    wD[r1 | r5] = 1.0
    return wB, wS, wD


def _mixed_raw(
    live: np.ndarray, dead: np.ndarray, alpha: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Raw updated (live, dead) coefficient arrays for the component summed in alpha."""
    A = np.abs(alpha)
    big = A >= PHASE_EPS
    unit = np.where(big, alpha / np.where(big, A, 1.0), 1.0 + 0j)
    wB, wS, wD = _weights_array(A)
    raw_live = wB * (live + np.abs(dead) * unit) + wS * live
    raw_dead = wS * dead + wD * (np.abs(live) * unit + dead)
    return raw_live, raw_dead


def _normalized_pair(
    raw_live: np.ndarray,
    raw_dead: np.ndarray,
    zero_live: complex,
    zero_dead: complex,
) -> tuple[np.ndarray, np.ndarray]:
    n = np.sqrt(np.abs(raw_live) ** 2 + np.abs(raw_dead) ** 2)
    vanished = n < ZERO_NORM
    safe = np.where(vanished, 1.0, n)
    out_live = np.where(vanished, zero_live, raw_live / safe)
    out_dead = np.where(vanished, zero_dead, raw_dead / safe)
    return out_live, out_dead


def _band_slices(height: int, workers: int) -> list[slice]:
    pieces = np.array_split(np.arange(height), max(1, min(workers, height)))
    return [slice(int(p[0]), int(p[-1]) + 1) for p in pieces if len(p)]


def _map_bands(compute, height: int, workers: int) -> None:
    """Run ``compute`` on each of ``workers`` row bands, with at most one thread per CPU."""
    bands = _band_slices(height, workers)
    with ThreadPoolExecutor(max_workers=min(len(bands), os.cpu_count() or 1)) as pool:
        list(pool.map(compute, bands))


def ref_step_grid(g: Grid, cfg: StepConfig | None = None, *, workers: int = 1) -> Grid:
    """Synchronous update of the whole grid.

    Pure function: the input grid is untouched and the result is bit-identical
    for any worker count, because every cell reads only the previous
    generation and the per-cell arithmetic is independent of partitioning.
    """
    cfg = cfg or DEFAULT_CONFIG
    alpha = _alpha_array(g.a, g.boundary)
    a, b = g.a, g.b
    if workers > 1:
        new_a = np.empty_like(a)
        new_b = np.empty_like(b)

        def compute(band: slice) -> None:
            raw_a, raw_b = _mixed_raw(a[band], b[band], alpha[band])
            na, nb = _normalized_pair(raw_a, raw_b, 0j, 1 + 0j)
            new_a[band] = na
            new_b[band] = nb

        _map_bands(compute, g.height, workers)
    else:
        raw_a, raw_b = _mixed_raw(a, b, alpha)
        new_a, new_b = _normalized_pair(raw_a, raw_b, 0j, 1 + 0j)
    if cfg.canonicalize_dead_phase:
        new_b = np.abs(new_b).astype(np.complex128)
    return Grid._adopt(new_a, new_b, g.boundary)


def ref_dual_step_grid(g: Grid, cfg: StepConfig | None = None, *, workers: int = 1) -> Grid:
    """Mirror stepper with the roles of the two components exchanged.

    Neighbor sums run over the b coefficients, birth fills the b slot, death
    fills the a slot, and total cancellation maps to the canonical all-alive
    cell (1, 0). It shares ``_mixed_raw`` and ``_normalized_pair`` with
    ``step_grid``, so swap-step-swap agreement does not check it on its own;
    the scalar ``step_cell``, applied with the roles swapped, does.
    """
    cfg = cfg or DEFAULT_CONFIG
    alpha = _alpha_array(g.b, g.boundary)
    a, b = g.a, g.b
    if workers > 1:
        new_a = np.empty_like(a)
        new_b = np.empty_like(b)

        def compute(band: slice) -> None:
            raw_b, raw_a = _mixed_raw(b[band], a[band], alpha[band])
            nb, na = _normalized_pair(raw_b, raw_a, 0j, 1 + 0j)
            new_a[band] = na
            new_b[band] = nb

        _map_bands(compute, g.height, workers)
    else:
        raw_b, raw_a = _mixed_raw(b, a, alpha)
        new_b, new_a = _normalized_pair(raw_b, raw_a, 0j, 1 + 0j)
    if cfg.canonicalize_dead_phase:
        new_a = np.abs(new_a).astype(np.complex128)
    return Grid._adopt(new_a, new_b, g.boundary)
