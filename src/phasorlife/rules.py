"""Neighbor phasor sums, the operator weight family, and the synchronous stepper.

Each generation, every cell's eight Moore neighbors contribute their alive
coefficients to a complex sum alpha = A * e^(i*phi). The magnitude A selects a
mixture of three primitive cell operators:

    birth     B(a, b) = (a + |b| e^(i*phi), 0)
    survival  S(a, b) = (a, b)
    death     D(a, b) = (0, |a| e^(i*phi) + b)

via a five-region weight family that reduces to the classical rule table at
integer A (death below 2 and at 4 or more, survival at 2, birth at 3). The
weighted sum of operator outputs is renormalized to give the new cell. Birth
and death stamp the neighborhood phase onto states they create, which is what
makes interference possible: opposite-phase neighbors cancel in alpha.
"""

from __future__ import annotations

import cmath
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .state import Boundary, CellState, Grid, normalize

SQRT2_PLUS_1 = math.sqrt(2.0) + 1.0
PHASE_EPS = 1e-12  # below this sum magnitude the phase is defined as 0
# Summing eight unit phasors can round a few ulps past 8; such sums count as 8.
A_ROUNDING_SLACK = 8 * math.ulp(8.0)
ZERO_NORM = 1e-9

# Fixed accumulation order keeps scalar and vectorized neighbor sums bit-identical.
_OFFSETS = ((-1, -1), (0, -1), (1, -1), (-1, 0), (1, 0), (-1, 1), (0, 1), (1, 1))


@dataclass(frozen=True)
class NeighborSum:
    """Complex sum of the eight neighbors' alive coefficients, in both forms."""

    alpha: complex
    A: float
    phi: float

    @classmethod
    def from_alpha(cls, alpha: complex) -> "NeighborSum":
        alpha = complex(alpha)
        A = abs(alpha)
        phi = cmath.phase(alpha) if A >= PHASE_EPS else 0.0
        return cls(alpha, A, phi)

    @classmethod
    def from_polar(cls, A: float, phi: float) -> "NeighborSum":
        return cls(A * complex(math.cos(phi), math.sin(phi)), float(A), float(phi))


@dataclass(frozen=True)
class OperatorWeights:
    """Nonnegative mixture weights for the birth, survival, and death operators."""

    w_B: float
    w_S: float
    w_D: float


@dataclass(frozen=True)
class StepConfig:
    """Stepper options shared with the analysis layer."""

    canonicalize_dead_phase: bool = False
    dead_threshold: float = 1e-6

    def __post_init__(self) -> None:
        if not 0.0 < self.dead_threshold < 0.5:
            raise ValueError("dead_threshold must lie in (0, 0.5)")


DEFAULT_CONFIG = StepConfig()


def operator_weights(A: float) -> OperatorWeights:
    """Mixture weights selected by the neighbor sum magnitude.

    Interval ownership is exact IEEE comparison on A: death owns [0, 1] and
    [4, 8], the survival/death blend owns (1, 2], the birth/survival blend
    owns (2, 3], the birth/death blend owns (3, 4). Normalization makes the
    constant factor irrelevant, so endpoint ownership is unobservable.
    Sums up to ``A_ROUNDING_SLACK`` above 8 are rounding error and get the
    death weights of A = 8; anything further out raises.
    """
    A = float(A)
    if not math.isfinite(A) or A < 0.0 or A > 8.0 + A_ROUNDING_SLACK:
        raise ValueError(f"neighbor sum magnitude out of [0, 8]: {A!r}")
    if A <= 1.0:
        return OperatorWeights(0.0, 0.0, 1.0)
    if A <= 2.0:
        return OperatorWeights(0.0, A - 1.0, SQRT2_PLUS_1 * (2.0 - A))
    if A <= 3.0:
        return OperatorWeights(A - 2.0, SQRT2_PLUS_1 * (3.0 - A), 0.0)
    if A < 4.0:
        return OperatorWeights(SQRT2_PLUS_1 * (4.0 - A), 0.0, A - 3.0)
    return OperatorWeights(0.0, 0.0, 1.0)


def apply_birth(c: CellState, phi: float) -> tuple[complex, complex]:
    """Un-normalized birth output: the dead component folds into alive at phase phi."""
    return (c.a + abs(c.b) * cmath.exp(1j * phi), 0j)


def apply_death(c: CellState, phi: float) -> tuple[complex, complex]:
    """Un-normalized death output: the alive component folds into dead at phase phi."""
    return (0j, abs(c.a) * cmath.exp(1j * phi) + c.b)


def apply_survival(c: CellState) -> tuple[complex, complex]:
    """Identity on the raw coefficient pair."""
    return (c.a, c.b)


def neighbor_sum(g: Grid, x: int, y: int) -> NeighborSum:
    """Phasor sum of the eight Moore neighbors of (x, y) under the grid's boundary."""
    if not (0 <= x < g.width and 0 <= y < g.height):
        raise IndexError(f"neighbor_sum coordinates ({x}, {y}) out of bounds")
    w, h = g.width, g.height
    a = g.a
    alpha = 0j
    torus = g.boundary is Boundary.TORUS
    for dx, dy in _OFFSETS:
        xx, yy = x + dx, y + dy
        if torus:
            xx %= w
            yy %= h
        elif not (0 <= xx < w and 0 <= yy < h):
            continue
        alpha += complex(a[yy, xx])
    return NeighborSum.from_alpha(alpha)


def step_cell(c: CellState, ns: NeighborSum, cfg: StepConfig = DEFAULT_CONFIG) -> CellState:
    """One-cell update: weighted operator mixture, then renormalization."""
    w = operator_weights(ns.A)
    ba, bb = apply_birth(c, ns.phi)
    sa, sb = apply_survival(c)
    da, db = apply_death(c, ns.phi)
    raw_a = w.w_B * ba + w.w_S * sa + w.w_D * da
    raw_b = w.w_B * bb + w.w_S * sb + w.w_D * db
    out = normalize(raw_a, raw_b)
    if cfg.canonicalize_dead_phase:
        out = CellState(out.a, complex(abs(out.b), 0.0))
    return out


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


def step_grid(g: Grid, cfg: StepConfig | None = None, *, workers: int = 1) -> Grid:
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
    return Grid(new_a, new_b, g.boundary)


def dual_step_grid(g: Grid, cfg: StepConfig | None = None, *, workers: int = 1) -> Grid:
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
    return Grid(new_a, new_b, g.boundary)


def swap_components(g: Grid) -> Grid:
    """Exchange the alive and dead coefficients of every cell."""
    return Grid(g.b, g.a, g.boundary)
