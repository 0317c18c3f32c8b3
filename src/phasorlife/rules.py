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
import numbers
import os
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .state import ZERO_NORM, Boundary, CellState, Grid, normalize

SQRT2_PLUS_1 = math.sqrt(2.0) + 1.0
PHASE_EPS = 1e-12  # below this sum magnitude the phase is defined as 0
# Summing eight unit phasors can round a few ulps past 8; such sums count as 8.
A_ROUNDING_SLACK = 8 * math.ulp(8.0)

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


# Cells per row band of the stepping core: a band's temporaries stay in cache.
# Every numpy call on a band releases the GIL, and a waiting thread only gets
# it if it wakes before the holder's next call returns; at half this size, two
# threads block on the GIL more than twice as often, for under 5% one-thread gain.
_BAND_CELLS = 1 << 15
# Bands each thread must have before a step is shared out: each thread's band
# temporaries take their own few MiB, which only pays off on large grids.
_MIN_BANDS_PER_THREAD = 8


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def _worker_count(workers: int | None) -> int:
    """``workers`` checked at the API boundary; ``None`` means every available CPU."""
    if workers is None:
        return _cpu_count()
    if isinstance(workers, bool) or not isinstance(workers, numbers.Integral) or workers < 1:
        raise ValueError(f"workers must be a positive integer or None, got {workers!r}")
    return int(workers)


def _halo_band(coeff: np.ndarray, y0: int, y1: int, torus: bool) -> np.ndarray:
    """Rows ``y0:y1`` of ``coeff`` with a one-cell border: wrapped on a torus, zero otherwise."""
    h, w = coeff.shape
    padded = np.zeros((y1 - y0 + 2, w + 2), dtype=coeff.dtype)
    padded[1:-1, 1:-1] = coeff[y0:y1]
    if y0 > 0 or torus:
        padded[0, 1:-1] = coeff[y0 - 1]
    if y1 < h or torus:
        padded[-1, 1:-1] = coeff[y1 % h]
    if torus:
        padded[:, 0] = padded[:, -2]
        padded[:, -1] = padded[:, 1]
    return padded


def _weights_array(A: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``operator_weights`` elementwise, without its range check; NaN gets all-zero weights.

    Each weight sums region formulas times 0/1 region masks, with no branch
    per cell (``np.where`` on a random mask is several times slower). The
    formulas are evaluated at ``fmin(A, 4)``, which equals A inside their
    regions and is finite everywhere, so a masked-out term is a signed zero.
    A weight is its region's value or +0: the two formulas of ``wB`` or of
    ``wS`` are never negative at the same A, and ``wD`` ends with its mask.
    """
    death = (A <= 1.0) | (A >= 4.0)  # NaN fails both, like every comparison
    r2 = (A > 1.0) & (A <= 2.0)
    r3 = (A > 2.0) & (A <= 3.0)
    r4 = (A > 3.0) & (A < 4.0)
    a = np.fmin(A, 4.0)
    wB = (a - 2.0) * r3 + SQRT2_PLUS_1 * (4.0 - a) * r4
    wS = (a - 1.0) * r2 + SQRT2_PLUS_1 * (3.0 - a) * r3
    wD = SQRT2_PLUS_1 * (2.0 - a) * r2 + (a - 3.0) * r4 + death
    return wB, wS, wD


def _step_band(
    live: np.ndarray, dead: np.ndarray, alpha: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Next (live, dead) coefficients of a band whose live neighbors sum to ``alpha``.

    Mix, then renormalize; total cancellation gives live 0, dead 1.
    """
    A = np.abs(alpha)
    big = A >= PHASE_EPS
    unit = np.where(big, alpha / np.where(big, A, 1.0), 1.0 + 0j)
    wB, wS, wD = _weights_array(A)
    raw_live = wB * (live + np.abs(dead) * unit) + wS * live
    raw_dead = wS * dead + wD * (np.abs(live) * unit + dead)
    n = np.sqrt(np.abs(raw_live) ** 2 + np.abs(raw_dead) ** 2)
    vanished = n < ZERO_NORM
    safe = np.where(vanished, 1.0, n)
    return np.where(vanished, 0j, raw_live / safe), np.where(vanished, 1 + 0j, raw_dead / safe)


def _step_arrays(
    live: np.ndarray, dead: np.ndarray, boundary: Boundary, cfg: StepConfig, workers: int
) -> tuple[np.ndarray, np.ndarray]:
    """One synchronous step of the component pair, alpha summed over ``live``.

    The grid is cut into row bands of at most ``_BAND_CELLS`` cells, so no
    temporary outgrows the cache, and the cut depends on the width alone.
    Each band pads its own rows with a halo. The calling thread and ``k - 1``
    pool threads take the bands one at a time from a shared queue, with
    ``k`` at most ``workers``, the CPU count and one thread per
    ``_MIN_BANDS_PER_THREAD`` bands. Every cell reads only the previous
    generation, so the sharing never changes a byte.
    """
    h, w = live.shape
    torus = boundary is Boundary.TORUS
    new_live = np.empty_like(live)
    new_dead = np.empty_like(dead)
    rows = max(1, _BAND_CELLS // w)
    bands = [(y0, min(y0 + rows, h)) for y0 in range(0, h, rows)]

    def run(queue: Iterator[tuple[int, int]]) -> None:
        for y0, y1 in queue:
            padded = _halo_band(live, y0, y1, torus)
            alpha = np.zeros((y1 - y0, w), dtype=live.dtype)
            for dx, dy in _OFFSETS:
                alpha += padded[1 + dy : y1 - y0 + 1 + dy, 1 + dx : 1 + dx + w]
            nl, nd = _step_band(live[y0:y1], dead[y0:y1], alpha)
            new_live[y0:y1] = nl
            new_dead[y0:y1] = np.abs(nd) if cfg.canonicalize_dead_phase else nd

    k = max(1, min(workers, _cpu_count(), len(bands) // _MIN_BANDS_PER_THREAD))
    # One iterator shared by every thread: each takes the next band when it is
    # free, so a thread whose CPU is busy elsewhere just takes fewer bands.
    # Under the GIL, next() on a list iterator hands each band out once.
    queue = iter(bands)
    if k == 1:
        run(queue)
    else:
        with ThreadPoolExecutor(max_workers=k - 1) as pool:
            helpers = [pool.submit(run, queue) for _ in range(k - 1)]
            run(queue)
            for done in helpers:
                done.result()
    return new_live, new_dead


def step_grid(g: Grid, cfg: StepConfig | None = None, *, workers: int | None = None) -> Grid:
    """Synchronous update of the whole grid.

    Pure function: the input grid is untouched and the result is bit-identical
    for any worker count, because every cell reads only the previous
    generation and the bands the core steps do not depend on ``workers``.
    ``workers`` caps the threads; ``None`` means every CPU this process may
    run on, and anything but a positive integer raises ``ValueError``.
    """
    new_a, new_b = _step_arrays(
        g.a, g.b, g.boundary, cfg or DEFAULT_CONFIG, _worker_count(workers)
    )
    return Grid._adopt(new_a, new_b, g.boundary)


def dual_step_grid(
    g: Grid, cfg: StepConfig | None = None, *, workers: int | None = None
) -> Grid:
    """Mirror stepper with the roles of the two components exchanged.

    Neighbor sums run over the b coefficients, birth fills the b slot, death
    fills the a slot, and total cancellation maps to the canonical all-alive
    cell (1, 0); ``canonicalize_dead_phase`` strips the phase of ``a``. It is
    the core of ``step_grid`` called with the components swapped, so
    swap-step-swap agreement does not check it on its own; the scalar
    ``step_cell``, applied with the roles swapped, does.
    """
    new_b, new_a = _step_arrays(
        g.b, g.a, g.boundary, cfg or DEFAULT_CONFIG, _worker_count(workers)
    )
    return Grid._adopt(new_a, new_b, g.boundary)


def swap_components(g: Grid) -> Grid:
    """Exchange the alive and dead coefficients of every cell."""
    return Grid._adopt(g.b, g.a, g.boundary)
