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
import threading
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


# Cells per row band of the stepping core: a band's scratch stays in cache.
# Every numpy call on a band releases the GIL, and a waiting thread only gets
# it if it wakes before the holder's next call returns; at half this size, two
# threads block on the GIL more than twice as often, for under 5% one-thread gain.
_BAND_CELLS = 1 << 15
# Bands each thread must have before a step is shared out: each helper thread
# builds its own band scratch every step (4.4 MiB at width 1024), which only
# pays off on large grids.
_MIN_BANDS_PER_THREAD = 8


def _cpu_count() -> int:
    """CPUs this process may run on; ``taskset`` and ``os.sched_setaffinity`` set them."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


class _BandScratch:
    """One thread's buffers for stepping bands of up to ``rows`` rows of width ``w``.

    Every band op writes into these with ``out=``, so stepping a band
    allocates nothing; a band of ``n`` rows uses the first ``n`` rows of each.
    """

    def __init__(self, rows: int, w: int) -> None:
        self.shape = (rows, w)
        self.halo = np.empty((rows + 2, w + 2), dtype=np.complex128)
        self.complex = np.empty((4, rows, w), dtype=np.complex128)  # alpha, unit, raw pair
        self.real = np.empty((2, rows, w))  # A and a free array, then the raw pair's |.|^2
        self.weights = np.empty((5, rows, w))  # ``_weights_array``'s outputs and temporaries
        self.masks = np.empty((5, rows, w), dtype=bool)


# The scratch of each thread's last one-band step, kept until that thread steps
# a grid of another shape, so a run of small steps builds it once. A step of
# several bands builds one per thread and drops it with the step: kept, a large
# grid's scratch would hold megabytes after the step is done.
_scratch = threading.local()


def _thread_scratch(rows: int, w: int) -> _BandScratch:
    s = getattr(_scratch, "band", None)
    if s is None or s.shape != (rows, w):
        s = _scratch.band = _BandScratch(rows, w)
    return s


def _halo_band(coeff: np.ndarray, y0: int, y1: int, torus: bool, halo: np.ndarray) -> np.ndarray:
    """Rows ``y0:y1`` of ``coeff`` with a one-cell border, wrapped on a torus and zero
    otherwise, written over the first rows of ``halo``."""
    h, w = coeff.shape
    padded = halo[: y1 - y0 + 2]
    padded[1:-1, 1:-1] = coeff[y0:y1]
    padded[0, 1:-1] = coeff[y0 - 1] if y0 > 0 or torus else 0
    padded[-1, 1:-1] = coeff[y1 % h] if y1 < h or torus else 0
    if torus:
        padded[:, 0] = padded[:, -2]
        padded[:, -1] = padded[:, 1]
    else:
        padded[:, 0] = padded[:, -1] = 0
    return padded


def _weights_array(
    A: np.ndarray, out: np.ndarray | None = None, masks: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``operator_weights`` elementwise, without its range check; NaN gets all-zero weights.

    Each weight sums region formulas times 0/1 region masks, with no branch
    per cell (``np.where`` on a random mask is several times slower). The
    masks take nine bool passes: five compares on A, and ``np.greater`` of
    two compares for each blend interval. The formulas are evaluated at
    ``fmin(A, 4)``, which equals A inside their regions and is finite
    everywhere, so a masked-out term is a signed zero.
    A weight is its region's value or +0: the two formulas of ``wB`` or of
    ``wS`` are never negative at the same A, and ``wD`` ends with its mask.
    ``out`` (five float arrays shaped like A) and ``masks`` (five bool ones)
    take the weights and every temporary; without them new ones are made.
    """
    if out is None or masks is None:
        out = np.empty((5, *A.shape))
        masks = np.empty((5, *A.shape), dtype=bool)
    wB, wS, wD, a, t = out
    death, r2, r3, r4, over4 = masks
    # r2 = (A > 1) > (A > 2) is A in (1, 2], and so on; NaN fails every comparison,
    # so it is in no region
    np.greater(np.greater(A, 1.0, out=r2), np.greater(A, 2.0, out=r3), out=r2)
    np.greater(r3, np.greater(A, 3.0, out=r4), out=r3)
    np.greater(r4, np.greater_equal(A, 4.0, out=over4), out=r4)
    np.logical_or(np.less_equal(A, 1.0, out=death), over4, out=death)
    np.fmin(A, 4.0, out=a)
    # wB = (a - 2) r3 + SQRT2_PLUS_1 (4 - a) r4
    np.multiply(np.subtract(a, 2.0, out=wB), r3, out=wB)
    np.multiply(np.multiply(SQRT2_PLUS_1, np.subtract(4.0, a, out=t), out=t), r4, out=t)
    np.add(wB, t, out=wB)
    # wS = (a - 1) r2 + SQRT2_PLUS_1 (3 - a) r3
    np.multiply(np.subtract(a, 1.0, out=wS), r2, out=wS)
    np.multiply(np.multiply(SQRT2_PLUS_1, np.subtract(3.0, a, out=t), out=t), r3, out=t)
    np.add(wS, t, out=wS)
    # wD = SQRT2_PLUS_1 (2 - a) r2 + (a - 3) r4 + death
    np.multiply(np.multiply(SQRT2_PLUS_1, np.subtract(2.0, a, out=wD), out=wD), r2, out=wD)
    np.add(wD, np.multiply(np.subtract(a, 3.0, out=t), r4, out=t), out=wD)
    np.add(wD, death, out=wD)
    return wB, wS, wD


def _step_band(
    live: np.ndarray,
    dead: np.ndarray,
    alpha: np.ndarray,
    s: _BandScratch,
    new_live: np.ndarray,
    new_dead: np.ndarray,
) -> None:
    """Write the next (live, dead) coefficients of a band whose live neighbors sum to ``alpha``.

    Mix, then renormalize; total cancellation gives live 0, dead 1. Every
    temporary is one of ``s``'s buffers, ``alpha`` (itself one) included.
    No pass is spent on a fix-up that changes nothing: the unit phasor's
    divisor is ``fmax(A, PHASE_EPS)``, the norm is taken over the stacked raw
    pair at once, and the vanished-norm fix-ups run only in a band that has
    a vanished norm.
    """
    n = len(live)
    tmp, unit, raw_live, raw_dead = s.complex[:, :n]
    A, f = s.real[:, :n]
    mask = s.masks[0, :n]
    np.abs(alpha, out=A)
    # unit = alpha / A where A >= PHASE_EPS, else 1: the divisor differs from A
    # exactly where A < PHASE_EPS or A is NaN
    np.divide(alpha, np.fmax(A, PHASE_EPS, out=f), out=unit)
    unit[np.not_equal(f, A, out=mask)] = 1.0
    wB, wS, wD = _weights_array(A, s.weights[:, :n], s.masks[:, :n])
    # raw_live = wB (live + |dead| unit) + wS live
    np.multiply(np.abs(dead, out=f), unit, out=raw_live)
    np.multiply(wB, np.add(live, raw_live, out=raw_live), out=raw_live)
    np.add(raw_live, np.multiply(wS, live, out=tmp), out=raw_live)
    # raw_dead = wS dead + wD (|live| unit + dead)
    np.multiply(wS, dead, out=raw_dead)
    np.add(np.multiply(np.abs(live, out=f), unit, out=tmp), dead, out=tmp)
    np.add(raw_dead, np.multiply(wD, tmp, out=tmp), out=raw_dead)
    # norm = sqrt(|raw_live|^2 + |raw_dead|^2), over the raw pair at once
    pair = s.real[:, :n]
    np.square(np.abs(s.complex[2:, :n], out=pair), out=pair)
    norm = np.add(pair[0], pair[1], out=A)
    np.sqrt(norm, out=norm)
    # a vanished norm is read as 1 and its cell set to live 0, dead 1
    vanished = np.less(norm, ZERO_NORM, out=mask)
    collapsed = vanished.any()
    if collapsed:
        np.copyto(norm, 1.0, where=vanished)
    np.divide(raw_live, norm, out=new_live)
    np.divide(raw_dead, norm, out=new_dead)
    if collapsed:
        np.copyto(new_live, 0.0, where=vanished)
        np.copyto(new_dead, 1.0, where=vanished)


def _step_arrays(
    live: np.ndarray, dead: np.ndarray, boundary: Boundary, cfg: StepConfig
) -> tuple[np.ndarray, np.ndarray]:
    """One synchronous step of the component pair, alpha summed over ``live``.

    The grid is cut into row bands of at most ``_BAND_CELLS`` cells, so no
    band buffer outgrows the cache, and the cut depends on the width alone.
    The calling thread and ``k - 1`` pool threads take the bands one at a
    time from a shared queue, with ``k`` the smaller of the CPUs this process
    may run on and one thread per ``_MIN_BANDS_PER_THREAD`` bands. Each
    thread pads a band's rows with a halo and steps it in its own
    ``_BandScratch``, writing straight into the outputs; the calling thread
    keeps a one-band step's scratch for its next step. Every cell reads only
    the previous generation, so the sharing never changes a byte.
    """
    h, w = live.shape
    torus = boundary is Boundary.TORUS
    new_live = np.empty_like(live)
    new_dead = np.empty_like(dead)
    rows = min(h, max(1, _BAND_CELLS // w))
    bands = [(y0, min(y0 + rows, h)) for y0 in range(0, h, rows)]

    def run(queue: Iterator[tuple[int, int]]) -> None:
        s = _thread_scratch(rows, w) if len(bands) == 1 else _BandScratch(rows, w)
        for y0, y1 in queue:
            n = y1 - y0
            padded = _halo_band(live, y0, y1, torus, s.halo)
            alpha = s.complex[0, :n]
            views = (padded[1 + dy : n + 1 + dy, 1 + dx : 1 + dx + w] for dx, dy in _OFFSETS)
            # 0 + x as the scalar sum has it: a -0 part of the first neighbor reads +0
            np.add(next(views), 0.0, out=alpha)
            for view in views:
                alpha += view
            _step_band(live[y0:y1], dead[y0:y1], alpha, s, new_live[y0:y1], new_dead[y0:y1])
            if cfg.canonicalize_dead_phase:
                np.copyto(new_dead[y0:y1], np.abs(new_dead[y0:y1], out=s.real[1, :n]))

    k = max(1, min(_cpu_count(), len(bands) // _MIN_BANDS_PER_THREAD))
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


def step_grid(g: Grid, cfg: StepConfig | None = None) -> Grid:
    """Synchronous update of the whole grid.

    Pure function: the input grid is untouched and the result is bit-identical
    for any thread count, because every cell reads only the previous
    generation and the bands the core steps depend on the width alone. The
    threads are capped by the process's CPU affinity.
    """
    new_a, new_b = _step_arrays(g.a, g.b, g.boundary, cfg or DEFAULT_CONFIG)
    return Grid._adopt(new_a, new_b, g.boundary)


def dual_step_grid(g: Grid, cfg: StepConfig | None = None) -> Grid:
    """Mirror stepper with the roles of the two components exchanged.

    Neighbor sums run over the b coefficients, birth fills the b slot, death
    fills the a slot, and total cancellation maps to the canonical all-alive
    cell (1, 0); ``canonicalize_dead_phase`` strips the phase of ``a``. It is
    the core of ``step_grid`` called with the components swapped, so
    swap-step-swap agreement does not check it on its own; the scalar
    ``step_cell``, applied with the roles swapped, does.
    """
    new_b, new_a = _step_arrays(g.b, g.a, g.boundary, cfg or DEFAULT_CONFIG)
    return Grid._adopt(new_a, new_b, g.boundary)


def swap_components(g: Grid) -> Grid:
    """Exchange the alive and dead coefficients of every cell."""
    return Grid._adopt(g.b, g.a, g.boundary)
