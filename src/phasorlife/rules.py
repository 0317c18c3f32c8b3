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
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .state import ZERO_NORM, Boundary, CellState, Grid, normalize

SQRT2_PLUS_1 = math.sqrt(2.0) + 1.0
# The band core's weights are the table's times these, on A <= 1, (1, 2], (2, 3] and A > 3.
_REGION_FACTORS = tuple(SQRT2_PLUS_1**-k for k in range(4))
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
        # not cmath.phase, which raises OverflowError when the angle underflows to 0
        phi = math.atan2(alpha.imag, alpha.real) if A >= PHASE_EPS else 0.0
        return cls(alpha, A, phi)


@dataclass(frozen=True)
class OperatorWeights:
    """Nonnegative mixture weights for the birth, survival, and death operators."""

    w_B: float
    w_S: float
    w_D: float


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


def step_cell(c: CellState, ns: NeighborSum, canonicalize_dead_phase: bool = False) -> CellState:
    """One-cell update: weighted operator mixture, then renormalization.

    ``canonicalize_dead_phase`` then strips the phase of ``b``.
    """
    w = operator_weights(ns.A)
    ba, bb = apply_birth(c, ns.phi)
    sa, sb = apply_survival(c)
    da, db = apply_death(c, ns.phi)
    raw_a = w.w_B * ba + w.w_S * sa + w.w_D * da
    raw_b = w.w_B * bb + w.w_S * sb + w.w_D * db
    out = normalize(raw_a, raw_b)
    if canonicalize_dead_phase:
        out = CellState(out.a, complex(abs(out.b), 0.0))
    return out


# Cells per row band of the stepping core. The size trades one thread's speed
# for sharing: a width-1024 band's scratch (4.1 MiB) is twice a 2 MiB per-core L2,
# and at 1 << 13 cells (1.1 MiB) one CPU steps a 1024x1024 grid in 58.7 ms
# against 61.7 ms, but two threads take 64.4 ms against 38.6 ms (2-vCPU Xeon).
# Every numpy call on a band releases the GIL, and a waiting thread only gets it
# if it wakes before the holder's next call returns, so small bands block on it.
_BAND_CELLS = 1 << 15
# Bands each thread must have before a step is shared out: a helper thread is
# started and builds its own band scratch (4.1 MiB at width 1024) every step,
# which only pays off on large grids.
_MIN_BANDS_PER_THREAD = 8


def _cpu_count() -> int:
    """CPUs this process may run on; ``taskset`` and ``os.sched_setaffinity`` set them."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


class _BandScratch:
    """One thread's buffers for one step's bands of up to ``rows`` rows of width ``w``.

    Every band op writes into these with ``out=``, so stepping a band
    allocates nothing; a band of ``n`` rows uses the first ``n`` rows of each.
    """

    def __init__(self, rows: int, w: int) -> None:
        self.halo = np.empty((rows + 2, w + 2), dtype=np.complex128)
        # alpha, unit, raw pair; the last three first hold the pitched neighbor sum
        self.complex = np.empty((4, rows, w), dtype=np.complex128)
        self.real = np.empty((2, rows, w))  # A and a free array
        self.weights = np.empty((4, rows, w))  # ``_weights_array``'s, then the raw pair's |.|^2
        self.mask = np.empty((rows, w), dtype=bool)


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


def _weights_array(A: np.ndarray, out: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``operator_weights`` elementwise, each scaled by its region's factor; no range check.

    Renormalization cancels a factor common to the three weights, so each
    region's table weights are taken times ``_REGION_FACTORS``: 1 on [0, 1],
    1/s on (1, 2], 1/s^2 on (2, 3] and 1/s^3 from 3 on, with s = sqrt(2) + 1.
    Each weight is then one continuous piecewise-linear function of A, with
    no region mask: survival a hat on [1, 3], birth a hat on [2, 4], death a
    ramp down over [1, 2] plus a ramp up over [3, 4]. Inside [1, 4] every
    difference and ``1 - |.|`` is exact, so a weight is +0 exactly where the
    table's is 0 and integer A still picks one operator.
    ``fmax`` and ``fmin`` drop a NaN, so a NaN sum gets three +0 weights;
    an infinite one gets death alone. ``out`` (four float arrays shaped like
    A) takes the weights and a temporary.
    """
    wB, wS, wD, d = out
    _, f1, f2, f3 = _REGION_FACTORS
    np.subtract(A, 3.0, out=d)
    # wD = min(max(A - 3, 0), 1) / s^3 + min(max(2 - A, 0), 1)
    np.multiply(np.fmin(np.fmax(d, 0.0, out=wD), 1.0, out=wD), f3, out=wD)
    # wB = max(1 - |A - 3|, 0) / s^2
    np.multiply(np.fmax(np.subtract(1.0, np.abs(d, out=wB), out=wB), 0.0, out=wB), f2, out=wB)
    np.subtract(2.0, A, out=d)
    np.add(wD, np.fmin(np.fmax(d, 0.0, out=wS), 1.0, out=wS), out=wD)
    # wS = max(1 - |2 - A|, 0) / s
    np.multiply(np.fmax(np.subtract(1.0, np.abs(d, out=wS), out=wS), 0.0, out=wS), f1, out=wS)
    return wB, wS, wD


def _divide(
    raws: tuple[np.ndarray, ...], norm: np.ndarray, recip: np.ndarray, outs: tuple[np.ndarray, ...]
) -> None:
    """Write each of ``raws`` over the real ``norm`` to ``outs``, as ``np.divide`` does.

    numpy divides a complex by a real d as (re + im*0) * (1/d) and
    (im - re*0) * (1/d); the product by (1/d, -0) rounds the same, signed
    zeros, NaN and inf included, unless a nonzero part underflows to 0, which
    needs 1/d <= 1/2. A normalized cell's norm is below 1.83, so only a NaN
    or larger norm is left to the slower divide. ``recip`` is a complex
    buffer shaped like ``norm``.
    """
    if norm.max() < 2.0:
        np.divide(1.0, norm, out=recip.real)
        recip.imag = -0.0
        for raw, out in zip(raws, outs):
            np.multiply(raw, recip, out=out)
    else:
        for raw, out in zip(raws, outs):
            np.divide(raw, norm, out=out)


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
    temporary is one of ``s``'s buffers, ``alpha`` (itself one, and the
    reciprocal norm's at the end) included.
    No pass is spent on a fix-up that changes nothing: the unit phasor's
    divisor is ``fmax(A, PHASE_EPS)``, the norm is taken over the stacked raw
    pair at once, and the vanished-norm fix-ups run only in a band that has
    a vanished norm.
    """
    n = len(live)
    tmp, unit, raw_live, raw_dead = s.complex[:, :n]
    A, f = s.real[:, :n]
    mask = s.mask[:n]
    np.abs(alpha, out=A)
    # unit = alpha / A where A >= PHASE_EPS, else 1: the divisor differs from A
    # exactly where A < PHASE_EPS or A is NaN
    np.divide(alpha, np.fmax(A, PHASE_EPS, out=f), out=unit)
    unit[np.not_equal(f, A, out=mask)] = 1.0
    wB, wS, wD = _weights_array(A, s.weights[:, :n])
    # raw_live = wB (live + |dead| unit) + wS live
    np.multiply(np.abs(dead, out=f), unit, out=raw_live)
    np.multiply(wB, np.add(live, raw_live, out=raw_live), out=raw_live)
    np.add(raw_live, np.multiply(wS, live, out=tmp), out=raw_live)
    # raw_dead = wS dead + wD (|live| unit + dead)
    np.multiply(wS, dead, out=raw_dead)
    np.add(np.multiply(np.abs(live, out=f), unit, out=tmp), dead, out=tmp)
    np.add(raw_dead, np.multiply(wD, tmp, out=tmp), out=raw_dead)
    # norm = sqrt(|raw_live|^2 + |raw_dead|^2), over the raw pair at once, with A kept
    pair = s.weights[2:, :n]
    np.square(np.abs(s.complex[2:, :n], out=pair), out=pair)
    norm = np.add(pair[0], pair[1], out=pair[0])
    np.sqrt(norm, out=norm)
    # a vanished norm is read as 1 and its cell set to live 0, dead 1. It vanishes as
    # in the table: below ZERO_NORM times its region factor, which is at most 1, so
    # only a band with a norm below ZERO_NORM needs the factor
    vanished = np.less(norm, ZERO_NORM, out=mask)
    collapsed = vanished.any()
    if collapsed:
        factor = np.select([A <= 1.0, A <= 2.0, A <= 3.0], _REGION_FACTORS[:3], _REGION_FACTORS[3])
        np.less(norm, np.multiply(factor, ZERO_NORM, out=factor), out=vanished)
        np.copyto(norm, 1.0, where=vanished)
    _divide((raw_live, raw_dead), norm, tmp, (new_live, new_dead))
    if collapsed:
        np.copyto(new_live, 0.0, where=vanished)
        np.copyto(new_dead, 1.0, where=vanished)


def _step_arrays(
    live: np.ndarray, dead: np.ndarray, boundary: Boundary, canonicalize_dead_phase: bool
) -> tuple[np.ndarray, np.ndarray]:
    """One synchronous step of the component pair, alpha summed over ``live``.

    The grid is cut into row bands of at most ``_BAND_CELLS`` cells, so no
    band buffer outgrows the cache, and the cut depends on the width alone.
    The calling thread and ``k - 1`` pool threads take the bands one at a
    time from a shared queue, with ``k`` the smaller of the CPUs this process
    may run on and one thread per ``_MIN_BANDS_PER_THREAD`` bands. Each
    thread pads a band's rows with a halo and steps it in its own
    ``_BandScratch``, built for this step and dropped with it, writing
    straight into the outputs. Every cell reads only the previous
    generation, so the sharing never changes a byte.
    """
    h, w = live.shape
    torus = boundary is Boundary.TORUS
    new_live = np.empty_like(live)
    new_dead = np.empty_like(dead)
    rows = min(h, max(1, _BAND_CELLS // w))
    bands = [(y0, min(y0 + rows, h)) for y0 in range(0, h, rows)]

    def run(queue: Iterator[tuple[int, int]]) -> None:
        s = _BandScratch(rows, w)
        for y0, y1 in queue:
            n = y1 - y0
            flat = _halo_band(live, y0, y1, torus, s.halo).reshape(-1)
            # Sum over the flat halo of pitch w + 2: cell (y, x) of the pitched sum is
            # flat[y * pitch + x] and its neighbor (dx, dy) sits (1 + dy) * pitch + 1 + dx
            # further on. Each row's last two sums are junk and the last row's are not
            # taken, so the (1, 1) slice ends on the band halo's last element.
            pitch, size = w + 2, n * (w + 2) - 2
            pitched = s.complex[1:].reshape(-1)  # unit and the raw pair, free until the mix
            acc = pitched[:size]
            starts = ((1 + dy) * pitch + 1 + dx for dx, dy in _OFFSETS)
            # 0 + x as the scalar sum has it: a -0 part of the first neighbor reads +0
            start = next(starts)
            np.add(flat[start : start + size], 0.0, out=acc)
            for start in starts:
                acc += flat[start : start + size]
            alpha = s.complex[0, :n]
            np.copyto(alpha, pitched[: n * pitch].reshape(n, pitch)[:, :w])
            _step_band(live[y0:y1], dead[y0:y1], alpha, s, new_live[y0:y1], new_dead[y0:y1])
            if canonicalize_dead_phase:
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


def step_grid(g: Grid, canonicalize_dead_phase: bool = False) -> Grid:
    """Synchronous update of the whole grid.

    Pure function: the input grid is untouched and the result is bit-identical
    for any thread count, because every cell reads only the previous
    generation and the bands the core steps depend on the width alone. The
    threads are capped by the process's CPU affinity.
    """
    new_a, new_b = _step_arrays(g.a, g.b, g.boundary, canonicalize_dead_phase)
    return Grid._adopt(new_a, new_b, g.boundary)


def dual_step_grid(g: Grid, canonicalize_dead_phase: bool = False) -> Grid:
    """Mirror stepper with the roles of the two components exchanged.

    Neighbor sums run over the b coefficients, birth fills the b slot, death
    fills the a slot, and total cancellation maps to the canonical all-alive
    cell (1, 0); ``canonicalize_dead_phase`` strips the phase of ``a``. It is
    the core of ``step_grid`` called with the components swapped, so
    swap-step-swap agreement does not check it on its own; the scalar
    ``step_cell``, applied with the roles swapped, does.
    """
    new_b, new_a = _step_arrays(g.b, g.a, g.boundary, canonicalize_dead_phase)
    return Grid._adopt(new_a, new_b, g.boundary)


def swap_components(g: Grid) -> Grid:
    """Exchange the alive and dead coefficients of every cell."""
    return Grid._adopt(g.b, g.a, g.boundary)
