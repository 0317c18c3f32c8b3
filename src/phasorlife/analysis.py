"""Long-run fate classification, phase sweeps, and burn-rate measurement.

Amplitudes are continuous, so "same pattern" is operationalized as recurrence
of the per-cell alive-probability map within a tolerance, on a torus also up
to a rigid translation (for moving patterns). On a fixed boundary a mover
reaches the wall, so it is stepped on until it settles or the horizon ends.
A verdict is only issued once the same recurrence is confirmed at two
consecutive generations.
"""

from __future__ import annotations

import cmath
import math
import operator
import warnings
from collections.abc import Iterator
from dataclasses import asdict, dataclass
from itertools import pairwise

import numpy as np

from .rules import step_grid
from .state import Boundary, CellState, Grid

BORDER_EPS = 1e-6
# defaults: generations per classification and recurrence tolerance on alive-probability maps
MAX_GEN = 200
TOL = 1e-6
# alive probability below which a cell counts as dead
DEAD_THRESHOLD = 1e-6

VERDICT_DEAD = "dead"
VERDICT_STILL_LIFE = "still_life"
VERDICT_OSCILLATOR = "oscillator"
VERDICT_TRANSLATING = "translating"
VERDICT_UNRESOLVED = "unresolved"

STABLE_VERDICTS = frozenset({VERDICT_STILL_LIFE, VERDICT_OSCILLATOR, VERDICT_TRANSLATING})


class BurnRateUnmeasurable(RuntimeError):
    """The pattern died before enough frames existed to fit a rate."""


@dataclass(frozen=True)
class FateReport:
    """Classification of a pattern's long-run behavior with supporting metrics."""

    verdict: str
    generations_run: int
    max_alive_probability_final: float
    alive_probability_history: tuple[float, ...]
    generation: int | None = None  # first all-dead generation, for dead verdicts
    period: int | None = None
    dx: int | None = None
    dy: int | None = None
    border_contact: bool = False

    def is_stable(self) -> bool:
        return self.verdict in STABLE_VERDICTS

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class SweepResult:
    """Per-phase fates for one swept cell, plus a bracketed transition if found."""

    phases: tuple[float, ...]
    reports: tuple[FateReport, ...]
    critical_angle_estimate: float | None


def _touches_border(probs: np.ndarray) -> bool:
    edges = np.concatenate((probs[0], probs[-1], probs[:, 0], probs[:, -1]))
    return bool((edges > BORDER_EPS).any())


# Totals gate allowance: 8 units of roundoff (2**-53) per cell, and a floor
# below which only subnormal intermediates live.
_GATE_EPS = 2.0**-50
_GATE_FLOOR = 2.0**-1022


def _gate(now, earlier, m: int, tol: float) -> np.ndarray:
    """Whether computed sums of m cells, now and earlier, can belong to maps
    within tol cell by cell (see ``_RecurrenceMatcher._stationary``)."""
    bound = tol * m + m * _GATE_EPS * (now + earlier + tol * m) + _GATE_FLOOR
    return ~(np.abs(earlier - now) > bound)


def _within(p: np.ndarray, m: np.ndarray, tol: float) -> bool:
    """max over cells of |p - m| <= tol; a NaN in either map fails."""
    return bool(np.abs(p - m).max() <= tol)


def _offsets(h: int, w: int, gap: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat dx, dy of the offsets searched over gap generations on an h x w
    torus, dy outer and dx inner, without (0, 0): each range runs from -lim
    (one cell per generation) up to the last offset whose wrapped window
    differs from every earlier one, as dx and dx - w select the same window.
    """
    lim_x, lim_y = min(gap, w - 1), min(gap, h - 1)
    dx = np.arange(-lim_x, min(lim_x, w - 1 - lim_x) + 1)
    dy = np.arange(-lim_y, min(lim_y, h - 1 - lim_y) + 1)
    dxs, dys = np.tile(dx, dy.size), np.repeat(dy, dx.size)
    moved = (dxs != 0) | (dys != 0)
    return dxs[moved], dys[moved]


class _RecurrenceMatcher:
    """Recurrence tests of the newest generation against every earlier one.

    Generation i matches an earlier generation j with offset (0, 0) when
    max|p_i - p_j| <= tol, and otherwise, on a torus only, with the first
    translation ``_translation`` finds; either kind is tried only for pairs
    that pass one totals gate, and an in-place compare only when every row
    sum passes the same gate too. The gates drop only pairs that cannot
    match, and the maps and windows left are compared one at a time, so
    verdicts are exact. A translation of (t, j) is searched only when
    (t-1, j-1) can match, and is kept for one generation to confirm the
    next pair.
    """

    def __init__(self, boundary: Boundary, tol: float, size: int) -> None:
        self.probs: list[np.ndarray] = []  # one alive-probability map per generation
        # each map's total and row sums (for the in-place gate), for up to size maps;
        # the rows are sized by the first map
        self.totals = np.empty(size)
        self.rows = np.empty((size, 0))
        self.torus = boundary is Boundary.TORUS
        self.tol = tol
        # newest generation vs each earlier one: in place within tol, totals gate passed
        self.stationary = self.gate = np.zeros(0, dtype=bool)
        self.shifts: dict[int, tuple[int, int] | None] = {}  # j -> offset of (newest, j)

    def append(self, p: np.ndarray) -> None:
        """Add the next generation's map to the history, without matching it."""
        t = len(self.probs)
        if not t:
            self.rows = np.empty((len(self.totals), len(p)))
        self.probs.append(p)
        self.totals[t] = p.sum()
        self.rows[t] = p.sum(axis=1)

    def history(self) -> tuple[float, ...]:
        """Each map's total, in generation order."""
        return tuple(self.totals[: len(self.probs)].tolist())

    def advance(self, p: np.ndarray) -> tuple[int, tuple[int, int]] | None:
        """Add the next generation's map; return the smallest period (and
        offset) confirmed at the newest two generations."""
        self.append(p)
        t = len(self.probs) - 1
        stat_prev, gate_prev = self.stationary, self.gate
        self.stationary, self.gate = self._stationary(t)
        shifts_prev, self.shifts = self.shifts, {}
        if t < 2:
            return None
        # index k is period k + 1: pair (t, t-1-k), confirmed by (t-1, t-2-k)
        now = self.stationary[t - 1 : 0 : -1]
        prev = stat_prev[::-1]
        still = now & prev
        # a fixed boundary matches in place only
        moving = self.torus & self.gate[t - 1 : 0 : -1] & gate_prev[::-1] & ~now & ~prev
        for k in np.flatnonzero(still | moving).tolist():
            period = k + 1
            if still[k]:
                return period, (0, 0)
            j = t - period
            searched = j - 1 in shifts_prev
            if searched and shifts_prev[j - 1] is None:
                continue
            offset = self.shifts[j] = self._translation(t, j)
            if offset is None:
                continue
            before = shifts_prev[j - 1] if searched else self._translation(t - 1, j - 1)
            if offset == before:
                return period, offset
        return None

    def _stationary(self, t: int) -> tuple[np.ndarray, np.ndarray]:
        """max|p_t - p_j| <= tol for each j < t, and whether j passed the totals gate.

        Only the j whose total and every row sum pass ``_gate`` are compared,
        one at a time.
        With u = 2**-53 and S the computed sums of the same m cells of p_t
        and p_j: if every computed |p_t - p_j| is at most tol, the exact sums
        differ by at most m * tol * (1 + u), and a computed sum of m
        nonnegative terms lies within about m * u of its exact value,
        relatively, in any summation order. So

            |S_t - S_j| <= m*tol + m*u*(S_t + S_j + m*tol)  (to first order in m*u)

        holds for every match. The gate admits j when
        |S_t - S_j| <= m*tol + m*2**-50*(S_t + S_j + m*tol) + 2**-1022: eight
        times that rounding allowance, which also absorbs the gate's own few
        roundings, plus a floor for subnormal intermediates. NaN or infinite
        sums always pass. The totals (m = n cells) hold for p_j in place or
        moved on a torus; a row (m = w) holds the same cells only in place.
        Passing is necessary for a match, not sufficient.
        """
        p = self.probs[t]
        gate = _gate(self.totals[t], self.totals[:t], p.size, self.tol)
        candidates = np.flatnonzero(gate)
        in_place = _gate(self.rows[t], self.rows[candidates], p.shape[1], self.tol)
        candidates = candidates[in_place.all(axis=1)]
        hits = np.zeros(t, dtype=bool)
        for j in candidates.tolist():
            hits[j] = _within(p, self.probs[j], self.tol)
        return hits, gate

    def _translation(self, i: int, j: int) -> tuple[int, int] | None:
        """First offset of ``_offsets`` that carries p_j onto p_i within tol.

        Each candidate is a window into one wrap-padded copy of p_j. The
        probe cells of p_i are the cells of the row holding its first maximum
        (a NaN, if any) that are not within tol of 0. One gather per probe
        cell drops the windows that miss it by more than tol, or by a NaN, and
        so would fail the full compare too. The windows left are compared one
        at a time, in order.
        """
        p_now, p_then = self.probs[i], self.probs[j]
        h, w = p_now.shape
        dxs, dys = _offsets(h, w, i - j)
        # padded[pad_y + y, pad_x + x] = p_then[y, x], wrapped around it. p_then moved
        # by (dx, dy) is the window whose top left cell has flat index corner in padded
        pad_y, pad_x = min(i - j, h - 1), min(i - j, w - 1)
        tall = np.concatenate((p_then[h - pad_y :], p_then, p_then[:pad_y]))
        padded = np.concatenate((tall[:, w - pad_x :], tall, tall[:, :pad_x]), axis=1)
        width = padded.shape[1]
        corners = (pad_y - dys) * width + pad_x - dxs
        y0 = int(np.argmax(p_now)) // w
        row = p_now[y0]
        for x in np.flatnonzero(~(np.abs(row) <= self.tol)).tolist():
            corners = corners[np.abs(row[x] - padded.take(corners + (y0 * width + x))) <= self.tol]
            if not corners.size:
                return None
        for c in corners.tolist():
            y, x = divmod(c, width)
            if _within(p_now, padded[y : y + h, x : x + w], self.tol):
                return pad_x - x, pad_y - y
        return None


def evolve(g: Grid, generations: int, canonicalize_dead_phase: bool) -> Iterator[Grid]:
    """Generation 0 (g itself), then generations 1 .. generations.

    Each later grid is one ``step_grid`` of the one before, taken only when
    the caller asks for it. The generator holds only the latest grid, so
    generation 0 is freed once the caller drops it too.
    """
    yield g
    for _ in range(generations):
        g = step_grid(g, canonicalize_dead_phase)
        yield g


def _check_dead_threshold(dead_threshold: float) -> None:
    if not 0.0 < dead_threshold < 0.5:
        raise ValueError("dead_threshold must lie in (0, 0.5)")


def _check_classify(max_gen: int, tol: float, dead_threshold: float) -> int:
    """``classify``'s ``max_gen`` as an int; raises ValueError on any bad argument."""
    max_gen = operator.index(max_gen)
    if max_gen < 1:
        raise ValueError("max_gen must be at least 1")
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ValueError("tol must be positive and finite")
    _check_dead_threshold(dead_threshold)
    return max_gen


def _check_phases(phases) -> list[float]:
    """``sweep_phase``'s phases as floats, if non-empty, finite and strictly increasing."""
    phases = [float(p) for p in phases]
    if not phases:
        raise ValueError("phases must be non-empty")
    if not all(map(math.isfinite, phases)):
        raise ValueError("phases must be finite")
    if any(b <= a for a, b in pairwise(phases)):
        raise ValueError("phases must be strictly increasing")
    return phases


def classify(
    g0: Grid,
    max_gen: int = MAX_GEN,
    tol: float = TOL,
    dead_threshold: float = DEAD_THRESHOLD,
    canonicalize_dead_phase: bool = False,
) -> FateReport:
    """Run up to max_gen generations and classify the long-run behavior.

    Reports dead at the first generation where every cell's alive probability
    sits below ``dead_threshold``; otherwise looks for the smallest
    recurrence period (still life, oscillator, or, on a torus, translation)
    confirmed at two consecutive generations; otherwise unresolved.
    """
    max_gen = _check_classify(max_gen, tol, dead_threshold)

    fixed = g0.boundary is Boundary.FIXED_DEAD
    border = False
    matcher = _RecurrenceMatcher(g0.boundary, tol, max_gen + 1)

    def report(verdict: str, t: int, **extra) -> FateReport:
        return FateReport(
            verdict=verdict,
            generations_run=t,
            max_alive_probability_final=float(matcher.probs[-1].max()),
            alive_probability_history=matcher.history(),
            border_contact=border,
            **extra,
        )

    for t, g in enumerate(evolve(g0, max_gen, canonicalize_dead_phase)):
        p = g.alive_probability()
        if fixed and not border and _touches_border(p):
            border = True
            msg = (f"live amplitude {'reached' if t else 'on'} the fixed boundary;"
                   " the finite grid truncates the dynamics")
            warnings.warn(msg, RuntimeWarning, stacklevel=2)
        if p.max() < dead_threshold:
            matcher.append(p)  # kept for the report, not matched
            return report(VERDICT_DEAD, t, generation=t)
        found = matcher.advance(p)
        if found is None:
            continue
        period, offset = found
        if offset == (0, 0):
            if period == 1:
                return report(VERDICT_STILL_LIFE, t)
            return report(VERDICT_OSCILLATOR, t, period=period)
        return report(VERDICT_TRANSLATING, t, period=period, dx=offset[0], dy=offset[1])
    return report(VERDICT_UNRESOLVED, max_gen)


def _single_transition_estimate(phases: list[float], reports: list[FateReport]) -> float | None:
    pairs = list(pairwise(r.verdict for r in reports))
    forward = [i for i, (v, w) in enumerate(pairs) if v in STABLE_VERDICTS and w == VERDICT_DEAD]
    backward = any(v == VERDICT_DEAD and w in STABLE_VERDICTS for v, w in pairs)
    if len(forward) == 1 and not backward:
        i = forward[0]
        return 0.5 * (phases[i] + phases[i + 1])
    return None


def sweep_phase(
    g: Grid,
    cell: tuple[int, int],
    phases: list[float],
    max_gen: int = MAX_GEN,
    tol: float = TOL,
    dead_threshold: float = DEAD_THRESHOLD,
    canonicalize_dead_phase: bool = False,
) -> SweepResult:
    """Classify the pattern once per phase value applied to one live cell.

    Each run replaces the target cell's a with |a| e^(i theta), keeping its
    magnitude. The critical angle estimate is the midpoint of the unique
    stable-to-dead consecutive pair, when exactly one such transition exists.
    """
    x, y = cell
    base = g.cell(x, y)
    amp = abs(base.a)
    if amp == 0.0:
        raise ValueError("sweep target cell is dead")
    phases = _check_phases(phases)
    reports = []
    for theta in phases:
        replaced = CellState(amp * cmath.exp(1j * theta), base.b)
        reports.append(classify(g.with_cell(x, y, replaced), max_gen, tol, dead_threshold,
                                canonicalize_dead_phase))
    estimate = _single_transition_estimate(phases, reports)
    return SweepResult(tuple(phases), tuple(reports), estimate)


def measure_burn_rate(
    g: Grid,
    max_gen: int = MAX_GEN,
    dead_threshold: float = DEAD_THRESHOLD,
    canonicalize_dead_phase: bool = False,
) -> float:
    """Rate at which the live bounding box shrinks along its major axis.

    Fits a least-squares line to the extent while it is still changing and
    returns the negated slope, so a structure consumed one cell per
    generation measures 1.0 and a static structure measures 0.0. Raises
    BurnRateUnmeasurable when the pattern dies before three frames exist, and
    ValueError when ``max_gen`` leaves fewer than three.
    """
    max_gen = operator.index(max_gen)
    if max_gen < 2:
        raise ValueError("max_gen must be at least 2")
    _check_dead_threshold(dead_threshold)
    extents: list[int] = []
    axis: str | None = None
    for g in evolve(g, max_gen, canonicalize_dead_phase):
        mask = g.alive_probability() >= dead_threshold  # as in classify, equal is live
        if not mask.any():
            if len(extents) < 3:
                raise BurnRateUnmeasurable(
                    f"pattern died after {len(extents)} frames; no rate to fit"
                )
            break
        ys, xs = np.nonzero(mask)
        ext_x = int(xs.max() - xs.min() + 1)
        ext_y = int(ys.max() - ys.min() + 1)
        if axis is None:
            axis = "x" if ext_x >= ext_y else "y"
        extents.append(ext_x if axis == "x" else ext_y)
    changes = [i for i in range(1, len(extents)) if extents[i] != extents[i - 1]]
    if not changes:
        return 0.0
    series = np.asarray(extents[: changes[-1] + 1], dtype=float)
    slope = np.polyfit(np.arange(series.size), series, 1)[0]
    return float(-slope)
