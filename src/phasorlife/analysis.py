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
import warnings
from collections.abc import Iterator
from dataclasses import asdict, dataclass

import numpy as np

from .rules import step_grid
from .state import Boundary, CellState, Grid

BORDER_EPS = 1e-6
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
    return bool(
        (probs[0, :] > BORDER_EPS).any()
        or (probs[-1, :] > BORDER_EPS).any()
        or (probs[:, 0] > BORDER_EPS).any()
        or (probs[:, -1] > BORDER_EPS).any()
    )


# Cells per compare temporary: maps or shifted windows are compared in chunks
# of at most this many cells (and at least one map), whatever the grid size.
_BATCH_CELLS = 1 << 15
# Totals gate allowance: 8 units of roundoff (2**-53) per cell, and a floor
# below which only subnormal intermediates live.
_GATE_EPS = 2.0**-50
_GATE_FLOOR = 2.0**-1022


def _max_diffs(p: np.ndarray, maps: list[np.ndarray]):
    """Yield (start, max over cells of |p - m|) for consecutive chunks of maps."""
    step = max(1, _BATCH_CELLS // p.size)
    for k in range(0, len(maps), step):
        yield k, np.abs(p - np.asarray(maps[k : k + step])).max(axis=(1, 2))


class _RecurrenceMatcher:
    """Recurrence tests of the newest generation against every earlier one.

    Generation i matches an earlier generation j with offset (0, 0) when
    max|p_i - p_j| <= tol, and otherwise, on a torus only and if their totals
    differ by at most tol * size, with the first translation ``_translation``
    finds. The tests compare the same floats as a pair-at-a-time compare, so
    verdicts are exact. A translation of (t, j) is searched only when
    (t-1, j-1) can match, and is kept for one generation to confirm the next
    pair.
    """

    def __init__(self, boundary: Boundary, tol: float) -> None:
        self.probs: list[np.ndarray] = []  # one alive-probability map per generation
        self.totals: list[float] = []
        self.torus = boundary is Boundary.TORUS
        self.tol = tol
        self.stationary = np.zeros(0, dtype=bool)  # newest generation vs each earlier one
        self.shifts: dict[int, tuple[int, int] | None] = {}  # j -> offset of (newest, j)
        self.probes: dict[int, tuple[int, list[tuple[int, float]]]] = {}

    def append(self, p: np.ndarray) -> None:
        """Add the next generation's map to the history, without matching it."""
        self.probs.append(p)
        self.totals.append(float(p.sum()))

    def advance(self, p: np.ndarray) -> tuple[int, tuple[int, int]] | None:
        """Add the next generation's map; return the smallest period (and
        offset) confirmed at the newest two generations."""
        self.append(p)
        t = len(self.probs) - 1
        totals = np.array(self.totals)
        stat_prev, self.stationary = self.stationary, self._stationary(t, totals)
        shifts_prev, self.shifts = self.shifts, {}
        if t < 2:
            return None
        # index k is period k + 1: pair (t, t-1-k), confirmed by (t-1, t-2-k)
        now = self.stationary[t - 1 : 0 : -1]
        prev = stat_prev[::-1]
        still = now & prev
        moving = np.zeros_like(still)
        if self.torus:  # a fixed boundary matches in place only
            limit = self.tol * self.probs[t].size
            close_now = np.abs(totals[t] - totals[t - 1 : 0 : -1]) <= limit
            close_prev = np.abs(totals[t - 1] - totals[t - 2 :: -1]) <= limit
            moving = close_now & close_prev & ~now & ~prev
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

    def _stationary(self, t: int, totals: np.ndarray) -> np.ndarray:
        """max|p_t - p_j| <= tol for each j < t.

        Only the j that pass a totals gate are compared. With n cells,
        u = 2**-53 and T the computed totals: if every computed |p_t - p_j| is
        at most tol, the exact totals differ by at most n * tol * (1 + u), and
        a computed sum of n nonnegative terms lies within about n * u of its
        exact value, relatively, in any summation order. So

            |T_t - T_j| <= n*tol + n*u*(T_t + T_j + n*tol)  (to first order in n*u)

        holds for every match. The gate admits j when
        |T_t - T_j| <= n*tol + n*2**-50*(T_t + T_j + n*tol) + 2**-1022: eight
        times that rounding allowance, which also absorbs the gate's own few
        roundings, plus a floor for subnormal intermediates. NaN or infinite
        totals always pass. Passing is necessary for a match, not sufficient.
        """
        p = self.probs[t]
        n = p.size
        earlier = totals[:t]
        bound = self.tol * n + n * _GATE_EPS * (totals[t] + earlier + self.tol * n) + _GATE_FLOOR
        candidates = np.flatnonzero(~(np.abs(earlier - totals[t]) > bound))
        hits = np.zeros(t, dtype=bool)
        for k, diffs in _max_diffs(p, [self.probs[j] for j in candidates]):
            hits[candidates[k : k + diffs.size]] = diffs <= self.tol
        return hits

    def _probe(
        self, i: int, p_then: np.ndarray, offsets: list[tuple[int, int]], pad_x: tuple[int, int]
    ) -> list[tuple[int, int]]:
        """The offsets, in order, whose window of p_then is within tol of p_i
        on every probe cell.

        The probe cells of p_i are the (x, value) cells of row y0, the row
        holding its first maximum, whose value is not within tol of 0 (NaN
        cells included); they are kept per generation. Each row y0 - dy of
        p_then is read once as a list, wrapped by pad_x = (left, right) cells
        like the padded copy in ``_translation``. A window that misses one
        probe cell has a max difference above tol (or NaN), so it fails the
        full compare too.
        """
        tol = self.tol
        if i not in self.probes:
            p = self.probs[i]
            y0 = int(np.argmax(p)) // p.shape[1]
            row = p[y0].tolist()
            self.probes[i] = (y0, [(x, v) for x, v in enumerate(row) if not abs(v) <= tol])
        y0, probes = self.probes[i]
        h, w = p_then.shape
        left, right = pad_x
        rows: dict[int, list[float]] = {}
        passed = []
        for dx, dy in offsets:
            row = rows.get(dy)
            if row is None:
                cells = p_then[(y0 - dy) % h].tolist()
                row = rows[dy] = cells[w - left :] + cells + cells[:right]
            shift = left - dx
            for x, v in probes:
                if not abs(v - row[x + shift]) <= tol:
                    break
            else:
                passed.append((dx, dy))
        return passed

    def _translation(self, i: int, j: int) -> tuple[int, int] | None:
        """First nonzero offset (dx, dy) that carries p_j onto p_i within tol
        on a torus.

        Offsets move at most one cell per generation, and the candidates are
        a block of dy times dx, dy outer and dx inner, each range running
        from -lim up to the last offset whose wrapped window differs from
        every earlier one. Candidates that fail the row probe (``_probe``)
        are dropped; each one left is a window into one wrap-padded copy of
        p_j, and the windows are compared in bounded chunks, in order.
        """
        p_now, p_then = self.probs[i], self.probs[j]
        h, w = p_now.shape
        lim_x = min(i - j, w - 1)
        lim_y = min(i - j, h - 1)
        # dx and dx - w (dy and dy - h) select the same wrapped window
        dxs = range(-lim_x, min(lim_x, w - 1 - lim_x) + 1)
        dys = range(-lim_y, min(lim_y, h - 1 - lim_y) + 1)
        offsets = [(dx, dy) for dy in dys for dx in dxs if dx or dy]
        if not offsets:
            return None
        # padded[top + y, left + x] = p_then[y, x], wrapped around it
        top, left = max(0, dys[-1]), max(0, dxs[-1])
        pad = ((top, max(0, -dys[0])), (left, max(0, -dxs[0])))
        offsets = self._probe(i, p_then, offsets, pad[1])
        if not offsets:
            return None
        padded = np.pad(p_then, pad, mode="wrap")
        views = [padded[top - dy : top - dy + h, left - dx : left - dx + w] for dx, dy in offsets]
        for k, diffs in _max_diffs(p_now, views):
            hit = np.flatnonzero(diffs <= self.tol)
            if hit.size:
                return offsets[k + int(hit[0])]
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
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ValueError("tol must be positive and finite")
    _check_dead_threshold(dead_threshold)

    fixed = g0.boundary is Boundary.FIXED_DEAD
    border = False
    matcher = _RecurrenceMatcher(g0.boundary, tol)

    def report(verdict: str, t: int, **extra) -> FateReport:
        return FateReport(
            verdict=verdict,
            generations_run=t,
            max_alive_probability_final=float(matcher.probs[-1].max()),
            alive_probability_history=tuple(matcher.totals),
            border_contact=border,
            **extra,
        )

    for t, g in enumerate(evolve(g0, max_gen, canonicalize_dead_phase)):
        p = g.alive_probability()
        if fixed and not border and _touches_border(p):
            border = True
            if t:
                msg = "live amplitude reached the fixed boundary; the finite grid truncates the dynamics"
            else:
                msg = "live amplitude on the fixed boundary; the finite grid truncates the dynamics"
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


def _single_transition_estimate(
    phases: list[float], reports: list[FateReport]
) -> float | None:
    verdicts = [r.verdict for r in reports]
    forward = [
        i
        for i in range(len(verdicts) - 1)
        if verdicts[i] in STABLE_VERDICTS and verdicts[i + 1] == VERDICT_DEAD
    ]
    backward = any(
        verdicts[i] == VERDICT_DEAD and verdicts[i + 1] in STABLE_VERDICTS
        for i in range(len(verdicts) - 1)
    )
    if len(forward) == 1 and not backward:
        i = forward[0]
        return 0.5 * (phases[i] + phases[i + 1])
    return None


def sweep_phase(
    g: Grid,
    cell: tuple[int, int],
    phases: list[float],
    max_gen: int = 200,
    tol: float = 1e-6,
    dead_threshold: float = DEAD_THRESHOLD,
    canonicalize_dead_phase: bool = False,
) -> SweepResult:
    """Classify the pattern once per phase value applied to one live cell.

    Each run replaces the target cell's a with |a| e^(i theta), keeping its
    magnitude. The critical angle estimate is the midpoint of the unique
    stable-to-dead consecutive pair, when exactly one such transition exists.
    """
    x, y = cell
    if not (0 <= x < g.width and 0 <= y < g.height):
        raise IndexError(f"sweep cell ({x}, {y}) out of bounds")
    base = g.cell(x, y)
    amp = abs(base.a)
    if amp == 0.0:
        raise ValueError("sweep target cell is dead")
    phases = [float(p) for p in phases]
    if not phases:
        raise ValueError("phases must be non-empty")
    if not all(map(math.isfinite, phases)):
        raise ValueError("phases must be finite")
    if any(b <= a for a, b in zip(phases, phases[1:])):
        raise ValueError("phases must be strictly increasing")
    reports = []
    for theta in phases:
        replaced = CellState(amp * cmath.exp(1j * theta), base.b)
        reports.append(classify(g.with_cell(x, y, replaced), max_gen, tol, dead_threshold,
                                canonicalize_dead_phase))
    estimate = _single_transition_estimate(phases, reports)
    return SweepResult(tuple(phases), tuple(reports), estimate)


def measure_burn_rate(
    g: Grid,
    max_gen: int = 200,
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
    last_change = 0
    for i in range(1, len(extents)):
        if extents[i] != extents[i - 1]:
            last_change = i
    if last_change == 0:
        return 0.0
    series = np.asarray(extents[: last_change + 1], dtype=float)
    slope = np.polyfit(np.arange(series.size), series, 1)[0]
    return float(-slope)
