from __future__ import annotations

import itertools
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phasorlife import analysis
from phasorlife import (
    ALIVE,
    Boundary,
    BurnRateUnmeasurable,
    CellState,
    Grid,
    PatternDocument,
    classify,
    conway_step,
    lift,
    measure_burn_rate,
    step_grid,
    sweep_phase,
)
from phasorlife.oracle import BoolGrid
from phasorlife.rules import DEFAULT_CONFIG
import classify_reference as reference
from classify_reference import classify as reference_classify
from conftest import PATTERNS_DIR, load_pattern, probability_drift


GLIDER = [(2, 1), (3, 2), (1, 3), (2, 3), (3, 3)]


def lifted(width, height, live, boundary=Boundary.FIXED_DEAD):
    return lift(BoolGrid.from_coords(width, height, live, boundary))


def matcher_over(probs, boundary, tol):
    """A matcher whose history holds these maps, none of them matched yet."""
    matcher = analysis._RecurrenceMatcher(boundary, tol)
    for p in probs:
        matcher.append(p)
    return matcher


def window(p, dx, dy, boundary):
    """p moved by (dx, dy): wrapped on a torus, dead-filled on a fixed grid."""
    if boundary is Boundary.TORUS:
        return np.roll(p, (dy, dx), axis=(0, 1))
    return reference._shifted(p, dx, dy)


# ten canonical classical patterns and their expected fates
CANONICAL = [
    ("block", 6, 6, [(2, 2), (3, 2), (2, 3), (3, 3)], Boundary.FIXED_DEAD, "still_life", None),
    ("beehive", 7, 6, [(2, 2), (3, 2), (1, 3), (4, 3), (2, 4), (3, 4)],
     Boundary.FIXED_DEAD, "still_life", None),
    ("loaf", 7, 7, [(2, 1), (3, 1), (1, 2), (4, 2), (2, 3), (4, 3), (3, 4)],
     Boundary.FIXED_DEAD, "still_life", None),
    ("boat", 6, 6, [(1, 1), (2, 1), (1, 2), (3, 2), (2, 3)],
     Boundary.FIXED_DEAD, "still_life", None),
    ("tub", 6, 6, [(2, 1), (1, 2), (3, 2), (2, 3)], Boundary.FIXED_DEAD, "still_life", None),
    ("blinker", 5, 5, [(1, 2), (2, 2), (3, 2)], Boundary.FIXED_DEAD, "oscillator", 2),
    ("toad", 7, 6, [(2, 2), (3, 2), (4, 2), (1, 3), (2, 3), (3, 3)],
     Boundary.FIXED_DEAD, "oscillator", 2),
    ("beacon", 7, 7, [(1, 1), (2, 1), (1, 2), (4, 3), (3, 4), (4, 4)],
     Boundary.FIXED_DEAD, "oscillator", 2),
    ("pulsar", 17, 17,
     [(x + 2, y + 2) for (y, x) in [
         (0, 2), (0, 3), (0, 4), (0, 8), (0, 9), (0, 10),
         (2, 0), (2, 5), (2, 7), (2, 12),
         (3, 0), (3, 5), (3, 7), (3, 12),
         (4, 0), (4, 5), (4, 7), (4, 12),
         (5, 2), (5, 3), (5, 4), (5, 8), (5, 9), (5, 10),
         (7, 2), (7, 3), (7, 4), (7, 8), (7, 9), (7, 10),
         (8, 0), (8, 5), (8, 7), (8, 12),
         (9, 0), (9, 5), (9, 7), (9, 12),
         (10, 0), (10, 5), (10, 7), (10, 12),
         (12, 2), (12, 3), (12, 4), (12, 8), (12, 9), (12, 10)]],
     Boundary.FIXED_DEAD, "oscillator", 3),
    ("glider", 8, 8, [(2, 1), (3, 2), (1, 3), (2, 3), (3, 3)],
     Boundary.TORUS, "translating", 4),
    # the one classical case that reaches the fixed-boundary translation search
    ("glider_fixed", 20, 20, [(2, 1), (3, 2), (1, 3), (2, 3), (3, 3)],
     Boundary.FIXED_DEAD, "translating", 4),
]


def translated(alive, dx, dy, boundary):
    """alive moved by (dx, dy): wrapped on a torus, dead fill on a fixed boundary."""
    if boundary is Boundary.TORUS:
        return np.roll(alive, (dy, dx), axis=(0, 1))
    h, w = alive.shape
    out = np.zeros_like(alive)
    out[max(0, dy):h + min(0, dy), max(0, dx):w + min(0, dx)] = (
        alive[max(0, -dy):h + min(0, -dy), max(0, -dx):w + min(0, -dx)])
    return out


class TestClassify:
    @pytest.mark.parametrize("name,w,h,live,boundary,verdict,period", CANONICAL,
                             ids=[c[0] for c in CANONICAL])
    def test_canonical_patterns(self, name, w, h, live, boundary, verdict, period):
        report = classify(lifted(w, h, live, boundary))
        assert report.verdict == verdict
        if period is not None and verdict == "oscillator":
            assert report.period == period
        if verdict == "translating":
            assert report.period == period
            assert abs(report.dx) == 1 and abs(report.dy) == 1

    @pytest.mark.parametrize("name,w,h,live,boundary,verdict,period", CANONICAL,
                             ids=[c[0] for c in CANONICAL])
    def test_agrees_with_oracle_trajectory(self, name, w, h, live, boundary, verdict, period):
        # recurrence computed purely from the boolean oracle trajectory
        g = BoolGrid.from_coords(w, h, live, boundary)
        seen = [g]
        found = None
        for _ in range(40):
            g = conway_step(g)
            for gap in range(1, len(seen) + 1):
                prev = seen[len(seen) - gap]
                if g == prev:
                    found = gap
                    break
                moved = [
                    np.array_equal(g.alive, translated(prev.alive, dx, dy, boundary))
                    for dx in (-1, 0, 1) for dy in (-1, 0, 1)
                ]
                if any(moved):
                    found = -gap  # translation
                    break
            if found:
                break
            seen.append(g)
        if verdict == "still_life":
            assert found == 1
        elif verdict == "oscillator":
            assert found == period
        else:
            assert found == -period

    def test_empty_grid_dead_at_zero(self):
        report = classify(Grid.dead(4, 4))
        assert report.verdict == "dead"
        assert report.generation == 0

    def test_phase_flip_block_dead_at_two(self):
        doc = load_pattern("block_phase_pi.sqp")
        report = classify(doc.grid)
        assert (report.verdict, report.generation) == ("dead", 2)

    def test_three_eighths_block_dead_at_three(self):
        # the lone faint survivor of generation 2 has no live neighbors and is
        # removed exactly at generation 3
        doc = load_pattern("block_phase_3pi4.sqp")
        report = classify(doc.grid)
        assert (report.verdict, report.generation) == ("dead", 3)

    def test_loop_still_life(self):
        doc = load_pattern("loop.sqp")
        report = classify(doc.grid)
        assert report.verdict == "still_life"
        g = doc.grid
        for _ in range(100):
            g = step_grid(g)
            assert probability_drift(doc.grid, g) < 1e-6

    def test_history_tracks_total_probability(self):
        doc = load_pattern("block_phase_pi.sqp")
        report = classify(doc.grid)
        assert report.alive_probability_history[0] == pytest.approx(4.0)
        assert report.alive_probability_history[-1] == pytest.approx(0.0, abs=1e-12)

    def test_dead_is_monotone(self):
        # tiny residual amplitudes all sit in the pure-death region and are
        # zeroed exactly on the next step, so death cannot un-happen
        a = np.full((4, 4), 1e-4 + 0j)
        b = np.sqrt(1 - np.abs(a) ** 2).astype(complex)
        g = Grid(a, b)
        assert g.alive_probability().max() < 1e-6
        for _ in range(5):
            g = step_grid(g)
            assert g.alive_probability().max() == 0.0

    def test_border_contact_warns(self):
        g = lifted(4, 4, [(0, 0), (1, 0), (0, 1), (1, 1)])
        with pytest.warns(RuntimeWarning, match="^live amplitude on the fixed boundary; ") as seen:
            report = classify(g)
        assert len(seen) == 1
        assert report.border_contact

    def test_later_border_contact_warns_once(self):
        # the blinker starts inside the 5x3 grid and its vertical phase
        # reaches the top and bottom rows at generation 1
        g = lifted(5, 3, [(1, 1), (2, 1), (3, 1)])
        with pytest.warns(RuntimeWarning,
                          match="^live amplitude reached the fixed boundary; ") as seen:
            report = classify(g)
        assert len(seen) == 1
        assert report.border_contact and report.verdict == "oscillator"

    @pytest.mark.parametrize("tol", [0.0, math.nan, math.inf])
    def test_rejects_bad_tol(self, tol):
        with pytest.raises(ValueError, match="tol"):
            classify(load_pattern("blinker.sqp").grid, tol=tol)

    def test_interior_pattern_does_not_warn(self):
        import warnings

        doc = load_pattern("block.sqp")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = classify(doc.grid)
        assert not report.border_contact


SHIPPED = sorted(p.name for p in PATTERNS_DIR.glob("*.sqp"))
# the nine sweep points of the r-pentomino phase benchmark; 0, 4 and 8 give
# dead, unresolved and oscillator
RPENT_PHASES = np.linspace(math.pi * (0.5 + 8.25 / 192), math.pi * (0.5 + 92.25 / 192), 9)


@st.composite
def soups(draw):
    boundary = draw(st.sampled_from([Boundary.FIXED_DEAD, Boundary.TORUS]))
    # the reference tries every torus offset with one np.roll each, so a
    # torus side above 8 can cost it seconds per example
    side = 12 if boundary is Boundary.FIXED_DEAD else 8
    w = draw(st.integers(1, side))
    h = draw(st.integers(1, side))
    alive = np.array(draw(st.lists(st.booleans(), min_size=w * h, max_size=w * h)))
    alive = alive.reshape(h, w)
    if draw(st.booleans()):  # classical soup
        return Grid(alive.astype(complex), (~alive).astype(complex), boundary)
    # phase soup: live cells at |a| = 1 with a phase from a small set, so
    # interference both kills and sustains
    turns = np.array(draw(st.lists(st.integers(0, 7), min_size=w * h, max_size=w * h)))
    a = np.where(alive, np.exp(1j * np.pi / 4 * turns.reshape(h, w)), 0j)
    return Grid(a, (~alive).astype(complex), boundary)


class TestMatchesReference:
    """The batched matcher returns the same report as the pair-at-a-time reference."""

    @staticmethod
    def assert_same(g, **kwargs):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert classify(g, **kwargs) == reference_classify(g, **kwargs)

    @pytest.mark.parametrize("tol", [1e-6, 1e-3])
    @pytest.mark.parametrize("boundary", [Boundary.FIXED_DEAD, Boundary.TORUS])
    @pytest.mark.parametrize("name", SHIPPED)
    def test_shipped_patterns(self, name, boundary, tol):
        g = load_pattern(name).grid
        # 40 generations: the torus r-pentomino costs the reference ~10 s at 200
        self.assert_same(Grid(g.a, g.b, boundary), max_gen=40, tol=tol)

    @pytest.mark.parametrize("index,max_gen", [(0, 200), (4, 60), (8, 200)])
    def test_r_pentomino_sweep_points(self, index, max_gen):
        doc = load_pattern("r_pentomino.sqp")
        base = doc.grid.cell(20, 21)
        cell = CellState(abs(base.a) * np.exp(1j * RPENT_PHASES[index]), base.b)
        self.assert_same(doc.grid.with_cell(20, 21, cell), max_gen=max_gen)

    @pytest.mark.parametrize("tol", [1e-6, 1e-3])
    @pytest.mark.parametrize("delta", [-1e-4, 1e-6, 1e-4, 1e-3])
    def test_block_near_transition(self, delta, tol):
        # + 1e-4 is the slowly decaying block reported as a still life (ROADMAP
        # item 4); equality pins that verdict until it is fixed on purpose
        doc = load_pattern("block.sqp")
        cell = CellState(np.exp(1j * (math.acos(-0.25) + delta)), 0j)
        self.assert_same(doc.grid.with_cell(3, 3, cell), tol=tol)

    @pytest.mark.parametrize("batch_cells", [1, 1000, analysis._BATCH_CELLS])
    def test_fixed_boundary_glider(self, batch_cells):
        g = lifted(20, 20, [(2, 1), (3, 2), (1, 3), (2, 3), (3, 3)])
        with mock.patch.object(analysis, "_BATCH_CELLS", batch_cells):
            report = classify(g)
        assert (report.verdict, report.period, report.dx, report.dy) == ("translating", 4, 1, 1)
        assert report == reference_classify(g)

    @pytest.mark.parametrize("boundary,side,cell,amp,phase,tol", [
        (Boundary.TORUS, 8, (2, 1), 0.999, 0.0, 1e-6),
        (Boundary.TORUS, 8, (2, 1), 0.95, 0.3, 1e-3),
        (Boundary.FIXED_DEAD, 12, (2, 3), 0.99, 0.0, 1e-6),
        (Boundary.FIXED_DEAD, 12, (1, 3), 0.95, 0.0, 1e-4),
    ])
    def test_settling_glider(self, boundary, side, cell, amp, phase, tol):
        # one weakened cell: the glider settles within tol only after a few
        # generations, so a translation found at t - 1 confirms at t
        g = lifted(side, side, [(2, 1), (3, 2), (1, 3), (2, 3), (3, 3)], boundary)
        g = g.with_cell(*cell, CellState(amp * np.exp(1j * phase), math.sqrt(1 - amp * amp)))
        self.assert_same(g, tol=tol)

    @pytest.mark.parametrize("boundary", [Boundary.FIXED_DEAD, Boundary.TORUS])
    @pytest.mark.parametrize("gap", [1, 2, 3])
    def test_translation_search_order(self, boundary, gap):
        # maps that several offsets carry onto each other: the search must
        # return the same first offset as the reference order. Every shift of
        # the faint map is within tol, and its centroid moves by (1, 1), so on
        # a fixed boundary the first candidate is the excluded (0, 0)
        faint = np.zeros((10, 10))
        faint[1:8, 1:8] = np.random.default_rng(gap).random((7, 7)) * 1e-3
        cases = [(faint, 2e-3)]
        if boundary is Boundary.TORUS:
            ys, xs = np.indices((6, 6))
            diagonal = ((xs + 2 * ys) % 6) / 10.0  # symmetric under dx + 2 dy = 0 mod 6
            cases.append((diagonal, 1e-9))
        for p_then, tol in cases:
            p_now = np.roll(p_then, (1, 1), axis=(0, 1))
            probs = [p_then] + [p_now] * gap
            matcher = matcher_over(probs, boundary, tol)
            expected = reference._find_translation(p_now, p_then, gap, boundary, tol)
            assert expected is not None
            assert matcher._translation(gap, 0) == expected

    @staticmethod
    def assert_same_translation(probs, i, j, boundary, tol):
        """``_translation`` of (i, j) equals the reference, and exactly the
        candidates whose window agrees with p_i on its probe row reach the
        full compare, in order. Returns the offset, the candidates and the
        ones that passed the probe."""
        p_now, p_then = probs[i], probs[j]
        tested, compared = [], []
        probe, max_diffs = analysis._RecurrenceMatcher._probe, analysis._max_diffs

        def probing(matcher, k, p, offsets, pad_x):
            tested.extend(offsets)
            return probe(matcher, k, p, offsets, pad_x)

        def counting(p, maps):
            compared.extend(maps)
            return max_diffs(p, maps)

        matcher = matcher_over(probs, boundary, tol)
        with mock.patch.object(analysis._RecurrenceMatcher, "_probe", probing), \
                mock.patch.object(analysis, "_max_diffs", counting):
            found = matcher._translation(i, j)
        assert found == reference._find_translation(p_now, p_then, i - j, boundary, tol)
        # the probe row holds the first maximum (a NaN, if any); its probes
        # are the cells not within tol of 0
        y0 = int(np.argmax(p_now)) // p_now.shape[1]
        row = p_now[y0].tolist()
        probes = [x for x, v in enumerate(row) if not abs(v) <= tol]
        passed = [
            (dx, dy) for dx, dy in tested
            if all(abs(row[x] - window(p_then, dx, dy, boundary)[y0].tolist()[x]) <= tol
                   for x in probes)
        ]
        assert len(compared) == len(passed)
        for m, (dx, dy) in zip(compared, passed):
            assert np.array_equal(m, window(p_then, dx, dy, boundary), equal_nan=True)
        return found, tested, passed

    @pytest.mark.parametrize("gap", [39, 40, 47])
    def test_torus_search_skips_repeated_windows(self, gap):
        # once the gap reaches the side, dx and dx - 40 (dy and dy - 40) select
        # the same window; only the first of each is a candidate, so a glider
        # moved by (1, 1) still reports the reference's first offset, (-39, -39)
        p_then = lifted(40, 40, GLIDER, Boundary.TORUS).alive_probability()
        p_now = np.roll(p_then, (1, 1), axis=(0, 1))
        mirrored = p_now[::-1]  # no offset carries p_then onto it
        for p, expected in [(p_now, (-39, -39)), (mirrored, None)]:
            found, tested, passed = self.assert_same_translation(
                [p_then] + [p] * gap, gap, 0, Boundary.TORUS, 1e-6)
            assert found == expected
            assert len(tested) == 40 * 40 - 1  # of 79 * 79 - 1 offsets, only these windows differ
            # each probe row holds a live glider cell, which at most one
            # candidate per live cell of p_then carries onto it
            assert 0 < len(passed) <= 5

    @pytest.mark.parametrize("boundary", [Boundary.FIXED_DEAD, Boundary.TORUS])
    def test_probe_row_matches_window_fails_elsewhere(self, boundary):
        p_then = np.zeros((12, 12))
        p_then[3:9, 3:9] = np.random.default_rng(1).random((6, 6)) * 0.5
        p_then[4, 5] = 1.0
        p_now = window(p_then, 1, 1, boundary)
        p_now[8, 6] += 0.25  # below the probe row, which holds the peak in row 5
        found, _, passed = self.assert_same_translation(
            [p_then, p_now, p_now], 2, 0, boundary, 1e-6)
        assert found is None
        assert passed == [(1, 1)]

    @pytest.mark.parametrize("dx,dy", [(1, 0), (-1, 1), (2, -2)])
    def test_probe_true_translation_wraps_on_torus(self, dx, dy):
        # every cell is live, so every probe reads a wrapped cell for some dx
        p_then = np.random.default_rng(2).random((9, 11)) * 0.5 + 0.25
        p_now = window(p_then, dx, dy, Boundary.TORUS)
        found, _, passed = self.assert_same_translation(
            [p_then, p_now, p_now], 2, 0, Boundary.TORUS, 1e-6)
        assert found == (dx, dy)
        assert passed == [(dx, dy)]

    @pytest.mark.parametrize("dx", [1, -1])
    def test_probe_true_translation_dead_fills_on_fixed_grid(self, dx):
        # the peak sits in row 0, so candidates with dy = 1 probe the dead row
        # above the grid; the last row repeats the first, so a probe that
        # wrapped would pass (dx, 1) as well. Content leaves through a side.
        rng = np.random.default_rng(3)
        p_then = np.zeros((10, 10))
        p_then[:, 1:9] = rng.random((10, 8)) * 0.5
        p_then[:, 0 if dx < 0 else 9] = 0.01
        p_then[0, 4] = 1.0
        p_then[9] = p_then[0]
        p_now = window(p_then, dx, 0, Boundary.FIXED_DEAD)
        found, tested, passed = self.assert_same_translation(
            [p_then, p_now, p_now], 2, 0, Boundary.FIXED_DEAD, 1e-6)
        assert found == (dx, 0)
        assert (dx, 1) in tested
        assert passed == [(dx, 0)]

    @pytest.mark.parametrize("boundary", [Boundary.FIXED_DEAD, Boundary.TORUS])
    @pytest.mark.parametrize("peak", [0.3, 0.9])
    def test_loose_tol_without_probes(self, boundary, peak):
        # with every cell of p_now within tol of 0 there is nothing to probe,
        # so every candidate reaches the full compare; a peak of 0.9 in p_then
        # fails every window that keeps it on the grid
        rng = np.random.default_rng(4)
        p_now = rng.random((8, 8)) * 0.3
        p_then = rng.random((8, 8)) * 0.3
        p_then[4, 4] = peak
        _, tested, passed = self.assert_same_translation(
            [p_then, p_now, p_now], 2, 0, boundary, 0.3)
        assert passed == tested

    @pytest.mark.parametrize("where", ["now", "then"])
    def test_probe_rejects_nan(self, where):
        # no compare matches a NaN, so no window with one on the probe row
        # reaches the full compare (on a fixed grid, a NaN map's centroid is
        # NaN and both searches raise before any compare)
        p_then = np.zeros((10, 10))
        p_then[2:7, 2:7] = np.random.default_rng(5).random((5, 5)) * 0.5
        p_then[3, 4] = 1.0
        p_now = window(p_then, 1, 1, Boundary.TORUS)
        if where == "now":
            p_now[4, 3] = math.nan  # left of the peak in the probe row
        else:
            p_then[3, 2] = math.nan  # probed through the true offset
        found, _, passed = self.assert_same_translation(
            [p_then, p_now, p_now], 2, 0, Boundary.TORUS, 1e-6)
        assert found is None
        assert (1, 1) not in passed

    def test_probe_rejects_almost_every_candidate(self):
        # a probe that passed every offset would keep every report and lose
        # its gain: on the fixed r-pentomino, as analyzed and at the sweep
        # point that makes 6,016 searches, under 1% of the candidates that
        # the translation searches test may reach the full compare
        M = analysis._RecurrenceMatcher
        probe, translation, max_diffs = M._probe, M._translation, analysis._max_diffs
        tested, compared, searching = [], [], []

        def probing(matcher, i, p, offsets, pad_x):
            tested.append(len(offsets))
            return probe(matcher, i, p, offsets, pad_x)

        def search(matcher, i, j):
            searching.append((i, j))
            try:
                return translation(matcher, i, j)
            finally:
                searching.pop()

        def counting(p, maps):
            if searching:  # not the stationary compare
                compared.append(len(maps))
            return max_diffs(p, maps)

        doc = load_pattern("r_pentomino.sqp")
        assert doc.grid.boundary is Boundary.FIXED_DEAD
        base = doc.grid.cell(20, 21)
        swept = CellState(abs(base.a) * np.exp(1j * RPENT_PHASES[3]), base.b)
        with warnings.catch_warnings(), \
                mock.patch.multiple(M, _probe=probing, _translation=search), \
                mock.patch.object(analysis, "_max_diffs", counting):
            warnings.simplefilter("ignore", RuntimeWarning)
            for g in (doc.grid, doc.grid.with_cell(20, 21, swept)):
                assert classify(g, max_gen=200).generations_run == 200
        assert sum(tested) > 40_000
        assert sum(compared) < 0.01 * sum(tested)

    def test_small_torus_glider(self):
        # on a 5x5 torus the period-4 search already reaches the side, and
        # the reported offset is the first of the pair, (-4, -4), not (1, 1)
        g = lifted(5, 5, GLIDER, Boundary.TORUS)
        report = classify(g)
        assert (report.verdict, report.period, report.dx, report.dy) == ("translating", 4, -4, -4)
        assert report == reference_classify(g)

    def test_totals_gate_admits_every_match(self):
        # maps exactly tol apart in every cell: their computed totals often
        # differ by more than tol * size, so only the rounding slack admits them
        rng = np.random.default_rng(0)
        slack_needed = 0
        for _ in range(200):
            h, w = rng.integers(1, 30, 2)
            tol = float(rng.choice([1e-6, 1e-3, 0.3]))
            p = rng.random((h, w)) * rng.choice([1.0, 1e-3])
            probs = [p + tol, p]
            totals = [float(m.sum()) for m in probs]
            matcher = matcher_over(probs, Boundary.FIXED_DEAD, tol)
            stationary = matcher._stationary(1, np.array(totals))
            assert stationary.tolist() == [bool(np.abs(p - probs[0]).max() <= tol)]
            slack_needed += stationary[0] and abs(totals[1] - totals[0]) > tol * p.size
        assert slack_needed > 0

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(g=soups(), max_gen=st.integers(1, 60), tol=st.sampled_from([1e-6, 1e-3, 0.3]),
           batch_cells=st.integers(1, 600))
    def test_random_soups(self, g, max_gen, tol, batch_cells):
        # small batches split both the map compares and the window compares
        with mock.patch.object(analysis, "_BATCH_CELLS", batch_cells):
            self.assert_same(g, max_gen=max_gen, tol=tol)


class TestSweepPhase:
    def test_zero_and_quarter_turn_stable(self):
        doc = load_pattern("block.sqp")
        result = sweep_phase(doc, (3, 3), [0.0, math.pi / 2])
        assert [r.verdict for r in result.reports] == ["still_life", "still_life"]

    def test_pi_dies_at_two(self):
        doc = load_pattern("block.sqp")
        result = sweep_phase(doc, (3, 3), [math.pi])
        assert result.reports[0].verdict == "dead"
        assert result.reports[0].generation == 2

    def test_transition_sits_at_survival_threshold(self):
        # the block family is stable exactly while the in-phase cells keep a
        # neighbor-sum magnitude of at least 2: threshold arccos(-1/4)
        doc = load_pattern("block.sqp")
        phases = np.linspace(0.0, math.pi, 128).tolist()
        result = sweep_phase(doc, (3, 3), phases)
        assert result.critical_angle_estimate is not None
        step = math.pi / 127
        assert abs(result.critical_angle_estimate - math.acos(-0.25)) <= step

    def test_single_isolated_cell_always_dies_first_step(self):
        g = Grid.dead(5, 5).with_cell(2, 2, ALIVE)
        doc = PatternDocument(grid=g)
        result = sweep_phase(doc, (2, 2), np.linspace(0, 3.0, 7).tolist())
        assert all(r.verdict == "dead" and r.generation == 1 for r in result.reports)
        assert result.critical_angle_estimate is None

    def test_degenerate_single_point(self):
        doc = load_pattern("block.sqp")
        result = sweep_phase(doc, (3, 3), [0.3])
        assert len(result.reports) == 1

    def test_zero_phase_matches_plain_classification(self):
        for name, cell in (("block.sqp", (3, 3)), ("blinker.sqp", (2, 2))):
            doc = load_pattern(name)
            direct = classify(doc.grid)
            swept = sweep_phase(doc, cell, [0.0]).reports[0]
            assert swept.verdict == direct.verdict
            assert swept.period == direct.period

    def test_rejects_dead_target(self):
        doc = load_pattern("block.sqp")
        with pytest.raises(ValueError, match="dead"):
            sweep_phase(doc, (0, 0), [0.0])

    def test_rejects_out_of_bounds(self):
        doc = load_pattern("block.sqp")
        with pytest.raises(IndexError):
            sweep_phase(doc, (9, 0), [0.0])

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_rejects_non_finite_tol(self, tol):
        doc = load_pattern("block.sqp")
        with pytest.raises(ValueError, match="tol"):
            sweep_phase(doc, (3, 3), [0.0, 1.0], tol=tol)

    def test_rejects_non_increasing_phases(self):
        doc = load_pattern("block.sqp")
        with pytest.raises(ValueError, match="increasing"):
            sweep_phase(doc, (3, 3), [0.5, 0.5])

    @pytest.mark.parametrize("phases", [
        [math.nan], [0.0, math.nan, 1.0], [0.0, math.inf], [-math.inf],
    ])
    def test_rejects_non_finite_phases(self, phases):
        doc = load_pattern("block.sqp")
        with pytest.raises(ValueError, match="phases must be finite"):
            sweep_phase(doc, (3, 3), phases)


class TestGenerationLoop:
    @pytest.mark.parametrize("asked", [1, 2, 4, 6])
    def test_evolve_steps_only_for_grids_pulled(self, asked):
        # three generations are four grids: asking for six yields four
        g0 = load_pattern("blinker.sqp").grid
        with mock.patch.object(analysis, "step_grid", wraps=analysis.step_grid) as step:
            grids = list(itertools.islice(analysis.evolve(g0, DEFAULT_CONFIG, 3), asked))
        assert grids[0] is g0
        assert len(grids) == min(asked, 4)
        assert step.call_count == len(grids) - 1

    @pytest.mark.parametrize("name,max_gen,verdict", [
        ("block_phase_pi.sqp", 200, "dead"),
        ("block.sqp", 200, "still_life"),
        ("blinker.sqp", 200, "oscillator"),
        ("glider.sqp", 3, "unresolved"),
    ])
    def test_classify_steps_once_per_generation_run(self, name, max_gen, verdict):
        with mock.patch.object(analysis, "step_grid", wraps=analysis.step_grid) as step:
            report = classify(load_pattern(name).grid, max_gen=max_gen)
        assert report.verdict == verdict
        assert step.call_count == report.generations_run


class TestBurnRate:
    def test_blocked_wick_burns_at_light_speed(self):
        doc = load_pattern("wick_blocked.sqp")
        assert measure_burn_rate(doc, max_gen=30) == pytest.approx(1.0, abs=0.1)

    def test_pair_wick_burns_at_light_speed(self):
        doc = load_pattern("wick_pair.sqp")
        assert measure_burn_rate(doc, max_gen=30) == pytest.approx(1.0, abs=0.1)

    def test_still_life_rate_zero(self):
        assert measure_burn_rate(load_pattern("block.sqp")) == 0.0
        assert measure_burn_rate(load_pattern("loop.sqp")) == 0.0

    def test_fast_death_is_distinct_error(self):
        doc = load_pattern("block_phase_pi.sqp")
        with pytest.raises(BurnRateUnmeasurable):
            measure_burn_rate(doc)

    @pytest.mark.parametrize("max_gen", [1, 0, -5])
    def test_fewer_than_three_frames_rejected(self, max_gen):
        # max_gen + 1 frames, and a line through fewer than three fits anything
        with pytest.raises(ValueError, match="max_gen must be at least 2"):
            measure_burn_rate(load_pattern("wick_pair.sqp"), max_gen=max_gen)

    def test_steps_only_between_frames(self):
        # max_gen + 1 frames need max_gen steps
        with mock.patch.object(analysis, "step_grid", wraps=analysis.step_grid) as step:
            measure_burn_rate(load_pattern("block.sqp"), max_gen=5)
        assert step.call_count == 5
