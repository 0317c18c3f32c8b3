from __future__ import annotations

import itertools
import math
import tracemalloc
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
    classify,
    conway_step,
    lift,
    measure_burn_rate,
    step_grid,
    sweep_phase,
)
from phasorlife.oracle import BoolGrid
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


def window(p, dx, dy):
    """p moved by (dx, dy) on a torus."""
    return np.roll(p, (dy, dx), axis=(0, 1))


def first_confirmed(probs, tol):
    """The smallest period, and offset, at which the last map matches an
    earlier one and the map before it confirms: pair at a time, no totals gate."""
    def match(i, j):
        if np.abs(probs[i] - probs[j]).max() <= tol:
            return (0, 0)
        return reference._find_translation(probs[i], probs[j], i - j, tol)

    t = len(probs) - 1
    for period in range(1, t):
        offset = match(t, t - period)
        if offset is not None and match(t - 1, t - 1 - period) == offset:
            return period, offset
    return None


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
    # translations are searched on a torus only: on a fixed boundary the
    # glider runs into the wall and settles as a block
    ("glider_fixed", 20, 20, [(2, 1), (3, 2), (1, 3), (2, 3), (3, 3)],
     Boundary.FIXED_DEAD, "still_life", None),
]


class TestClassify:
    @pytest.mark.parametrize("name,w,h,live,boundary,verdict,period", CANONICAL,
                             ids=[c[0] for c in CANONICAL])
    def test_canonical_patterns(self, name, w, h, live, boundary, verdict, period):
        # only the fixed glider reaches the border
        walled = name == "glider_fixed"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore" if walled else "error", RuntimeWarning)
            report = classify(lifted(w, h, live, boundary))
        assert report.verdict == verdict
        assert report.border_contact is walled
        if period is not None and verdict == "oscillator":
            assert report.period == period
        if verdict == "translating":
            assert report.period == period
            assert abs(report.dx) == 1 and abs(report.dy) == 1

    @pytest.mark.parametrize("name,w,h,live,boundary,verdict,period", CANONICAL,
                             ids=[c[0] for c in CANONICAL])
    def test_agrees_with_oracle_trajectory(self, name, w, h, live, boundary, verdict, period):
        # recurrence computed purely from the boolean oracle trajectory, with
        # translations on a torus only
        g = BoolGrid.from_coords(w, h, live, boundary)
        seen = [g]
        found = None
        for _ in range(80):
            g = conway_step(g)
            for gap in range(1, len(seen) + 1):
                prev = seen[len(seen) - gap]
                if g == prev:
                    found = gap
                    break
                if boundary is Boundary.TORUS and any(
                    np.array_equal(g.alive, np.roll(prev.alive, (dy, dx), axis=(0, 1)))
                    for dx in (-1, 0, 1) for dy in (-1, 0, 1)
                ):
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

    def test_touches_border_matches_four_edges(self):
        # one comparison over the concatenated edges gives the booleans of
        # four edge tests, also where edges overlap (one row, one column, one
        # cell) and where a NaN sits on an edge (no contact)
        eps = analysis.BORDER_EPS

        def four_edges(p):
            return bool((p[0, :] > eps).any() or (p[-1, :] > eps).any()
                        or (p[:, 0] > eps).any() or (p[:, -1] > eps).any())

        rng = np.random.default_rng(3)
        shapes = [(1, 1), (1, 7), (6, 1), (2, 2)] + [tuple(rng.integers(1, 12, 2)) for _ in range(40)]
        seen = set()
        for h, w in shapes:
            for _ in range(10):
                # mostly dead cells, some at or just above BORDER_EPS, some NaN
                p = rng.choice([0.0, eps, 2 * eps, 0.5, math.nan], size=(h, w),
                               p=[0.75, 0.08, 0.05, 0.04, 0.08])
                touches = analysis._touches_border(p)
                assert touches is four_edges(p)
                seen.add(touches)
        assert seen == {False, True}

    @pytest.mark.parametrize("name,value", [
        ("tol", 0.0), ("tol", math.nan), ("tol", math.inf), ("max_gen", 0),
    ])
    def test_rejects_bad_limits(self, name, value):
        with pytest.raises(ValueError, match=name):
            classify(load_pattern("blinker.sqp").grid, **{name: value})

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
    """The gated matcher returns the same report as the ungated reference."""

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

    @pytest.mark.parametrize("index,max_gen", [(index, 200) for index in range(9)])
    def test_r_pentomino_sweep_points(self, index, max_gen):
        doc = load_pattern("r_pentomino.sqp")
        base = doc.grid.cell(20, 21)
        cell = CellState(abs(base.a) * np.exp(1j * RPENT_PHASES[index]), base.b)
        self.assert_same(doc.grid.with_cell(20, 21, cell), max_gen=max_gen)

    def test_r_pentomino_sweep_point_on_torus(self):
        # at sweep point 3 the totals stay within tol * size while the map
        # changes, so the totals gate admits the most translation searches;
        # 40 generations: the reference takes ~10 times as long at 60
        grid = load_pattern("r_pentomino.sqp").grid.with_boundary(Boundary.TORUS)
        base = grid.cell(20, 21)
        cell = CellState(abs(base.a) * np.exp(1j * RPENT_PHASES[3]), base.b)
        self.assert_same(grid.with_cell(20, 21, cell), max_gen=40)

    @pytest.mark.parametrize("tol", [1e-6, 1e-3])
    @pytest.mark.parametrize("delta", [-1e-4, 1e-6, 1e-4, 1e-3])
    def test_block_near_transition(self, delta, tol):
        # + 1e-4 is the slowly decaying block reported as a still life (ROADMAP
        # item 1); equality pins that verdict until it is fixed on purpose
        doc = load_pattern("block.sqp")
        cell = CellState(np.exp(1j * (math.acos(-0.25) + delta)), 0j)
        self.assert_same(doc.grid.with_cell(3, 3, cell), tol=tol)

    def test_fixed_boundary_glider(self):
        # no translation is searched on a fixed boundary: the glider runs
        # into the wall and settles as a block
        g = lifted(20, 20, GLIDER)
        with pytest.warns(RuntimeWarning, match="^live amplitude reached the fixed boundary; "):
            report = classify(g)
        assert (report.verdict, report.generations_run, report.border_contact) == (
            "still_life", 69, True)
        self.assert_same(g)

    @pytest.mark.parametrize("case", ["glider", "r_pentomino", "r_pentomino_swept"])
    def test_fixed_boundary_searches_no_translation(self, case):
        # a fixed boundary matches in place only: a mover runs on to the wall.
        # The fixed glider, and fate_rpent's r-pentomino and its sweep point 3
        if case == "glider":
            g = lifted(20, 20, GLIDER)
        else:
            g = load_pattern("r_pentomino.sqp").grid
            assert g.boundary is Boundary.FIXED_DEAD
            if case == "r_pentomino_swept":
                base = g.cell(20, 21)
                swept = CellState(abs(base.a) * np.exp(1j * RPENT_PHASES[3]), base.b)
                g = g.with_cell(20, 21, swept)
        search = mock.Mock(side_effect=AssertionError("a translation was searched"))
        with warnings.catch_warnings(), \
                mock.patch.object(analysis._RecurrenceMatcher, "_translation", search):
            warnings.simplefilter("ignore", RuntimeWarning)
            classify(g)

    def test_torus_glider(self):
        g = lifted(20, 20, GLIDER, Boundary.TORUS)
        report = classify(g)
        assert (report.verdict, report.period, report.dx, report.dy) == ("translating", 4, 1, 1)
        assert report == reference_classify(g)

    @pytest.mark.parametrize("side,cell,amp,phase,tol", [
        (8, (2, 1), 0.999, 0.0, 1e-6),
        (8, (2, 1), 0.95, 0.3, 1e-3),
        (12, (2, 3), 0.99, 0.0, 1e-6),
        (12, (1, 3), 0.95, 0.0, 1e-4),
    ])
    def test_settling_glider(self, side, cell, amp, phase, tol):
        # one weakened cell on a torus: the glider settles within tol only
        # after a few generations, so a translation found at t - 1 confirms at t
        g = lifted(side, side, GLIDER, Boundary.TORUS)
        g = g.with_cell(*cell, CellState(amp * np.exp(1j * phase), math.sqrt(1 - amp * amp)))
        self.assert_same(g, tol=tol)

    @pytest.mark.parametrize("gap", [1, 2, 3])
    def test_translation_search_order(self, gap):
        # maps that several offsets carry onto each other: the search must
        # return the same first offset as the reference order
        faint = np.zeros((10, 10))
        faint[1:8, 1:8] = np.random.default_rng(gap).random((7, 7)) * 1e-3
        ys, xs = np.indices((6, 6))
        diagonal = ((xs + 2 * ys) % 6) / 10.0  # symmetric under dx + 2 dy = 0 mod 6
        for p_then, tol in [(faint, 2e-3), (diagonal, 1e-9)]:
            p_now = np.roll(p_then, (1, 1), axis=(0, 1))
            probs = [p_then] + [p_now] * gap
            matcher = matcher_over(probs, Boundary.TORUS, tol)
            expected = reference._find_translation(p_now, p_then, gap, tol)
            assert expected is not None
            assert matcher._translation(gap, 0) == expected

    def test_translation_without_candidates(self):
        # a 1x1 map has no nonzero offset to try, with a probe cell or without
        for p in (np.ones((1, 1)), np.zeros((1, 1))):
            found, tested, passed = self.assert_same_translation([p, p], 1, 0, 1e-6)
            assert found is None
            assert tested == passed == []

    @staticmethod
    def assert_same_translation(probs, i, j, tol):
        """``_translation`` of (i, j) equals the reference, and the candidates
        whose window agrees with p_i on its probe row reach the full compare,
        in order, up to the first that matches. Returns the offset, the
        candidates and the ones that passed the probe."""
        p_now, p_then = probs[i], probs[j]
        tested, compared = [], []
        offsets, within = analysis._offsets, analysis._within

        def block(h, w, gap):
            dxs, dys = offsets(h, w, gap)
            tested.extend(zip(dxs.tolist(), dys.tolist()))
            return dxs, dys

        def counting(p, m, tol):
            compared.append(m)
            return within(p, m, tol)

        matcher = matcher_over(probs, Boundary.TORUS, tol)
        with mock.patch.multiple(analysis, _offsets=block, _within=counting):
            found = matcher._translation(i, j)
        assert found == reference._find_translation(p_now, p_then, i - j, tol)
        # the probe row holds the first maximum (a NaN, if any); its probes
        # are the cells not within tol of 0
        y0 = int(np.argmax(p_now)) // p_now.shape[1]
        row = p_now[y0].tolist()
        probes = [x for x, v in enumerate(row) if not abs(v) <= tol]
        passed = [
            (dx, dy) for dx, dy in tested
            if all(abs(row[x] - window(p_then, dx, dy)[y0].tolist()[x]) <= tol
                   for x in probes)
        ]
        # the search stops at the first window that matches
        stop = passed.index(found) + 1 if found is not None else len(passed)
        assert len(compared) == stop
        for m, (dx, dy) in zip(compared, passed):
            assert np.array_equal(m, window(p_then, dx, dy), equal_nan=True)
        return found, tested, passed

    @pytest.mark.parametrize("w,h,gap,first,candidates", [
        pytest.param(40, 40, 39, (-39, -39), 40 * 40 - 1, id="39"),
        pytest.param(40, 40, 40, (-39, -39), 40 * 40 - 1, id="40"),
        pytest.param(40, 40, 47, (-39, -39), 40 * 40 - 1, id="47"),
        # the gap reaches the height only: 12 values of dy, 2 * 15 + 1 of dx
        pytest.param(40, 12, 15, (1, -11), 12 * 31 - 1, id="40x12-15"),
    ])
    def test_torus_search_skips_repeated_windows(self, w, h, gap, first, candidates):
        # once the gap reaches a side, dx and dx - w (dy and dy - h) select
        # the same window; only the first of each is a candidate, so a glider
        # moved by (1, 1) still reports the reference's first offset
        p_then = lifted(w, h, GLIDER, Boundary.TORUS).alive_probability()
        p_now = np.roll(p_then, (1, 1), axis=(0, 1))
        mirrored = p_now[::-1]  # no offset carries p_then onto it
        for p, expected in [(p_now, first), (mirrored, None)]:
            found, tested, passed = self.assert_same_translation(
                [p_then] + [p] * gap, gap, 0, 1e-6)
            assert found == expected
            # of 79 * 79 - 1 offsets on the square, only these windows differ
            assert len(tested) == candidates
            # each probe row holds a live glider cell, which at most one
            # candidate per live cell of p_then carries onto it
            assert 0 < len(passed) <= 5

    def test_probe_row_matches_window_fails_elsewhere(self):
        p_then = np.zeros((12, 12))
        p_then[3:9, 3:9] = np.random.default_rng(1).random((6, 6)) * 0.5
        p_then[4, 5] = 1.0
        p_now = window(p_then, 1, 1)
        p_now[8, 6] += 0.25  # below the probe row, which holds the peak in row 5
        found, _, passed = self.assert_same_translation([p_then, p_now, p_now], 2, 0, 1e-6)
        assert found is None
        assert passed == [(1, 1)]

    @pytest.mark.parametrize("dx,dy", [(1, 0), (-1, 1), (2, -2)])
    def test_probe_true_translation_wraps_on_torus(self, dx, dy):
        # every cell is live, so every probe reads a wrapped cell for some dx
        p_then = np.random.default_rng(2).random((9, 11)) * 0.5 + 0.25
        p_now = window(p_then, dx, dy)
        found, _, passed = self.assert_same_translation([p_then, p_now, p_now], 2, 0, 1e-6)
        assert found == (dx, dy)
        assert passed == [(dx, dy)]

    @pytest.mark.parametrize("peak", [0.3, 0.9])
    def test_loose_tol_without_probes(self, peak):
        # with every cell of p_now within tol of 0 there is nothing to probe,
        # so every candidate reaches the full compare; a peak of 0.9 in p_then
        # fails every window
        rng = np.random.default_rng(4)
        p_now = rng.random((8, 8)) * 0.3
        p_then = rng.random((8, 8)) * 0.3
        p_then[4, 4] = peak
        _, tested, passed = self.assert_same_translation([p_then, p_now, p_now], 2, 0, 0.3)
        assert passed == tested

    @pytest.mark.parametrize("where", ["now", "then"])
    def test_probe_rejects_nan(self, where):
        # no compare matches a NaN, so no window with one on the probe row
        # reaches the full compare
        p_then = np.zeros((10, 10))
        p_then[2:7, 2:7] = np.random.default_rng(5).random((5, 5)) * 0.5
        p_then[3, 4] = 1.0
        p_now = window(p_then, 1, 1)
        if where == "now":
            p_now[4, 3] = math.nan  # left of the peak in the probe row
        else:
            p_then[3, 2] = math.nan  # probed through the true offset
        found, _, passed = self.assert_same_translation([p_then, p_now, p_now], 2, 0, 1e-6)
        assert found is None
        assert (1, 1) not in passed

    def test_probe_rejects_almost_every_candidate(self):
        # a probe that passed every offset would keep every report and lose
        # its gain: on the r-pentomino read as a torus, as analyzed and at the
        # sweep point that searches most, over 50 generations (173,170
        # candidates, 13 compared), under 1% of the candidates that the
        # translation searches test may reach the full compare
        M = analysis._RecurrenceMatcher
        offsets, translation, within = analysis._offsets, M._translation, analysis._within
        tested, compared, searching = [], [], []

        def block(h, w, gap):
            dxs, dys = offsets(h, w, gap)
            tested.append(dxs.size)
            return dxs, dys

        def search(matcher, i, j):
            searching.append((i, j))
            try:
                return translation(matcher, i, j)
            finally:
                searching.pop()

        def counting(p, m, tol):
            if searching:  # not the stationary compare
                compared.append(m)
            return within(p, m, tol)

        grid = load_pattern("r_pentomino.sqp").grid.with_boundary(Boundary.TORUS)
        base = grid.cell(20, 21)
        swept = CellState(abs(base.a) * np.exp(1j * RPENT_PHASES[3]), base.b)
        with mock.patch.object(M, "_translation", search), \
                mock.patch.multiple(analysis, _offsets=block, _within=counting):
            for g in (grid, grid.with_cell(20, 21, swept)):
                assert classify(g, max_gen=50).generations_run == 50
        assert sum(tested) > 40_000
        assert len(compared) < 0.01 * sum(tested)

    def test_row_gate_rejects_almost_every_candidate(self):
        # a row gate that passed what the totals gate admits would lose its
        # gain: at fate_rpent's sweep point 3, whose total stays within
        # tol * size while its map changes, the totals gate admits 12,242
        # earlier maps over 200 generations and 403 are compared in full
        M = analysis._RecurrenceMatcher
        stationary, within = M._stationary, analysis._within
        admitted, compared = [], []

        def counting_stationary(matcher, t):
            hits, gate = stationary(matcher, t)
            admitted.append(int(gate.sum()))
            return hits, gate

        def counting(p, m, tol):
            compared.append(m)
            return within(p, m, tol)

        grid = load_pattern("r_pentomino.sqp").grid
        base = grid.cell(20, 21)
        swept = CellState(abs(base.a) * np.exp(1j * RPENT_PHASES[3]), base.b)
        with warnings.catch_warnings(), \
                mock.patch.object(M, "_stationary", counting_stationary), \
                mock.patch.object(analysis, "_within", counting):
            warnings.simplefilter("ignore", RuntimeWarning)
            assert classify(grid.with_cell(20, 21, swept)).generations_run == 200
        assert sum(admitted) > 10_000
        assert len(compared) < 0.05 * sum(admitted)

    def test_small_torus_glider(self):
        # on a 5x5 torus the period-4 search already reaches the side, and
        # the reported offset is the first of the pair, (-4, -4), not (1, 1)
        g = lifted(5, 5, GLIDER, Boundary.TORUS)
        report = classify(g)
        assert (report.verdict, report.period, report.dx, report.dy) == ("translating", 4, -4, -4)
        assert report == reference_classify(g)

    def test_totals_gate_admits_every_match(self):
        # maps exactly tol apart in every cell, in place or moved on a torus:
        # their computed totals often differ by more than tol * size, so only
        # the rounding slack admits them
        rng = np.random.default_rng(0)
        slack_needed = {"in place": 0, "moved": 0}
        for _ in range(200):
            h, w = rng.integers(1, 30, 2)
            tol = float(rng.choice([1e-6, 1e-3, 0.3]))
            p, q = (rng.random((h, w)) * rng.choice([1.0, 1e-3]) for _ in "pq")
            probs = [p + tol, p]
            totals = [float(m.sum()) for m in probs]
            stationary, _ = matcher_over(probs, Boundary.FIXED_DEAD, tol)._stationary(1)
            assert stationary.tolist() == [bool(np.abs(p - probs[0]).max() <= tol)]
            slack_needed["in place"] += stationary[0] and abs(totals[1] - totals[0]) > tol * p.size
            # two unrelated maps, each moved by (1, 1): a period-2 translation
            probs = [p, q, window(p, 1, 1) + tol, window(q, 1, 1) + tol]
            totals = [float(m.sum()) for m in probs]
            matcher = analysis._RecurrenceMatcher(Boundary.TORUS, tol)
            found = [matcher.advance(m) for m in probs][-1]
            assert found == first_confirmed(probs, tol)
            slack_needed["moved"] += found is not None and found[1] != (0, 0) and max(
                abs(totals[2] - totals[0]), abs(totals[3] - totals[1])) > tol * p.size
        assert all(slack_needed.values())

    def test_row_gate_admits_every_match(self):
        # maps exactly tol apart in every cell: the row sums of a match often
        # differ by more than tol * width, so only the rounding slack admits them
        rng = np.random.default_rng(1)
        slack_needed = 0
        for _ in range(200):
            h, w = rng.integers(1, 30, 2)
            tol = float(rng.choice([1e-6, 1e-3, 0.3]))
            p = rng.random((h, w)) * rng.choice([1.0, 1e-3])
            probs = [p + tol, p]
            stationary, _ = matcher_over(probs, Boundary.FIXED_DEAD, tol)._stationary(1)
            assert stationary.tolist() == [bool(np.abs(p - probs[0]).max() <= tol)]
            rows = [m.sum(axis=1) for m in probs]
            slack_needed += stationary[0] and bool((np.abs(rows[1] - rows[0]) > tol * w).any())
        assert slack_needed
        # a row holding a NaN passes the gate and fails the full compare
        p = rng.random((5, 6))
        q = p.copy()
        q[2, 3] = math.nan
        assert analysis._gate(q.sum(axis=1), p.sum(axis=1)[None], 6, 1e-6).all()
        with mock.patch.object(analysis, "_within", wraps=analysis._within) as within:
            stationary, gate = matcher_over([p, q], Boundary.FIXED_DEAD, 1e-6)._stationary(1)
        assert (stationary.tolist(), gate.tolist(), within.call_count) == ([False], [True], 1)

    def test_within_is_inclusive_and_fails_nan(self):
        # maps exactly tol apart match; a NaN in either map matches nothing
        p = np.array([[0.25, 0.5], [0.75, 1.0]])
        tol = 0.125  # every difference below is exact in binary
        assert analysis._within(p, p + tol, tol)
        assert analysis._within(p + tol, p, tol)
        assert not analysis._within(p, p + 2 * tol, tol)
        q = p.copy()
        q[1, 0] = math.nan
        assert not analysis._within(p, q, tol)
        assert not analysis._within(q, p, tol)
        assert not analysis._within(q, q, tol)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(g=soups(), max_gen=st.integers(1, 60), tol=st.sampled_from([1e-6, 1e-3, 0.3]))
    def test_random_soups(self, g, max_gen, tol):
        self.assert_same(g, max_gen=max_gen, tol=tol)


class TestSweepPhase:
    def test_zero_and_quarter_turn_stable(self):
        doc = load_pattern("block.sqp")
        result = sweep_phase(doc.grid, (3, 3), [0.0, math.pi / 2])
        assert [r.verdict for r in result.reports] == ["still_life", "still_life"]

    def test_pi_dies_at_two(self):
        doc = load_pattern("block.sqp")
        result = sweep_phase(doc.grid, (3, 3), [math.pi])
        assert result.reports[0].verdict == "dead"
        assert result.reports[0].generation == 2

    def test_transition_sits_at_survival_threshold(self):
        # the block family is stable exactly while the in-phase cells keep a
        # neighbor-sum magnitude of at least 2: threshold arccos(-1/4)
        doc = load_pattern("block.sqp")
        phases = np.linspace(0.0, math.pi, 128).tolist()
        result = sweep_phase(doc.grid, (3, 3), phases)
        assert result.critical_angle_estimate is not None
        step = math.pi / 127
        assert abs(result.critical_angle_estimate - math.acos(-0.25)) <= step

    def test_single_isolated_cell_always_dies_first_step(self):
        g = Grid.dead(5, 5).with_cell(2, 2, ALIVE)
        result = sweep_phase(g, (2, 2), np.linspace(0, 3.0, 7).tolist())
        assert all(r.verdict == "dead" and r.generation == 1 for r in result.reports)
        assert result.critical_angle_estimate is None

    def test_degenerate_single_point(self):
        doc = load_pattern("block.sqp")
        result = sweep_phase(doc.grid, (3, 3), [0.3])
        assert len(result.reports) == 1

    def test_zero_phase_matches_plain_classification(self):
        for name, cell in (("block.sqp", (3, 3)), ("blinker.sqp", (2, 2))):
            doc = load_pattern(name)
            direct = classify(doc.grid)
            swept = sweep_phase(doc.grid, cell, [0.0]).reports[0]
            assert swept.verdict == direct.verdict
            assert swept.period == direct.period

    def test_rejects_dead_target(self):
        doc = load_pattern("block.sqp")
        with pytest.raises(ValueError, match="dead"):
            sweep_phase(doc.grid, (0, 0), [0.0])

    def test_rejects_out_of_bounds(self):
        doc = load_pattern("block.sqp")
        with pytest.raises(IndexError):
            sweep_phase(doc.grid, (9, 0), [0.0])

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_rejects_non_finite_tol(self, tol):
        doc = load_pattern("block.sqp")
        with pytest.raises(ValueError, match="tol"):
            sweep_phase(doc.grid, (3, 3), [0.0, 1.0], tol=tol)

    @pytest.mark.parametrize("phases,match", [([0.5, 0.5], "increasing"), ([], "non-empty")],
                             ids=["repeated", "empty"])
    def test_rejects_empty_or_non_increasing_phases(self, phases, match):
        doc = load_pattern("block.sqp")
        with pytest.raises(ValueError, match=match):
            sweep_phase(doc.grid, (3, 3), phases)

    @pytest.mark.parametrize("phases", [
        [math.nan], [0.0, math.nan, 1.0], [0.0, math.inf], [-math.inf],
    ])
    def test_rejects_non_finite_phases(self, phases):
        doc = load_pattern("block.sqp")
        with pytest.raises(ValueError, match="phases must be finite"):
            sweep_phase(doc.grid, (3, 3), phases)


class TestGenerationLoop:
    @pytest.mark.parametrize("asked", [1, 2, 4, 6])
    def test_evolve_steps_only_for_grids_pulled(self, asked):
        # three generations are four grids: asking for six yields four
        g0 = load_pattern("blinker.sqp").grid
        with mock.patch.object(analysis, "step_grid", wraps=analysis.step_grid) as step:
            grids = list(itertools.islice(analysis.evolve(g0, 3), asked))
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

    def test_history_grows_with_the_generations_run(self):
        # room for 10**7 + 1 maps' totals and row sums would take 534 MiB
        g = load_pattern("block.sqp").grid
        tracemalloc.start()
        try:
            report = classify(g, max_gen=10**7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (report.verdict, report.generations_run) == ("still_life", 2)
        assert peak < 1 << 20

    @pytest.mark.parametrize("call", [
        lambda g: classify(g, max_gen=2.5),
        lambda g: measure_burn_rate(g, max_gen=3.5),
    ], ids=["classify", "measure_burn_rate"])
    def test_non_integral_max_gen_rejected_before_any_step(self, call):
        # boundary_line read as fixed has live amplitude on the border, which
        # classify reports as soon as it looks at generation 0
        g = load_pattern("boundary_line.sqp").grid.with_boundary(Boundary.FIXED_DEAD)
        with warnings.catch_warnings(), \
                mock.patch.object(analysis, "evolve", wraps=analysis.evolve) as evolve, \
                mock.patch.object(analysis, "step_grid", wraps=analysis.step_grid) as step:
            warnings.simplefilter("error")
            with pytest.raises(TypeError):
                call(g)
        assert evolve.call_count == step.call_count == 0


class TestBurnRate:
    def test_blocked_wick_burns_at_light_speed(self):
        doc = load_pattern("wick_blocked.sqp")
        assert measure_burn_rate(doc.grid, max_gen=30) == pytest.approx(1.0, abs=0.1)

    def test_pair_wick_burns_at_light_speed(self):
        doc = load_pattern("wick_pair.sqp")
        assert measure_burn_rate(doc.grid, max_gen=30) == pytest.approx(1.0, abs=0.1)

    def test_still_life_rate_zero(self):
        assert measure_burn_rate(load_pattern("block.sqp").grid) == 0.0
        assert measure_burn_rate(load_pattern("loop.sqp").grid) == 0.0

    def test_fast_death_is_distinct_error(self):
        doc = load_pattern("block_phase_pi.sqp")
        with pytest.raises(BurnRateUnmeasurable):
            measure_burn_rate(doc.grid)

    def test_death_after_three_frames_fits_the_frames_seen(self):
        # extents 2, 2, 1, then dead at generation 3: the fit stops at the death
        doc = load_pattern("block_phase_3pi4.sqp")
        for boundary in Boundary:
            assert measure_burn_rate(doc.grid.with_boundary(boundary)) == pytest.approx(0.5)

    def test_cell_at_the_dead_threshold_counts_as_live(self):
        # classify calls a map dead only below the threshold, so generation 0 is a frame
        a = np.zeros((3, 3), complex)
        a[1, 1] = 0.5
        g = Grid(a, np.sqrt(1.0 - np.abs(a) ** 2).astype(complex))
        assert classify(g, dead_threshold=0.25).generation == 1
        with pytest.raises(BurnRateUnmeasurable, match="died after 1 frames"):
            measure_burn_rate(g, dead_threshold=0.25)

    @pytest.mark.parametrize("dead_threshold", [0.0, 0.5, 0.7, math.nan])
    @pytest.mark.parametrize("call", [
        lambda g, t: classify(g, dead_threshold=t),
        lambda g, t: sweep_phase(g, (3, 3), [0.0], dead_threshold=t),
        lambda g, t: measure_burn_rate(g, dead_threshold=t),
    ], ids=["classify", "sweep_phase", "measure_burn_rate"])
    def test_dead_threshold_outside_open_interval_rejected(self, call, dead_threshold):
        with pytest.raises(ValueError, match=r"dead_threshold must lie in \(0, 0.5\)"):
            call(load_pattern("block.sqp").grid, dead_threshold)

    @pytest.mark.parametrize("max_gen", [1, 0, -5])
    def test_fewer_than_three_frames_rejected(self, max_gen):
        # max_gen + 1 frames, and a line through fewer than three fits anything
        with pytest.raises(ValueError, match="max_gen must be at least 2"):
            measure_burn_rate(load_pattern("wick_pair.sqp").grid, max_gen=max_gen)

    def test_steps_only_between_frames(self):
        # max_gen + 1 frames need max_gen steps
        with mock.patch.object(analysis, "step_grid", wraps=analysis.step_grid) as step:
            measure_burn_rate(load_pattern("block.sqp").grid, max_gen=5)
        assert step.call_count == 5
