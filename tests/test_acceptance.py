"""End-to-end acceptance suite.

One test per acceptance criterion, each printing a PASS/FAIL line (run with
``pytest tests/test_acceptance.py -v -s`` to see them live). Every tolerance
is pinned here.

Criteria 4 and 5 check the interference effect on phase-shifted blocks. Their
expected values are derived in closed form from the operator table (README),
the same table that criteria 1 and 2 and the zero-phase matrix reduction
verify, with K = sqrt(2) + 1:

* criterion 4, block with cell (3, 3) at phase theta: the swept cell sees
  A = 3, pure birth, which leaves a fully alive cell unchanged. Each in-phase
  cell sees A = |2 + e^(i theta)| = sqrt(5 + 4 cos theta); it stays in the
  survival/birth blend, and so keeps its a, exactly while A >= 2, i.e.
  cos theta >= -1/4. No outside cell ever reaches A > 2, so nothing is born.
  The stable-to-dead transition is therefore theta* = arccos(-1/4)
  ~= 1.823477 rad. (2*pi/3 is only where the outside edge cells'
  |1 + e^(i theta)| crosses 1, which leaves them dead on both sides.)
* criterion 5, block with cell (3, 3) at z = e^(i 3pi/4): at generation 1
  the shifted cell is unchanged and each in-phase cell sees
  A1 = |2 + z| ~= 1.4736258, becoming
  a1 = (A1 - 1) / hypot(A1 - 1, K (2 - A1)) ~= 0.3492372. At generation 2
  the in-phase cells see |z + 2 a1| ~= 0.70716 <= 1, pure death, so a = 0
  exactly, while the shifted cell sees 3 a1 ~= 1.0477116 and keeps
  |a|^2 ~= 4.3050003e-4, above every default dead threshold. At generation 3
  that survivor's neighbor sum is exactly 0 and the grid is all zero: dead at
  generation 3, counting generation 0 as the initial pattern as criterion 3
  does.
"""

from __future__ import annotations

import cmath
import itertools
import math
from unittest import mock

import numpy as np
import pytest

from phasorlife import rules
from phasorlife import (
    Boundary,
    CellState,
    Grid,
    NeighborSum,
    classify,
    conway_step,
    dual_step_grid,
    lift,
    measure_alive_probability,
    measure_burn_rate,
    project,
    step_cell,
    step_grid,
    swap_components,
    sweep_phase,
)
from phasorlife.oracle import BoolGrid
from conftest import load_pattern, probability_drift, random_grid, step_on_cpus

from test_properties import _classical_mixture_step, polar_sum

SQ2 = math.sqrt(2.0)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")


class TestCriterion1ClassicalLimit:
    def test_exhaustive_3x3_neighborhoods(self):
        mismatches = 0
        for bits in itertools.product((False, True), repeat=9):
            g = BoolGrid(np.array(bits, dtype=bool).reshape(3, 3))
            if project(step_grid(lift(g))) != conway_step(g):
                mismatches += 1
        report(1, mismatches == 0, f"512 exhaustive 3x3 neighborhoods, {mismatches} mismatches")
        assert mismatches == 0

    def test_random_grids_single_step(self):
        rng = np.random.default_rng(2024)
        mismatches = 0
        for i in range(10_000):
            density = rng.uniform(0.05, 0.95)
            arr = rng.random((12, 12)) < density
            boundary = Boundary.TORUS if i % 2 else Boundary.FIXED_DEAD
            g = BoolGrid(arr, boundary)
            if project(step_grid(lift(g))) != conway_step(g):
                mismatches += 1
        report(1, mismatches == 0, f"10000 random 12x12 single steps, {mismatches} mismatches")
        assert mismatches == 0

    @pytest.mark.parametrize(
        "name,generations", [("glider.sqp", 100), ("r_pentomino.sqp", 50)]
    )
    def test_trajectories(self, name, generations):
        doc = load_pattern(name)
        semi = doc.grid
        boolean = project(semi)
        for gen in range(1, generations + 1):
            semi = step_grid(semi)
            boolean = conway_step(boolean)
            assert project(semi) == boolean, f"{name} diverged at generation {gen}"
        report(1, True, f"{name} exact for {generations} generations")


class TestCriterion2EqualSuperposition:
    def test_worked_mixture(self):
        ns = NeighborSum.from_alpha(3 + 1 / SQ2)
        probs = []
        for cell in (CellState(1 + 0j, 0j), CellState(0j, 1 + 0j)):
            probs.append(measure_alive_probability(step_cell(cell, ns)))
        ok = all(abs(p - 0.5) <= 1e-12 for p in probs)
        report(2, ok, f"alive probabilities {probs} vs 0.5 within 1e-12")
        assert ok


class TestCriterion3PhaseFlippedBlock:
    def test_dies_in_two_with_single_survivor(self):
        doc = load_pattern("block_phase_pi.sqp")
        rep = classify(doc.grid)
        gen1 = step_grid(doc.grid)
        live = gen1.alive_probability() > 1e-6
        survivor_ok = live.sum() == 1 and bool(live[3, 3])
        ok = rep.verdict == "dead" and rep.generation == 2 and survivor_ok
        report(
            3,
            ok,
            f"verdict {rep.verdict}({rep.generation}), generation-1 survivors "
            f"{int(live.sum())} at flipped cell: {survivor_ok}",
        )
        assert rep.verdict == "dead"
        assert rep.generation == 2
        assert survivor_ok


class TestCriterion4QuarterTurnStabilityAndCriticalAngle:
    def test_quarter_turn_block_not_dead(self):
        doc = load_pattern("block_phase_quarter.sqp")
        rep = classify(doc.grid, max_gen=200)
        ok = rep.verdict != "dead"
        report(4, ok, f"quarter-turn block verdict over 200 generations: {rep.verdict}")
        assert ok

    def test_sweep_brackets_transition_at_two_thirds_turn(self):
        """The stable-to-dead transition of the block sweep brackets arccos(-1/4).

        The name records the original pin, 2*pi/3, which contradicts the
        operator table; the transition is where the in-phase cells'
        |2 + e^(i theta)| = sqrt(5 + 4 cos theta) drops below 2.
        """
        doc = load_pattern("block.sqp")
        phases = np.linspace(0.0, math.pi, 128).tolist()
        result = sweep_phase(doc.grid, (3, 3), phases, max_gen=200, tol=1e-6)
        target = math.acos(-0.25)
        estimate = result.critical_angle_estimate
        stable = [p for p, r in zip(phases, result.reports) if r.is_stable()]
        dead = [p for p, r in zip(phases, result.reports) if r.verdict == "dead"]
        last_stable = max(stable, default=None)
        first_dead = min(dead, default=None)
        ok = (
            estimate is not None
            and last_stable is not None
            and first_dead is not None
            and last_stable < target < first_dead
        )
        report(
            4,
            ok,
            f"sweep transition estimate {estimate}, bracket "
            f"({last_stable}, {first_dead}) vs derived arccos(-1/4)={target:.6f}",
        )
        assert estimate is not None, "sweep found no single stable-to-dead transition"
        assert last_stable is not None and first_dead is not None
        assert last_stable < target < first_dead, (
            f"sweep bracket ({last_stable:.6f}, {first_dead:.6f}) does not contain "
            f"the derived transition arccos(-1/4)={target:.6f}"
        )


class TestCriterion5ThreeEighthsTurnBlock:
    def test_dies_at_generation_four(self):
        """The three-eighths-turn block dies at generation 3.

        The name records the original pin, generation 4, which contradicts the
        operator table; the closed-form trace is in the module docstring.
        """
        K = SQ2 + 1.0
        z = cmath.exp(3j * math.pi / 4)
        # generation 1: in-phase cells sit in the survival/death blend
        A1 = abs(2 + z)
        w_S1, w_D1 = A1 - 1.0, K * (2.0 - A1)
        a1 = w_S1 / math.hypot(w_S1, w_D1)
        # generation 2: in-phase cells die outright; the shifted cell is blended
        A2 = 3 * a1
        w_S2, w_D2 = A2 - 1.0, K * (2.0 - A2)
        p2 = w_S2**2 / (w_S2**2 + w_D2**2)
        assert 1.0 < A1 <= 2.0 and abs(z + 2 * a1) <= 1.0 and 1.0 < A2 <= 2.0
        assert p2 > 1e-6
        expected_history = (1.0 + 3 * a1**2, p2)  # total alive probability, gens 1-2

        doc = load_pattern("block_phase_3pi4.sqp")
        rep = classify(doc.grid, max_gen=200, tol=1e-6)
        gen2 = step_grid(step_grid(doc.grid))
        gen3 = step_grid(gen2)
        live2 = gen2.alive_probability() > 1e-6
        survivor_ok = live2.sum() == 1 and bool(live2[3, 3])
        history = rep.alive_probability_history[1:3]
        history_ok = len(history) == 2 and all(
            abs(h - e) <= 1e-12 for h, e in zip(history, expected_history)
        )
        max3 = float(gen3.alive_probability().max())
        ok = (
            rep.verdict == "dead"
            and rep.generation == 3
            and history_ok
            and survivor_ok
            and max3 == 0.0
        )
        report(
            5,
            ok,
            f"verdict {rep.verdict}({rep.generation}) vs derived dead(3); generation 1-2 "
            f"history {history} vs closed form {expected_history}; generation-2 survivor at "
            f"(3, 3): {survivor_ok}; generation-3 max alive probability {max3}",
        )
        assert rep.verdict == "dead"
        assert rep.generation == 3, (
            f"death generation {rep.generation} != derived 3 (dead threshold 1e-6)"
        )
        assert history == pytest.approx(expected_history, rel=0, abs=1e-12)
        assert survivor_ok, "generation 2 should keep exactly one live cell, at (3, 3)"
        assert max3 == 0.0


class TestCriterion6WickBurnRates:
    @pytest.mark.parametrize("name", ["wick_blocked.sqp", "wick_pair.sqp"])
    def test_burns_at_light_speed_with_anchored_end(self, name):
        doc = load_pattern(name)
        rate = measure_burn_rate(doc.grid, max_gen=30)
        rate_ok = abs(rate - 1.0) <= 0.1

        # anchored end must not recede while the far end burns
        g = doc.grid
        min_x = []
        extents = []
        for _ in range(25):
            mask = g.alive_probability() > 1e-6
            xs = np.nonzero(mask)[1]
            min_x.append(int(xs.min()))
            extents.append(int(xs.max() - xs.min() + 1))
            g = step_grid(g)
        last_change = max(
            (i for i in range(1, len(extents)) if extents[i] != extents[i - 1]), default=0
        )
        anchor_ok = all(m == min_x[0] for m in min_x[: last_change + 1])
        report(6, rate_ok and anchor_ok,
               f"{name}: burn rate {rate:.4f} (1.0 +- 0.1), anchored end fixed: {anchor_ok}")
        assert rate_ok
        assert anchor_ok


class TestCriterion7LoopStillLife:
    def test_loop_stable_100_generations(self):
        doc = load_pattern("loop.sqp")
        g = doc.grid
        worst = 0.0
        for _ in range(100):
            g = step_grid(g)
            worst = max(worst, probability_drift(doc.grid, g))
        rep = classify(doc.grid)
        ok = worst < 1e-6 and rep.verdict == "still_life"
        report(7, ok, f"loop verdict {rep.verdict}, max drift over 100 generations {worst:.3g}")
        assert rep.verdict == "still_life"
        assert worst < 1e-6


class TestCriterion8BoundaryLine:
    def test_phase_tuned_boundary_stable_and_contained(self):
        doc = load_pattern("boundary_line.sqp")
        g = doc.grid
        inside = np.zeros((g.height, g.width), dtype=bool)
        inside[2:5, :] = True  # the three populated rows
        worst_drift = 0.0
        worst_outside = 0.0
        for _ in range(100):
            g = step_grid(g)
            worst_drift = max(worst_drift, probability_drift(doc.grid, g))
            worst_outside = max(worst_outside, float(g.alive_probability()[~inside].max()))
        ok = worst_drift < 1e-6 and worst_outside <= 1e-6
        report(
            8,
            ok,
            f"max drift {worst_drift:.3g}, max outside alive probability {worst_outside:.3g}",
        )
        assert worst_drift < 1e-6
        assert worst_outside <= 1e-6


class TestCriterion9InvariantSuites:
    def test_normalization_preservation(self):
        rng = np.random.default_rng(91)
        worst = 0.0
        for i in range(1000):
            g = random_grid(rng, 8, 8, Boundary.TORUS if i % 2 else Boundary.FIXED_DEAD)
            g2 = step_grid(g)
            norms = np.abs(g2.a) ** 2 + np.abs(g2.b) ** 2
            worst = max(worst, float(np.max(np.abs(norms - 1.0))))
        ok = worst <= 1e-9
        report(9, ok, f"normalization: worst norm error {worst:.3g} over 1000 grids (1e-9)")
        assert ok

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(92)
        worst = 0.0
        for i in range(1000):
            g = random_grid(rng, 7, 7, Boundary.TORUS if i % 3 else Boundary.FIXED_DEAD)
            rot = cmath.exp(1j * rng.uniform(-math.pi, math.pi))
            p1 = step_grid(g).alive_probability()
            p2 = step_grid(Grid(g.a * rot, g.b * rot, g.boundary)).alive_probability()
            worst = max(worst, float(np.max(np.abs(p1 - p2))))
        ok = worst <= 1e-9
        report(9, ok, f"global phase: worst probability shift {worst:.3g} over 1000 grids (1e-9)")
        assert ok

    def test_continuity_across_region_boundaries(self):
        rng = np.random.default_rng(93)
        worst = 0.0
        eps = 1e-9
        for _ in range(1000):
            r = rng.random()
            c = CellState(
                r * cmath.exp(1j * rng.uniform(-math.pi, math.pi)),
                math.sqrt(1 - r * r) * cmath.exp(1j * rng.uniform(-math.pi, math.pi)),
            )
            phi = rng.uniform(-math.pi, math.pi)
            A_star = float(rng.integers(1, 5))
            lo = measure_alive_probability(step_cell(c, polar_sum(A_star - eps, phi)))
            hi = measure_alive_probability(step_cell(c, polar_sum(A_star + eps, phi)))
            worst = max(worst, abs(lo - hi))
        ok = worst < 1e-6
        report(9, ok, f"continuity at region edges: worst jump {worst:.3g} over 1000 cases (1e-6)")
        assert ok

    def test_alive_dead_duality(self):
        rng = np.random.default_rng(94)
        worst = 0.0
        for i in range(1000):
            g = random_grid(rng, 6, 6, Boundary.TORUS if i % 2 else Boundary.FIXED_DEAD)
            lhs = swap_components(step_grid(g))
            rhs = dual_step_grid(swap_components(g))
            worst = max(
                worst,
                float(np.max(np.abs(lhs.a - rhs.a))),
                float(np.max(np.abs(lhs.b - rhs.b))),
            )
        ok = worst <= 1e-9
        report(9, ok, f"duality: worst component gap {worst:.3g} over 1000 grids (1e-9)")
        assert ok

    def test_zero_phase_reduction(self):
        rng = np.random.default_rng(95)
        worst = 0.0
        for i in range(1000):
            r = rng.random((6, 6))
            a = r
            b = np.sqrt(1.0 - r * r)
            boundary = Boundary.TORUS if i % 2 else Boundary.FIXED_DEAD
            g = step_grid(Grid(a.astype(complex), b.astype(complex), boundary))
            ra, rb = _classical_mixture_step(a, b, boundary)
            worst = max(
                worst,
                float(np.max(np.abs(g.a - ra))),
                float(np.max(np.abs(g.b - rb))),
            )
        ok = worst <= 1e-12
        report(9, ok, f"zero-phase reduction: worst gap to matrix update {worst:.3g} (1e-12)")
        assert ok

    def test_parallel_determinism_bit_exact(self):
        rng = np.random.default_rng(96)
        exact = True
        # one-row bands and one band per thread: every CPU count below
        # really runs that many threads on the 8x8 grids
        with mock.patch.object(rules, "_BAND_CELLS", 8), \
                mock.patch.object(rules, "_MIN_BANDS_PER_THREAD", 1):
            for i in range(250):
                g = random_grid(rng, 8, 8, Boundary.TORUS if i % 2 else Boundary.FIXED_DEAD)
                base = step_on_cpus(step_grid, 1, g)
                for cpus in (2, 3, 8):
                    other = step_on_cpus(step_grid, cpus, g)
                    if not (np.array_equal(base.a, other.a) and np.array_equal(base.b, other.b)):
                        exact = False
        report(9, exact, "parallel determinism: 250 grids x thread counts {1,2,3,8}, bit-exact")
        assert exact
