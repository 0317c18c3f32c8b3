from __future__ import annotations

import cmath
import math
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest

from phasorlife import rules
from phasorlife import (
    ALIVE,
    DEAD,
    Boundary,
    CellState,
    Grid,
    NeighborSum,
    StepConfig,
    apply_birth,
    apply_death,
    apply_survival,
    dual_step_grid,
    measure_alive_probability,
    neighbor_sum,
    operator_weights,
    parse_pattern,
    step_cell,
    step_grid,
    swap_components,
)
from conftest import random_grid

SQ2 = math.sqrt(2.0)
SQ2P1 = SQ2 + 1.0


def cell_grid(width, height, live, boundary=Boundary.FIXED_DEAD):
    """live: dict (x, y) -> complex a value; b = 0 for live cells."""
    a = np.zeros((height, width), complex)
    b = np.ones((height, width), complex)
    for (x, y), v in live.items():
        a[y, x] = v
        b[y, x] = 0
    return Grid(a, b, boundary)


def block(theta=None):
    """2x2 block centered in a 6x6 dead grid; optional phase on one corner."""
    live = {(2, 2): 1, (3, 2): 1, (2, 3): 1, (3, 3): 1}
    if theta is not None:
        live[(3, 3)] = cmath.exp(1j * theta)
    return cell_grid(6, 6, live)


class TestNeighborSum:
    def test_all_dead(self):
        ns = neighbor_sum(Grid.dead(3, 3), 1, 1)
        assert ns.alpha == 0
        assert ns.A == 0
        assert ns.phi == 0

    def test_opposite_phases_cancel(self):
        g = cell_grid(3, 3, {(0, 1): 1, (2, 1): -1})
        ns = neighbor_sum(g, 1, 1)
        assert ns.alpha == 0

    def test_three_in_phase(self):
        g = cell_grid(3, 3, {(0, 0): 1, (1, 0): 1, (2, 0): 1})
        ns = neighbor_sum(g, 1, 1)
        assert ns.alpha == 3
        assert ns.A == 3
        assert ns.phi == 0

    def test_interfering_triple(self):
        # |2 + e^(i 2pi/3)| = sqrt(5 + 4 cos 2pi/3) = sqrt(3), arg = pi/6
        g = cell_grid(3, 3, {(0, 0): 1, (1, 0): 1, (2, 0): cmath.exp(2j * math.pi / 3)})
        ns = neighbor_sum(g, 1, 1)
        assert ns.A == pytest.approx(math.sqrt(5 + 4 * math.cos(2 * math.pi / 3)), abs=1e-12)
        assert ns.A == pytest.approx(math.sqrt(3), abs=1e-12)
        assert ns.phi == pytest.approx(math.pi / 6, abs=1e-12)

    def test_torus_wraps(self):
        g = cell_grid(3, 3, {(0, 0): 1}, Boundary.TORUS)
        ns = neighbor_sum(g, 2, 2)
        assert ns.alpha == 1

    def test_fixed_excludes_off_grid(self):
        g = cell_grid(3, 3, {(0, 0): 1})
        ns = neighbor_sum(g, 2, 2)
        assert ns.alpha == 0

    def test_out_of_bounds(self):
        with pytest.raises(IndexError):
            neighbor_sum(Grid.dead(3, 3), 3, 0)

    def test_polar_consistency(self):
        ns = NeighborSum.from_alpha(1.5 - 2.2j)
        assert abs(ns.alpha - ns.A * cmath.exp(1j * ns.phi)) < 1e-12


class TestOperatorWeights:
    def test_pure_survival_at_two(self):
        w = operator_weights(2.0)
        assert (w.w_B, w.w_S, w.w_D) == (0.0, 1.0, 0.0)

    def test_pure_birth_at_three(self):
        w = operator_weights(3.0)
        assert (w.w_B, w.w_S, w.w_D) == (1.0, 0.0, 0.0)

    def test_equal_birth_death_mixture(self):
        w = operator_weights(3 + 1 / SQ2)
        assert w.w_B == pytest.approx(1 / SQ2, abs=1e-12)
        assert w.w_D == pytest.approx(1 / SQ2, abs=1e-12)
        assert w.w_S == 0.0

    def test_low_density_death(self):
        assert operator_weights(0.5) == operator_weights(0.0)
        assert (operator_weights(0.5).w_B, operator_weights(0.5).w_S) == (0.0, 0.0)
        assert operator_weights(0.5).w_D == 1.0

    def test_survival_birth_blend(self):
        w = operator_weights(2.5)
        assert w.w_B == pytest.approx(0.5, abs=1e-12)
        assert w.w_S == pytest.approx(SQ2P1 * 0.5, abs=1e-12)
        assert w.w_D == 0.0

    def test_overcrowding_death(self):
        for A in (4.0, 5.5, 8.0):
            assert operator_weights(A).w_D == 1.0

    @pytest.mark.parametrize("A", [-0.1, -5e-324, 8.1, 8.0 + 1e-12, math.inf, math.nan])
    def test_rejects_out_of_range(self, A):
        with pytest.raises(ValueError):
            operator_weights(A)

    def test_rounding_above_eight_is_overcrowding(self):
        A = math.nextafter(8.0, math.inf)
        assert operator_weights(A) == operator_weights(8.0)
        assert operator_weights(8.0 + rules.A_ROUNDING_SLACK) == operator_weights(8.0)

    def test_at_most_two_nonzero_and_integer_purity(self):
        rng = np.random.default_rng(3)
        for A in rng.uniform(0, 8, 500):
            w = operator_weights(float(A))
            nonzero = sum(1 for v in (w.w_B, w.w_S, w.w_D) if v > 1e-12)
            assert nonzero <= 2
            assert min(w.w_B, w.w_S, w.w_D) >= 0.0
        for A in range(9):
            w = operator_weights(float(A))
            nonzero = sum(1 for v in (w.w_B, w.w_S, w.w_D) if v > 1e-12)
            assert nonzero == 1


class TestOperators:
    def test_birth_from_dead(self):
        ra, rb = apply_birth(DEAD, math.pi / 4)
        assert abs(ra - cmath.exp(1j * math.pi / 4)) < 1e-12
        assert rb == 0

    def test_birth_on_alive_is_identity(self):
        for phi in (0.0, 1.0, -2.5):
            ra, rb = apply_birth(ALIVE, phi)
            assert (ra, rb) == (1, 0)

    def test_birth_on_superposition(self):
        c = CellState(1 / SQ2 + 0j, 1 / SQ2 + 0j)
        ra, rb = apply_birth(c, 0.0)
        assert abs(ra - SQ2) < 1e-12
        assert rb == 0

    def test_death_of_alive(self):
        ra, rb = apply_death(ALIVE, 0.0)
        assert (ra, rb) == (0, 1)

    def test_death_on_dead_is_identity(self):
        for phi in (0.0, 2.0, -1.0):
            ra, rb = apply_death(DEAD, phi)
            assert (ra, rb) == (0, 1)

    def test_death_stamps_phase(self):
        ra, rb = apply_death(CellState(-1 + 0j, 0j), math.pi)
        assert ra == 0
        assert abs(rb + 1) < 1e-12

    @pytest.mark.parametrize(
        "cell", [ALIVE, DEAD, CellState(0.6j, 0.8 + 0j)]
    )
    def test_survival_identity(self, cell):
        assert apply_survival(cell) == (cell.a, cell.b)


class TestStepCell:
    def test_survival_at_two(self):
        out = step_cell(ALIVE, NeighborSum.from_alpha(2 + 0j))
        assert out == ALIVE

    def test_birth_stamps_neighborhood_phase(self):
        out = step_cell(DEAD, NeighborSum.from_alpha(3 * cmath.exp(1j * math.pi / 3)))
        assert abs(out.a - cmath.exp(1j * math.pi / 3)) < 1e-12
        assert abs(out.b) < 1e-12

    @pytest.mark.parametrize("cell", [ALIVE, DEAD])
    def test_equal_superposition_from_both_states(self, cell):
        ns = NeighborSum.from_polar(3 + 1 / SQ2, 0.0)
        out = step_cell(cell, ns)
        assert measure_alive_probability(out) == pytest.approx(0.5, abs=1e-12)
        assert abs(out.a - 1 / SQ2) < 1e-12
        assert abs(out.b - 1 / SQ2) < 1e-12

    def test_canonicalize_dead_phase(self):
        cfg = StepConfig(canonicalize_dead_phase=True)
        out = step_cell(ALIVE, NeighborSum.from_polar(1.0, math.pi / 2), cfg)
        assert out.b.imag == 0.0
        assert out.b.real >= 0.0

    def test_dead_threshold_validation(self):
        with pytest.raises(ValueError):
            StepConfig(dead_threshold=0.7)


class TestStepGrid:
    def test_block_is_exact_still_life(self):
        g = block()
        g2 = step_grid(g)
        assert np.array_equal(g.a, g2.a)
        assert np.array_equal(g.b, g2.b)

    def test_phase_flipped_block_dies_in_two(self):
        g = block(math.pi)
        g1 = step_grid(g)
        live = g1.alive_probability() > 1e-6
        assert live.sum() == 1
        assert live[3, 3]
        g2 = step_grid(g1)
        assert g2.alive_probability().max() < 1e-6

    def test_empty_grid_stays_empty(self):
        g = Grid.dead(5, 4)
        g2 = step_grid(g)
        assert np.array_equal(g2.a, g.a)
        assert np.array_equal(g2.b, g.b)

    def test_input_grid_untouched(self):
        g = block(math.pi)
        before = g.a.copy()
        step_grid(g)
        assert np.array_equal(g.a, before)

    @pytest.mark.parametrize("w,h", [(6, 5), (1, 1), (2, 2), (1, 4)])
    def test_matches_per_cell_step(self, w, h):
        # includes tiny tori, where the wrapped neighborhood aliases onto itself
        rng = np.random.default_rng(11)
        for boundary in (Boundary.FIXED_DEAD, Boundary.TORUS):
            g = random_grid(rng, w, h, boundary)
            stepped = step_grid(g)
            for y in range(g.height):
                for x in range(g.width):
                    expected = step_cell(g.cell(x, y), neighbor_sum(g, x, y))
                    got = stepped.cell(x, y)
                    assert abs(got.a - expected.a) < 1e-12
                    assert abs(got.b - expected.b) < 1e-12

    def test_neighbor_sum_rounding_past_eight(self):
        # eight in-phase neighbors at -358.8923 degrees sum to A = 8.000000000000002
        rows = "\n".join(["1@-358.8923 " * 3] * 3)
        g = parse_pattern(f"version 1\nsize 3 3\nboundary torus\ncells\n{rows}\n").grid
        assert neighbor_sum(g, 1, 1).A > 8.0
        stepped = step_grid(g)
        for y in range(3):
            for x in range(3):
                expected = step_cell(g.cell(x, y), neighbor_sum(g, x, y))
                assert abs(stepped.cell(x, y).a - expected.a) < 1e-12
                assert abs(stepped.cell(x, y).b - expected.b) < 1e-12

    @pytest.mark.parametrize("stepper", [step_grid, dual_step_grid])
    def test_thread_pool_capped_at_cpu_count(self, stepper):
        pool_sizes = []
        bands_run = []

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                pool_sizes.append(max_workers)
                super().__init__(max_workers=1)

            def map(self, fn, bands):
                bands = list(bands)
                bands_run.append(len(bands))
                return super().map(fn, bands)

        g = random_grid(np.random.default_rng(13), 5, 20, Boundary.TORUS)
        base = stepper(g)
        with mock.patch.object(rules, "ThreadPoolExecutor", RecordingPool):
            for cpus, workers, pool_size in [(4, 16, 4), (4, 3, 3), (None, 16, 1), (64, 100, 20)]:
                with mock.patch.object(rules.os, "cpu_count", return_value=cpus):
                    other = stepper(g, workers=workers)
                assert pool_sizes.pop() == pool_size
                assert bands_run.pop() == min(workers, g.height)
                assert np.array_equal(base.a, other.a)
                assert np.array_equal(base.b, other.b)

    def test_partitioned_execution_bit_exact(self):
        rng = np.random.default_rng(12)
        g = random_grid(rng, 9, 7, Boundary.TORUS)
        base = step_grid(g)
        for workers in (2, 3, 5, 16):
            other = step_grid(g, workers=workers)
            assert np.array_equal(base.a, other.a)
            assert np.array_equal(base.b, other.b)

    def test_zero_norm_pipeline_total(self):
        # exhaustive 3x3 grids with two live cells at phases 0 or pi;
        # every step must stay normalized even through total cancellation
        positions = [(x, y) for x in range(3) for y in range(3)]
        for i in range(len(positions)):
            for j in range(i + 1, len(positions)):
                for p1 in (1, -1):
                    for p2 in (1, -1):
                        g = cell_grid(3, 3, {positions[i]: p1, positions[j]: p2})
                        for _ in range(4):
                            g = step_grid(g)
                            assert g.is_normalized(1e-9)
                            assert np.all(np.isfinite(g.a.real))
                            assert np.all(np.isfinite(g.b.real))


class TestDuality:
    def test_block_duality(self):
        g = block(math.pi)
        lhs = swap_components(step_grid(g))
        rhs = dual_step_grid(swap_components(g))
        assert np.max(np.abs(lhs.a - rhs.a)) < 1e-9
        assert np.max(np.abs(lhs.b - rhs.b)) < 1e-9

    def test_all_alive_fixed_point(self):
        # the dual image of an empty grid is all-alive and maps to itself
        g = swap_components(Grid.dead(4, 4))
        g2 = dual_step_grid(g)
        assert np.max(np.abs(g2.a - g.a)) < 1e-12
        assert np.max(np.abs(g2.b - g.b)) < 1e-12

    @pytest.mark.parametrize("canonical", [False, True])
    @pytest.mark.parametrize("boundary", [Boundary.FIXED_DEAD, Boundary.TORUS])
    def test_matches_scalar_step_with_roles_swapped(self, boundary, canonical):
        # dual_step_grid shares its array core with step_grid, so the
        # swap-step-swap checks cannot see a fault in that core; step_cell can
        cfg = StepConfig(canonicalize_dead_phase=canonical)
        rng = np.random.default_rng(22)
        # in the swapped frame the centre sees A = 1 (pure death) at phase 0
        # and has b = -|a|: total cancellation, so the dual gives (1, 0)
        s = 1 / SQ2
        cancelling = Grid([[0, 1, 1], [1, -s, 1], [1, 1, 1]], [[1, 0, 0], [0, s, 0], [0, 0, 0]],
                          boundary)
        grids = [cancelling] + [random_grid(rng, 6, 5, boundary) for _ in range(20)]
        for g in grids:
            mirrored = swap_components(g)
            stepped = dual_step_grid(g, cfg)
            for y in range(g.height):
                for x in range(g.width):
                    expected = step_cell(mirrored.cell(x, y), neighbor_sum(mirrored, x, y), cfg)
                    got = stepped.cell(x, y)
                    assert abs(got.a - expected.b) < 1e-12
                    assert abs(got.b - expected.a) < 1e-12
        for workers in (1, 2):
            assert dual_step_grid(cancelling, cfg, workers=workers).cell(1, 1) == ALIVE

    def test_random_grids(self):
        rng = np.random.default_rng(21)
        for trial in range(500):
            boundary = Boundary.TORUS if trial % 2 else Boundary.FIXED_DEAD
            g = random_grid(rng, 5, 5, boundary)
            lhs = swap_components(step_grid(g))
            rhs = dual_step_grid(swap_components(g))
            assert np.max(np.abs(lhs.a - rhs.a)) < 1e-9
            assert np.max(np.abs(lhs.b - rhs.b)) < 1e-9
