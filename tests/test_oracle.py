from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from phasorlife import (
    ALIVE,
    DEAD,
    BoolGrid,
    Boundary,
    CellState,
    Grid,
    conway_step,
    lift,
    project,
    step_grid,
)
from phasorlife.oracle import _neighbor_counts
import oracle_reference as reference


def bool_grid(width, height, live, boundary=Boundary.FIXED_DEAD):
    return BoolGrid.from_coords(width, height, live, boundary)


class TestConwayStep:
    def test_block_still_life(self):
        g = bool_grid(4, 4, [(1, 1), (2, 1), (1, 2), (2, 2)])
        assert conway_step(g) == g

    def test_blinker_flips(self):
        horizontal = bool_grid(5, 5, [(1, 2), (2, 2), (3, 2)])
        vertical = bool_grid(5, 5, [(2, 1), (2, 2), (2, 3)])
        assert conway_step(horizontal) == vertical
        assert conway_step(vertical) == horizontal

    def test_empty_stays_empty(self):
        g = BoolGrid.dead(4, 4)
        assert conway_step(g) == g

    def test_rejects_a_boundary_that_is_not_a_boundary(self):
        with pytest.raises(ValueError, match="Boundary"):
            BoolGrid(np.ones((3, 3), dtype=bool), "torus")

    def test_torus_wrap(self):
        # blinker crossing the seam of a torus still oscillates
        g = bool_grid(5, 5, [(4, 2), (0, 2), (1, 2)], Boundary.TORUS)
        assert conway_step(conway_step(g)) == g


class TestLiftProject:
    def test_lift_single(self):
        g = lift(bool_grid(3, 3, [(1, 1)]))
        assert g.cell(1, 1) == ALIVE
        assert g.cell(0, 0) == DEAD

    def test_lift_then_project_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            arr = rng.random((6, 6)) < 0.4
            g = BoolGrid(arr)
            assert project(lift(g), 0.5) == g

    def test_project_threshold_strict(self):
        half = CellState(complex(1 / math.sqrt(2)), complex(1 / math.sqrt(2)))
        g = Grid.from_cells(1, 1, [half])
        assert not project(g, 0.5).alive[0, 0]

    def test_project_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            project(Grid.dead(1, 1), 0.0)


class TestClassicalEquivalence:
    def test_exhaustive_3x3_neighborhoods(self):
        for bits in itertools.product((False, True), repeat=9):
            arr = np.array(bits, dtype=bool).reshape(3, 3)
            g = BoolGrid(arr)
            assert project(step_grid(lift(g)), 0.5) == conway_step(g)

    def test_random_single_steps(self):
        rng = np.random.default_rng(99)
        for _ in range(500):
            density = rng.uniform(0.1, 0.9)
            arr = rng.random((8, 8)) < density
            boundary = Boundary.TORUS if rng.random() < 0.5 else Boundary.FIXED_DEAD
            g = BoolGrid(arr, boundary)
            assert project(step_grid(lift(g)), 0.5) == conway_step(g)

    def test_trajectory_equivalence(self):
        rng = np.random.default_rng(17)
        arr = rng.random((12, 12)) < 0.35
        boolean = BoolGrid(arr, Boundary.TORUS)
        semi = lift(boolean)
        for _ in range(50):
            semi = step_grid(semi)
            boolean = conway_step(boolean)
            assert project(semi, 0.5) == boolean

    def test_classical_states_stay_exact(self):
        # binary grids evolve to binary grids with no float drift at all
        rng = np.random.default_rng(23)
        arr = rng.random((10, 10)) < 0.4
        g = lift(BoolGrid(arr))
        for _ in range(30):
            g = step_grid(g)
            assert np.all((g.a == 0) | (g.a == 1))
            assert np.all((g.b == 0) | (g.b == 1))


class TestMatchesReference:
    """The box sum gives the counts and cells of the eight-view sum in oracle_reference.py."""

    SHAPES = [(1, 1), (1, 7), (7, 1), (2, 2), (1, 2), (3, 1), (3, 3), (17, 23), (64, 48)]

    @staticmethod
    def assert_same(g):
        assert np.array_equal(_neighbor_counts(g), reference._neighbor_counts(g))
        assert conway_step(g) == reference.ref_conway_step(g)

    @pytest.mark.parametrize("boundary", list(Boundary))
    @pytest.mark.parametrize("density", [0.1, 0.35, 0.7])
    def test_random_soups(self, density, boundary):
        rng = np.random.default_rng(int(density * 100))
        for height, width in self.SHAPES:
            for _ in range(4):
                g = BoolGrid(rng.random((height, width)) < density, boundary)
                for _ in range(3):
                    self.assert_same(g)
                    g = reference.ref_conway_step(g)

    @pytest.mark.parametrize("boundary", list(Boundary))
    def test_large_soup(self, boundary):
        rng = np.random.default_rng(1024)
        g = BoolGrid(rng.random((1024, 1024)) < 0.35, boundary)
        self.assert_same(g)

    @pytest.mark.parametrize("boundary", list(Boundary))
    @pytest.mark.parametrize("height,width", SHAPES[:6])
    def test_every_small_grid(self, boundary, height, width):
        # every grid of up to seven cells, the torus ones wrapping onto themselves
        for bits in itertools.product((False, True), repeat=height * width):
            self.assert_same(BoolGrid(np.array(bits).reshape(height, width), boundary))

    def test_torus_neighbors_repeat_through_the_wrap(self):
        one = BoolGrid([[True]], Boundary.TORUS)
        assert _neighbor_counts(one).tolist() == [[8]]
        assert _neighbor_counts(BoolGrid([[True]])).tolist() == [[0]]
        assert not conway_step(one).alive.any()
        # a one-row torus: each cell is its own neighbor above and below
        row = BoolGrid([[True, False, False]], Boundary.TORUS)
        assert _neighbor_counts(row).tolist() == [[2, 3, 3]]
        # a 2x2 torus: the diagonal cell is four neighbors, the other two are two each
        square = BoolGrid([[True, False], [False, False]], Boundary.TORUS)
        assert _neighbor_counts(square).tolist() == [[0, 2], [2, 4]]
