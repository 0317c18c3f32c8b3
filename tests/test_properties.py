from __future__ import annotations

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phasorlife import (
    Boundary,
    CellState,
    Grid,
    NeighborSum,
    PatternDocument,
    conway_step,
    dual_step_grid,
    lift,
    measure_alive_probability,
    normalize,
    parse_pattern,
    project,
    serialize_pattern,
    step_cell,
    step_grid,
    swap_components,
)
from phasorlife.oracle import BoolGrid

SQ2P1 = math.sqrt(2.0) + 1.0


def polar_sum(A: float, phi: float) -> NeighborSum:
    """Neighbour sum with this exact magnitude and phase (from_alpha would round them)."""
    return NeighborSum(A * cmath.exp(1j * phi), A, phi)


finite = st.floats(allow_nan=False, allow_infinity=False, min_value=-10, max_value=10)
angles = st.floats(min_value=-math.pi, max_value=math.pi)
unit = st.floats(min_value=0.0, max_value=1.0)


@st.composite
def cell_states(draw):
    r = draw(unit)
    pa = draw(angles)
    pb = draw(angles)
    a = r * cmath.exp(1j * pa)
    b = math.sqrt(max(0.0, 1.0 - r * r)) * cmath.exp(1j * pb)
    return CellState(a, b)


@st.composite
def grids(draw, max_side=6):
    w = draw(st.integers(1, max_side))
    h = draw(st.integers(1, max_side))
    cells = draw(st.lists(cell_states(), min_size=w * h, max_size=w * h))
    boundary = draw(st.sampled_from([Boundary.FIXED_DEAD, Boundary.TORUS]))
    return Grid.from_cells(w, h, cells, boundary)


@st.composite
def bool_grids(draw, max_side=8):
    w = draw(st.integers(1, max_side))
    h = draw(st.integers(1, max_side))
    bits = draw(st.lists(st.booleans(), min_size=w * h, max_size=w * h))
    boundary = draw(st.sampled_from([Boundary.FIXED_DEAD, Boundary.TORUS]))
    return BoolGrid(np.array(bits, dtype=bool).reshape(h, w), boundary)


@given(finite, finite, finite, finite)
def test_normalize_total_and_idempotent(ra, ia, rb, ib):
    c = normalize(complex(ra, ia), complex(rb, ib))
    assert c.is_normalized(1e-9)
    c2 = normalize(c.a, c.b)
    assert abs(c2.a - c.a) < 1e-12
    assert abs(c2.b - c.b) < 1e-12


@given(finite, finite, finite, finite)
def test_probability_completeness(ra, ia, rb, ib):
    c = normalize(complex(ra, ia), complex(rb, ib))
    assert measure_alive_probability(c) + abs(c.b) ** 2 == pytest.approx(1.0, abs=1e-9)


@settings(deadline=None)
@given(grids())
def test_pattern_roundtrip_preserves_a(g):
    doc2 = parse_pattern(serialize_pattern(PatternDocument(grid=g)))
    assert np.max(np.abs(doc2.grid.a - g.a)) < 1e-9


@settings(deadline=None)
@given(grids())
def test_step_preserves_normalization(g):
    assert step_grid(g).is_normalized(1e-9)


@settings(deadline=None)
@given(grids(), angles)
def test_global_phase_invariance(g, theta):
    rot = cmath.exp(1j * theta)
    rotated = Grid(g.a * rot, g.b * rot, g.boundary)
    p1 = step_grid(g).alive_probability()
    p2 = step_grid(rotated).alive_probability()
    assert np.max(np.abs(p1 - p2)) < 1e-9


@settings(deadline=None)
@given(grids())
def test_alive_dead_duality(g):
    lhs = swap_components(step_grid(g))
    rhs = dual_step_grid(swap_components(g))
    assert np.max(np.abs(lhs.a - rhs.a)) < 1e-9
    assert np.max(np.abs(lhs.b - rhs.b)) < 1e-9


def _classical_mixture_step(a: np.ndarray, b: np.ndarray, boundary: Boundary):
    """Real-arithmetic reference: weighted matrix update followed by renormalization.

    Independent of the engine: operates on real coefficient arrays with the
    matrix forms of the three operators (birth [[1,1],[0,0]], survival
    identity, death [[0,0],[1,1]]).
    """
    h, w = a.shape
    mode = "wrap" if boundary is Boundary.TORUS else "constant"
    p = np.pad(a, 1, mode=mode)
    A = np.zeros_like(a)
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            if dx == 0 and dy == 0:
                continue
            A = A + p[1 + dy : 1 + dy + h, 1 + dx : 1 + dx + w]
    wB = np.zeros_like(A)
    wS = np.zeros_like(A)
    wD = np.zeros_like(A)
    r2 = (A > 1.0) & (A <= 2.0)
    r3 = (A > 2.0) & (A <= 3.0)
    r4 = (A > 3.0) & (A < 4.0)
    rD = (A <= 1.0) | (A >= 4.0)
    wS[r2] = A[r2] - 1.0
    wD[r2] = SQ2P1 * (2.0 - A[r2])
    wB[r3] = A[r3] - 2.0
    wS[r3] = SQ2P1 * (3.0 - A[r3])
    wB[r4] = SQ2P1 * (4.0 - A[r4])
    wD[r4] = A[r4] - 3.0
    wD[rD] = 1.0
    raw_a = (wB + wS) * a + wB * b
    raw_b = wD * a + (wD + wS) * b
    n = np.sqrt(raw_a**2 + raw_b**2)
    vanished = n < 1e-9
    safe = np.where(vanished, 1.0, n)
    return (
        np.where(vanished, 0.0, raw_a / safe),
        np.where(vanished, 1.0, raw_b / safe),
    )


@settings(deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.randoms(use_true_random=False))
def test_zero_phase_reduction_to_matrix_update(w, h, rnd):
    # nonnegative real coefficients: the phase-carrying operators must agree
    # with the plain matrix update to near machine precision
    r = np.array([[rnd.random() for _ in range(w)] for _ in range(h)])
    a = r
    b = np.sqrt(1.0 - r * r)
    boundary = Boundary.TORUS if rnd.random() < 0.5 else Boundary.FIXED_DEAD
    g = Grid(a.astype(complex), b.astype(complex), boundary)
    for _ in range(3):
        ga, gb = _classical_mixture_step(a, b, boundary)
        g = step_grid(g)
        assert np.max(np.abs(g.a - ga)) < 1e-12
        assert np.max(np.abs(g.b - gb)) < 1e-12
        assert np.max(np.abs(g.a.imag)) == 0.0
        a, b = ga, gb


@given(cell_states(), angles, st.sampled_from([1.0, 2.0, 3.0, 4.0]))
def test_continuity_across_region_boundaries(c, phi, A_star):
    eps = 1e-9
    lo = step_cell(c, polar_sum(A_star - eps, phi))
    hi = step_cell(c, polar_sum(A_star + eps, phi))
    assert abs(measure_alive_probability(lo) - measure_alive_probability(hi)) < 1e-6


@given(cell_states(), angles, angles, st.integers(0, 8))
def test_dead_phase_irrelevant_at_integer_sums(c, gamma, phi, A_int):
    rotated = CellState(c.a, c.b * cmath.exp(1j * gamma))
    ns = polar_sum(float(A_int), phi)
    p1 = measure_alive_probability(step_cell(c, ns))
    p2 = measure_alive_probability(step_cell(rotated, ns))
    assert abs(p1 - p2) < 1e-12


@settings(deadline=None)
@given(bool_grids())
def test_classical_limit_random(bg):
    assert project(step_grid(lift(bg)), 0.5) == conway_step(bg)
