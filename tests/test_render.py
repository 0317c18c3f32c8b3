from __future__ import annotations

import cmath
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phasorlife import render
from phasorlife import (
    ALIVE,
    CellState,
    Grid,
    RenderOptions,
    render_ascii,
    render_csv,
    render_ppm,
)
from conftest import load_pattern
from render_reference import (
    DIGESTS_PATH,
    frame_digests,
    ref_render_ascii,
    ref_render_csv,
    ref_render_ppm,
)


def single(cell: CellState) -> Grid:
    return Grid.from_cells(1, 1, [cell])


class TestAscii:
    def test_all_dead(self):
        assert render_ascii(Grid.dead(2, 2)) == "..\n..\n"

    def test_east_arrow(self):
        assert render_ascii(single(ALIVE)) == "→\n"

    def test_quantization(self):
        cases = {
            0.0: "→", math.pi / 4: "↗", math.pi / 2: "↑", 3 * math.pi / 4: "↖",
            math.pi: "←", -3 * math.pi / 4: "↙", -math.pi / 2: "↓", -math.pi / 4: "↘",
        }
        for phase, glyph in cases.items():
            g = single(CellState(cmath.exp(1j * phase), 0j))
            assert render_ascii(g) == glyph + "\n"

    def test_partial_amplitude_uses_faint_set(self):
        half = CellState(complex(1 / math.sqrt(2)), complex(1 / math.sqrt(2)))
        assert render_ascii(single(half)) == "⇒\n"

    def test_rows_and_newlines(self):
        g = Grid.from_cells(2, 2, [ALIVE, CellState(1j, 0j),
                                   CellState(-1 + 0j, 0j), CellState(-1j, 0j)])
        assert render_ascii(g) == "→↑\n←↓\n"


class TestPpm:
    def test_single_dead_pixel(self):
        data = render_ppm(Grid.dead(1, 1))
        assert data == b"P6\n1 1\n255\n\x00\x00\x00"

    def test_single_alive_pixel_is_red(self):
        data = render_ppm(single(ALIVE))
        assert data == b"P6\n1 1\n255\n\xff\x00\x00"

    def test_quarter_turn_hue(self):
        # phase pi/2 -> hue 90 degrees: green-dominant
        data = render_ppm(single(CellState(1j, 0j)))
        r, g, b = data[-3:]
        assert g == 255 and b == 0 and 0 < r < 255

    def test_pixel_scaling(self):
        opts = RenderOptions(cell_pixel_size=3)
        data = render_ppm(Grid.dead(2, 1), opts)
        assert data.startswith(b"P6\n6 3\n255\n")
        assert len(data) == len(b"P6\n6 3\n255\n") + 6 * 3 * 3

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        r = rng.random((3, 3))
        a = r * np.exp(1j * rng.uniform(-np.pi, np.pi, (3, 3)))
        b = np.sqrt(1 - r * r).astype(complex)
        g = Grid(a, b)
        assert render_ppm(g) == render_ppm(g)

    def test_rejects_bad_pixel_size(self):
        # 2.5 would write the header "P6\n50.0 50.0\n255\n" for the glider
        for size in (0, 2.5, True):
            with pytest.raises(ValueError):
                RenderOptions(cell_pixel_size=size)

    def test_numpy_integer_pixel_size(self):
        g = load_pattern("glider.sqp").grid
        ppm = render_ppm(g, RenderOptions(cell_pixel_size=np.int64(3)))
        assert ppm == render_ppm(g, RenderOptions(cell_pixel_size=3))
        assert ppm.startswith(b"P6\n%d %d\n255\n" % (3 * g.width, 3 * g.height))


class TestCsv:
    def test_dead_cell_row(self):
        text = render_csv(Grid.dead(1, 1))
        lines = text.splitlines()
        assert lines[0] == "x,y,re_a,im_a,re_b,im_b,p_alive"
        assert lines[1] == "0,0,0,0,1,0,0"

    def test_alive_cell_row(self):
        assert render_csv(single(ALIVE)).splitlines()[1] == "0,0,1,0,0,0,1"

    def test_row_major_order(self):
        g = Grid.dead(2, 2)
        coords = [line.split(",")[:2] for line in render_csv(g).splitlines()[1:]]
        assert coords == [["0", "0"], ["1", "0"], ["0", "1"], ["1", "1"]]

    def test_lossless_roundtrip(self):
        rng = np.random.default_rng(31)
        r = rng.random((4, 5))
        a = r * np.exp(1j * rng.uniform(-np.pi, np.pi, (4, 5)))
        b = np.sqrt(1 - r * r) * np.exp(1j * rng.uniform(-np.pi, np.pi, (4, 5)))
        g = Grid(a, b)
        text = render_csv(g)
        a2 = np.zeros_like(a)
        b2 = np.zeros_like(b)
        for line in text.splitlines()[1:]:
            xs, ys, ra, ia, rb, ib, _ = line.split(",")
            a2[int(ys), int(xs)] = complex(float(ra), float(ia))
            b2[int(ys), int(xs)] = complex(float(rb), float(ib))
        assert np.array_equal(a, a2)
        assert np.array_equal(b, b2)


def _ulps_around(x: float, n: int = 2) -> list[float]:
    below = above = x
    values = [x]
    for _ in range(n):
        below, above = math.nextafter(below, -math.inf), math.nextafter(above, math.inf)
        values += [below, above]
    return values


# Amplitudes at the renderers' thresholds: |a| = 0.9 picks the arrow set and
# |a|^2 = 1e-6 the dead glyph, so a last-bit difference there changes a frame.
# glibc's pow(x, 2) and x * x round the square of 0.37796883434360806 differently.
EDGE_AMPLITUDES = sorted(
    {
        0.0,
        0.37796883434360806,
        0.5,
        1.0,
        *_ulps_around(render.STRONG_AMPLITUDE),
        *_ulps_around(math.sqrt(render.DEAD_PROBABILITY_EPS), 3),
    }
)
# Exact multiples of pi/8 put the phase on or next to an octant rounding tie.
EDGE_PHASES = [k * math.pi / 8 for k in range(-8, 9)]
SIGNED_ZEROS = [complex(re, im) for re in (0.0, -0.0) for im in (0.0, -0.0)]

coefficients = st.one_of(
    st.sampled_from(SIGNED_ZEROS),
    st.builds(
        lambda amp, phase: amp * complex(math.cos(phase), math.sin(phase)),
        st.sampled_from(EDGE_AMPLITUDES),
        st.one_of(st.sampled_from(EDGE_PHASES), st.floats(-math.pi, math.pi)),
    ),
    st.builds(complex, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    # on an axis |a| is exactly the drawn amplitude
    st.builds(
        lambda amp, sign, axis: complex(sign * amp, 0.0) if axis else complex(0.0, sign * amp),
        st.sampled_from(EDGE_AMPLITUDES),
        st.sampled_from([1.0, -1.0]),
        st.booleans(),
    ),
)


@st.composite
def coefficient_grids(draw, max_side=9):
    w = draw(st.integers(1, max_side))
    h = draw(st.integers(1, max_side))
    a = draw(st.lists(coefficients, min_size=w * h, max_size=w * h))
    b = draw(st.lists(coefficients, min_size=w * h, max_size=w * h))
    return Grid(np.array(a).reshape(h, w), np.array(b).reshape(h, w))


def edge_grid() -> Grid:
    """Every edge amplitude at every edge phase, plus signed zeros, in a 7-wide grid."""
    a = [amp * complex(math.cos(p), math.sin(p)) for amp in EDGE_AMPLITUDES for p in EDGE_PHASES]
    a += [complex(amp, 0.0) for amp in EDGE_AMPLITUDES] + SIGNED_ZEROS
    a += [0j] * (-len(a) % 7)
    b = (SIGNED_ZEROS * len(a))[: len(a)]
    return Grid(np.array(a).reshape(-1, 7), np.array(b).reshape(-1, 7))


def assert_matches_reference(g: Grid, pixel_sizes=range(1, 5)) -> None:
    assert render_ascii(g) == ref_render_ascii(g)
    assert render_csv(g) == ref_render_csv(g)
    for size in pixel_sizes:
        opts = RenderOptions(cell_pixel_size=size)
        assert render_ppm(g, opts) == ref_render_ppm(g, size)


class TestMatchesReference:
    """The array renderers are byte-identical to the per-cell reference definitions."""

    @settings(max_examples=150, deadline=None)
    @given(g=coefficient_grids(), block_cells=st.integers(1, 20), size=st.integers(1, 4))
    def test_random_grids(self, g, block_cells, size):
        # small blocks split the grid into several row blocks with a short last one
        with mock.patch.object(render, "_BLOCK_CELLS", block_cells):
            assert_matches_reference(g, [size])

    @pytest.mark.parametrize("block_cells", [1, 10, 16, render._BLOCK_CELLS])
    def test_edge_grid(self, block_cells):
        with mock.patch.object(render, "_BLOCK_CELLS", block_cells):
            assert_matches_reference(edge_grid())


class TestGoldenDigests:
    def test_shipped_patterns(self):
        def ppm(g: Grid, size: int) -> bytes:
            return render_ppm(g, RenderOptions(cell_pixel_size=size))

        expected = json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))
        assert frame_digests(render_ascii, ppm, render_csv) == expected
