from __future__ import annotations

import cmath
import importlib.util
import json
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phasorlife import render
from phasorlife import (
    ALIVE,
    Boundary,
    CellState,
    Grid,
    parse_pattern,
    render_ascii,
    render_csv,
    render_ppm,
    step_grid,
)
from conftest import load_pattern, native_and_baseline
from render_reference import (
    DIGESTS_PATH,
    _hsv_bytes as ref_hsv_bytes,
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
        data = render_ppm(Grid.dead(2, 1), 3)
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
                render_ppm(Grid.dead(1, 1), size)

    def test_numpy_integer_pixel_size(self):
        g = load_pattern("glider.sqp").grid
        ppm = render_ppm(g, np.int64(3))
        assert ppm == render_ppm(g, 3)
        assert ppm.startswith(b"P6\n%d %d\n255\n" % (3 * g.width, 3 * g.height))

    def test_narrow_numpy_integer_pixel_size(self):
        # in uint8, 100 * 3 wraps to 44 in the header while the pixels are 300 wide
        g = Grid.dead(100, 2)
        assert render_ppm(g, np.uint8(3)) == render_ppm(g, 3)
        assert render_ppm(g, np.uint8(3)).startswith(b"P6\n300 6\n255\n")

    def test_numpy_integer_pixel_size_wider_than_its_type(self):
        # a width of 256 does not fit in uint8 either
        g = Grid.dead(256, 1)
        assert render_ppm(g, np.uint8(1)) == render_ppm(g, 1)


class TestHsvBytes:
    """``render._hsv_bytes`` picks every cell's bytes as the per-cell reference does."""

    def test_matches_reference_cell_by_cell(self):
        rng = np.random.default_rng(30)
        phases = [0.0, math.pi, 5e-324, 1e-17]  # at -1e-17, d + 360 rounds to 360.0
        for k in range(-3, 4):
            phases += _ulps_around(k * math.pi / 3, 4)
        phases += rng.uniform(-math.pi, math.pi, 200).tolist()
        phases += [-p for p in phases]
        values = [0.0, 5e-324, 1e-300, 0.25, 0.5, math.nextafter(1.0, 0.0), 1.0]
        values += rng.random(100).tolist()
        phase, v = (np.array(x, dtype=np.float64) for x in np.meshgrid(phases, values))
        rgb, edge = render._hsv_bytes(phase, v)
        assert rgb.shape == phase.shape + (3,) and edge.shape == phase.shape
        want = [ref_hsv_bytes(p, x) for p, x in zip(phase.ravel().tolist(), v.ravel().tolist())]
        assert rgb.reshape(-1, 3).tolist() == [list(c) for c in want]


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


def formatted(values) -> list[str]:
    """Each value's CSV slot with its NUL padding dropped."""
    values = np.asarray(values, dtype=np.float64)
    out = np.empty((values.size, render._SLOT), dtype=np.uint8)
    render._format_slots(values, out)
    return [bytes(slot).replace(b"\0", b"").decode("ascii") for slot in out]


def _digit_edges() -> list[float]:
    values = [1 - 2**-53, 9.9999999999999982, 9.99999999999999e-5, 5e-324, 2.2250738585072014e-308]
    for k in range(-6, 3):
        values += _ulps_around(10.0**k, 40)
        # the doubles nearest the 17-digit roundings that carry into the next power of ten
        values += [float(f"9.9999999999999999{d}e{k - 1}") for d in range(10)]
    rng = np.random.default_rng(8)
    # 17 digits followed by a 5: the decimal ties, rounded to their nearest doubles
    for exp10 in range(-6, 2):
        values += [float(f"{m}5e{exp10 - 17}") for m in rng.integers(10**16, 10**17, 200)]
    values += (rng.integers(1, 2**53, 1000) / 2.0 ** rng.integers(0, 70, 1000)).tolist()
    return values + [-v for v in values]


class TestCsvDigits:
    """Every CSV value slot reads exactly as CPython's ``'%.17g' % v``."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=50))
    def test_any_double(self, values):
        assert formatted(values) == ["%.17g" % v for v in values]

    def test_edge_values(self):
        values = _digit_edges() + [0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan]
        assert formatted(values) == ["%.17g" % v for v in values]

    def test_random_doubles(self):
        rng = np.random.default_rng(9)
        values = np.concatenate([
            rng.uniform(-1.0, 1.0, 20_000),
            np.exp(rng.uniform(math.log(1e-6), math.log(20.0), 20_000)),
            rng.integers(0, 2**64, 20_000, dtype=np.uint64).view(np.float64),
        ])
        assert formatted(values) == ["%.17g" % v for v in values.tolist()]


def adopted_grid(values: list[complex], width: int) -> Grid:
    """A grid the constructor would refuse, taken as is, its cells padded with zeros."""
    a = np.array(values + [0j] * (-len(values) % width), dtype=np.complex128).reshape(-1, width)
    # parts whose squares would overflow appear only in b, which is not squared
    b = np.empty_like(a)
    b.real = np.roll(a.real, 1) * 1e200
    b.imag = np.roll(a.imag, 2)
    return Grid._adopt(a, b, Boundary.TORUS)


class TestCsvRefusedCells:
    """Cells outside the normalized states reach ``%`` inside a block and match the reference."""

    SPECIAL = [math.nan, math.inf, -math.inf, 5e-324, -2.2250738585072014e-308, 1e-5, -9.5e-5, 12.5, -1e15]

    # CSV blocks take a quarter of _BLOCK_CELLS: on these 16 rows of 7 cells, 4 * 14 gives
    # blocks of two rows, and 4 * 21 blocks of three with a short last block
    @pytest.mark.parametrize("block_cells", [1, 10, 4 * 14, 4 * 21, render._BLOCK_CELLS])
    def test_matches_reference(self, block_cells):
        cells = [complex(re, im) for re in self.SPECIAL + [0.25, -1.0] for im in self.SPECIAL + [0.0]]
        g = adopted_grid(cells, 7)
        with mock.patch.object(render, "_BLOCK_CELLS", block_cells):
            assert render_csv(g) == ref_render_csv(g)


# Renders a CSV grid of random doubles and an ascii and ppm grid across the octant and
# sextant edges, reporting the dispatch targets still on and each frame's sha256.
_DISPATCH_CHILD = """
import hashlib, json, math
import numpy as np
from phasorlife import Grid, render_ascii, render_csv, render_ppm
from phasorlife.state import Boundary
from conftest import dispatch_targets
rng = np.random.default_rng(64)
shape = (48, 48)
# exact powers of ten from Python's own arithmetic: every exponent, from %-written to digit-written
scale = np.array([10.0**k for k in range(-7, 3)])
parts = [rng.random(shape) * scale[rng.integers(0, 10, shape)] for _ in range(4)]
g = Grid._adopt(parts[0] + 1j * parts[1], parts[2] + 1j * parts[3], Boundary.TORUS)
# multiples of pi/24, which hold every octant and sextant edge, and 3 ulps either side, at
# random amplitudes; the cells come from libm's cos and sin, which do not depend on dispatch
points = [k * math.pi / 24 + j * math.ulp(k * math.pi / 24) for k in range(-24, 25) for j in range(-3, 4)]
phases = (points * shape[0] * shape[1])[: shape[0] * shape[1]]
amps = rng.uniform(0.0, 1.0, len(phases)).tolist()
a = np.array([r * complex(math.cos(p), math.sin(p)) for r, p in zip(amps, phases)]).reshape(shape)
edges = Grid(a, np.zeros_like(a))
frames = {"csv": render_csv(g).encode(), "ascii": render_ascii(edges).encode(),
          "ppm": render_ppm(edges, 2)}
print(json.dumps({"on": dispatch_targets(),
                  "sha256": {k: hashlib.sha256(v).hexdigest() for k, v in frames.items()}}))
"""


class TestCsvDispatch:
    def test_bytes_do_not_depend_on_simd_dispatch(self):
        native, baseline = native_and_baseline(_DISPATCH_CHILD)
        assert baseline["sha256"] == native["sha256"]


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
        assert render_ppm(g, size) == ref_render_ppm(g, size)


class TestMatchesReference:
    """The array renderers are byte-identical to the per-cell reference definitions."""

    @settings(max_examples=150, deadline=None)
    @given(
        g=coefficient_grids(),
        # 1 to 20 cells split the ascii and ppm grids into row blocks; CSV blocks are a
        # quarter as large, so multiples of 4 also give CSV blocks of several rows
        block_cells=st.integers(1, 20) | st.integers(2, 40).map(lambda k: 4 * k),
        size=st.integers(1, 4),
    )
    def test_random_grids(self, g, block_cells, size):
        # small blocks split the grid into several row blocks with a short last one
        with mock.patch.object(render, "_BLOCK_CELLS", block_cells):
            assert_matches_reference(g, [size])

    @pytest.mark.parametrize("block_cells", [1, 10, 16, render._BLOCK_CELLS])
    def test_edge_grid(self, block_cells):
        with mock.patch.object(render, "_BLOCK_CELLS", block_cells):
            assert_matches_reference(edge_grid())

    def test_random_amplitude_grid(self):
        # on 56 of these cells amp * amp rounds differently from libm's pow(amp, 2)
        rng = np.random.default_rng(20)
        shape = (256, 256)
        a = rng.random(shape) * np.exp(1j * rng.uniform(-math.pi, math.pi, shape))
        b = rng.random(shape) * np.exp(1j * rng.uniform(-math.pi, math.pi, shape))
        assert_matches_reference(Grid(a, b), [1])


def redone_cells(render_frame, g: Grid) -> list[tuple[float, float]]:
    """The (im, re) of each cell whose phase ``render_frame(g)`` takes from ``math.atan2``."""
    with mock.patch.object(math, "atan2", wraps=math.atan2) as atan2:
        render_frame(g)
    return [call.args for call in atan2.call_args_list]


def cells_around(phases, amps) -> list[complex]:
    """A cell at every amplitude and at each phase and 3 ulps either side of it."""
    return [amp * complex(math.cos(q), math.sin(q))
            for amp in amps for p in phases for q in _ulps_around(p, 3)]


def libm_hue(c: complex) -> float:
    """The hue sextant coordinate h of a cell, as the reference renderer computes it."""
    return math.degrees(cmath.phase(c)) % 360.0 / 60.0


def grid_of(cells: list[complex]) -> Grid:
    a = np.array(cells + [0j] * (-len(cells) % 7)).reshape(-1, 7)
    return Grid(a, np.zeros_like(a))


class TestPhaseFallback:
    """Cells near an octant, sextant or channel rounding edge take their phase from libm's atan2."""

    AMPS = [1.0, 0.95, 0.6, 0.3]

    def assert_redone(self, render_frame, cells):
        g = grid_of(cells)
        assert {(c.imag, c.real) for c in cells} <= set(redone_cells(render_frame, g))
        assert_matches_reference(g)

    @pytest.mark.parametrize("k", range(-4, 4))
    def test_octant_edges(self, k):
        edge = (2 * k + 1) / 2
        cells = cells_around([edge * math.pi / 4], self.AMPS)
        offsets = [cmath.phase(c) * 4.0 / math.pi - edge for c in cells]
        assert min(offsets) <= 0.0 <= max(offsets)
        self.assert_redone(render_ascii, cells)

    @pytest.mark.parametrize("k", range(-3, 4))
    def test_sextant_edges(self, k):
        # k = 0 is the 0/360 wrap and k = +-3 the +-pi branch cut; around pi both
        # signs give octant 4, so the ascii frame has no edge there
        cells = cells_around([k * math.pi / 3], self.AMPS)
        offsets = [libm_hue(c) - round(libm_hue(c)) for c in cells]
        assert min(offsets) <= 0.0 <= max(offsets)
        self.assert_redone(render_ppm, cells)

    @pytest.mark.parametrize("sextant", range(6))
    def test_channel_half_points(self, sextant):
        cells = []
        for amp in self.AMPS:
            v = amp**2
            for share in (0.1, 0.5, 0.9):
                # 255 * v * f on the half-integer nearest share * 255 * v
                half = math.floor(share * 255 * v) + 0.5
                deg = 60 * (sextant + half / (255 * v))
                cells += cells_around([math.radians(deg - 360 if deg > 180 else deg)], [amp])
        for c in cells:
            h = libm_hue(c)
            # far inside the margin of the half-integer
            assert abs(255 * (min(abs(c) ** 2, 1.0) * (h - math.floor(h))) % 1.0 - 0.5) < 1e-11
        self.assert_redone(render_ppm, cells)

    def test_benchmark_frames_rarely_fall_back(self):
        spec = importlib.util.spec_from_file_location(
            "bench_gen", Path(__file__).resolve().parent.parent / "benchmarks" / "gen.py")
        gen = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(gen)
        g = parse_pattern(gen.frames_pattern(0)).grid
        redone = cells = 0
        for _ in range(3):
            for render_frame in (render_ascii, render_ppm):
                redone += len(redone_cells(render_frame, g))
                cells += g.width * g.height
            g = step_grid(g)
        # 52 of 6.3M cells over every variant when this was written
        assert redone < 0.01 * cells


class TestGoldenDigests:
    def test_shipped_patterns(self):
        expected = json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))
        assert frame_digests(render_ascii, render_ppm, render_csv) == expected
