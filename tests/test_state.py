from __future__ import annotations

import cmath
import importlib.util
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phasorlife import (
    ALIVE,
    DEAD,
    Boundary,
    CellState,
    Grid,
    PatternDocument,
    PatternError,
    measure_alive_probability,
    normalize,
    parse_pattern,
    serialize_pattern,
    state,
)
import parse_reference
from conftest import PATTERNS_DIR

SQ2 = math.sqrt(2.0)


class TestNormalize:
    def test_pure_scaling(self):
        c = normalize(2 + 0j, 0j)
        assert c == CellState(1 + 0j, 0j)

    def test_symmetric_case(self):
        c = normalize(1 + 0j, 1 + 0j)
        assert abs(c.a - 1 / SQ2) < 1e-12
        assert abs(c.b - 1 / SQ2) < 1e-12

    def test_zero_norm_gives_dead_cell(self):
        assert normalize(0j, 0j) == DEAD

    def test_idempotent(self):
        c = normalize(0.3 + 0.4j, 0.5 - 0.7j)
        c2 = normalize(c.a, c.b)
        assert abs(c2.a - c.a) < 1e-12
        assert abs(c2.b - c.b) < 1e-12

    def test_preserves_phases(self):
        c = normalize(2j, -2 + 0j)
        assert abs(c.a - 1j / SQ2) < 1e-12
        assert abs(c.b + 1 / SQ2) < 1e-12


class TestMeasure:
    @pytest.mark.parametrize(
        "cell,expected",
        [(ALIVE, 1.0), (DEAD, 0.0), (CellState(1 / SQ2 + 0j, 1 / SQ2 + 0j), 0.5)],
    )
    def test_examples(self, cell, expected):
        assert measure_alive_probability(cell) == pytest.approx(expected, abs=1e-12)

    def test_probability_completeness(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            raw_a = complex(rng.normal(), rng.normal())
            raw_b = complex(rng.normal(), rng.normal())
            c = normalize(raw_a, raw_b)
            assert measure_alive_probability(c) + abs(c.b) ** 2 == pytest.approx(1.0, abs=1e-9)


class TestGrid:
    def test_dead_grid(self):
        g = Grid.dead(3, 2)
        assert g.width == 3 and g.height == 2
        assert all(c == DEAD for c in g.cells())

    def test_from_cells_roundtrip(self):
        cells = [ALIVE, DEAD, DEAD, ALIVE, DEAD, ALIVE]
        g = Grid.from_cells(3, 2, cells)
        assert g.cells() == cells
        assert g.cell(0, 0) == ALIVE
        assert g.cell(0, 1) == ALIVE

    def test_from_cells_length_mismatch(self):
        with pytest.raises(ValueError):
            Grid.from_cells(2, 2, [ALIVE])

    def test_cell_out_of_bounds(self):
        g = Grid.dead(2, 2)
        with pytest.raises(IndexError):
            g.cell(2, 0)

    def test_equality_and_repr(self):
        g = Grid.dead(3, 2, Boundary.TORUS)
        assert g == Grid.dead(3, 2, Boundary.TORUS)
        assert g != Grid.dead(3, 2)
        assert g.__eq__("grid") is NotImplemented
        assert g != "grid"
        assert repr(g) == "Grid(3x2, torus)"

    def test_immutable_arrays(self):
        g = Grid.dead(2, 2)
        with pytest.raises(ValueError):
            g.a[0, 0] = 1.0

    def test_with_cell_copies(self):
        g = Grid.dead(2, 2)
        g2 = g.with_cell(1, 0, ALIVE)
        assert g.cell(1, 0) == DEAD
        assert g2.cell(1, 0) == ALIVE

    @pytest.mark.parametrize("x,y", [(2, 0), (0, 2), (-1, 0), (0, -1)])
    def test_with_cell_out_of_bounds(self, x, y):
        with pytest.raises(IndexError, match="out of bounds"):
            Grid.dead(2, 2).with_cell(x, y, ALIVE)

    @pytest.mark.parametrize("a,b", [
        ([1, 0], [0, 1]),  # 1-D
        (np.zeros((1, 1, 1)), np.ones((1, 1, 1))),  # 3-D
        (np.zeros((2, 2)), np.ones((2, 3))),  # unequal shapes
        (np.zeros((2, 2)), np.ones((2, 2, 1))),
    ])
    def test_rejects_arrays_that_are_not_2d_with_equal_shapes(self, a, b):
        with pytest.raises(ValueError, match="2-D with equal shapes"):
            Grid(a, b)

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
    def test_rejects_an_empty_grid(self, shape):
        with pytest.raises(ValueError, match="positive"):
            Grid(np.zeros(shape), np.ones(shape))

    @pytest.mark.parametrize("value", [
        complex(math.nan, 0.0), complex(0.0, math.nan), complex(math.inf, 0.0),
        complex(0.0, -math.inf), complex(math.nan, math.inf),
    ])
    def test_rejects_non_finite_coefficients(self, value):
        for a, b in (([[value]], [[1]]), ([[0, 1]], [[1, value]])):
            with pytest.raises(ValueError, match="finite"):
                Grid(a, b)
        with pytest.raises(ValueError, match="finite"):
            Grid.dead(3, 3).with_cell(1, 1, CellState(value, 0j))
        with pytest.raises(ValueError, match="finite"):
            Grid.from_cells(1, 1, [CellState(1 + 0j, value)])

    def test_rejects_a_boundary_that_is_not_a_boundary(self):
        # a keyword string stepped as fixed-dead: a 3x3 torus of live cells kept total 4.0
        with pytest.raises(ValueError, match="Boundary"):
            Grid(np.ones((3, 3)), np.zeros((3, 3)), "torus")
        with pytest.raises(ValueError, match="Boundary"):
            Grid.dead(3, 3).with_boundary("torus")

    def test_with_boundary_shares_the_arrays(self):
        g = Grid.dead(3, 2)
        torus = g.with_boundary(Boundary.TORUS)
        assert torus.boundary is Boundary.TORUS and g.boundary is Boundary.FIXED_DEAD
        assert np.shares_memory(torus.a, g.a) and np.shares_memory(torus.b, g.b)
        assert not torus.a.flags.writeable and not torus.b.flags.writeable
        assert torus.with_boundary(Boundary.FIXED_DEAD) == g

    def test_adopt_skips_the_check(self):
        # the steppers hand their fresh results over unchecked
        a = np.array([[complex(math.nan, 0.0)]])
        g = Grid._adopt(a, np.ones((1, 1), complex), Boundary.TORUS)
        assert g.a is a and np.isnan(g.a[0, 0])
        assert not g.a.flags.writeable


class TestParse:
    def make(self, rows, boundary="fixed", header_extra=""):
        w = len(rows[0].split())
        return (
            f"version 1\nsize {w} {len(rows)}\nboundary {boundary}\ncells\n"
            + "\n".join(rows)
            + "\n"
        )

    def test_glyph_tokens(self):
        doc = parse_pattern(self.make(["> < ^ v ."]))
        cells = doc.grid.cells()
        assert cells[0].a == 1
        assert cells[1].a == -1
        assert cells[2].a == 1j
        assert cells[3].a == -1j
        assert cells[4] == DEAD
        assert all(c.b == 0 for c in cells[:4])

    def test_amp_deg_token(self):
        doc = parse_pattern(self.make(["0.6@90"]))
        c = doc.grid.cell(0, 0)
        assert abs(c.a - 0.6j) < 1e-9
        assert abs(c.b - 0.8) < 1e-9

    def test_negative_degrees(self):
        doc = parse_pattern(self.make(["1@-90"]))
        assert abs(doc.grid.cell(0, 0).a + 1j) < 1e-9

    def test_comments_and_blanks_ignored(self):
        text = "# a comment\n\nversion 1\n# another\nsize 1 1\nboundary torus\ncells\n.\n"
        doc = parse_pattern(text)
        assert doc.grid.boundary is Boundary.TORUS

    def test_metadata_captured(self):
        text = "# name: demo\n# comment: hello there\nversion 1\nsize 1 1\nboundary fixed\ncells\n.\n"
        doc = parse_pattern(text)
        assert doc.name == "demo"
        assert doc.comment == "hello there"

    def test_amplitude_out_of_range(self):
        with pytest.raises(PatternError, match="amplitude"):
            parse_pattern(self.make(["1.5@0"]))

    def test_degrees_out_of_range(self):
        with pytest.raises(PatternError, match="phase"):
            parse_pattern(self.make(["0.5@360"]))

    def test_unknown_token_reports_line_and_column(self):
        with pytest.raises(PatternError) as err:
            parse_pattern("version 1\nsize 2 1\nboundary fixed\ncells\n. x\n")
        assert err.value.line == 5
        assert err.value.column == 3

    def test_row_length_mismatch(self):
        with pytest.raises(PatternError, match="row length mismatch"):
            parse_pattern("version 1\nsize 3 1\nboundary fixed\ncells\n. .\n")

    def test_unknown_boundary(self):
        with pytest.raises(PatternError, match="unknown boundary keyword"):
            parse_pattern("version 1\nsize 1 1\nboundary moebius\ncells\n.\n")

    @pytest.mark.parametrize("version", ["2", "\u00b2"])
    def test_bad_version(self, version):
        # '\u00b2' passes str.isdigit but not int(): it must still be a PatternError
        with pytest.raises(PatternError, match="version"):
            parse_pattern(f"version {version}\nsize 1 1\nboundary fixed\ncells\n.\n")

    @pytest.mark.parametrize("header,message", [
        ("size 0_2 2", "size values must be integers"),
        ("size +2 2", "size values must be integers"),
        ("size \u0662 2", "size values must be integers"),  # Arabic-Indic two
        ("size \uff12 2", "size values must be integers"),  # fullwidth two
        ("size 2 " + "1" * 5000, "size values must be integers"),  # past int()'s digit limit
        ("size 0 2", "size values must be positive"),
        ("size 2 -3", "size values must be positive"),
    ])
    def test_size_values_are_ascii_integers(self, header, message):
        text = f"version 1\n{header}\nboundary fixed\ncells\n. .\n. .\n"
        with pytest.raises(PatternError, match=message) as err:
            parse_pattern(text)
        assert err.value.line == 2
        assert_parses_like_reference(text)

    @pytest.mark.parametrize("line,header,message", [
        (1, "versio 1", "expected 'version', got 'versio'"),
        (2, "size 1", "malformed size header; expected 'size <width> <height>'"),
        (3, "boundary", "malformed boundary header; expected 'boundary fixed|torus'"),
        (4, "cell", "expected 'cells' header"),
    ], ids=["version", "size", "boundary", "cells"])
    def test_malformed_header_line(self, line, header, message):
        headers = ["version 1", "size 1 1", "boundary fixed", "cells"]
        headers[line - 1] = header
        text = "\n".join([*headers, ".\n"])
        with pytest.raises(PatternError) as err:
            parse_pattern(text)
        assert str(err.value) == f"{message} (line {line})"
        assert err.value.line == line
        assert_parses_like_reference(text)

    @pytest.mark.parametrize("version,message", [
        ("\u0661", "malformed version header"),  # Arabic-Indic one
        ("+1", "malformed version header"),
        ("001", None),
        ("0" * 5000 + "1", None),  # past int()'s digit limit
        ("0" * 5000 + "2", "unsupported pattern version 2"),
        ("00", "unsupported pattern version 0"),
    ])
    def test_version_is_an_ascii_integer(self, version, message):
        text = f"version {version}\nsize 1 1\nboundary fixed\ncells\n.\n"
        assert_parses_like_reference(text)
        if message is None:
            assert parse_pattern(text).grid == Grid.dead(1, 1)
        else:
            with pytest.raises(PatternError, match=message):
                parse_pattern(text)

    def test_missing_rows(self):
        with pytest.raises(PatternError, match="unexpected end"):
            parse_pattern("version 1\nsize 1 2\nboundary fixed\ncells\n.\n")

    def test_trailing_garbage(self):
        with pytest.raises(PatternError, match="unexpected content"):
            parse_pattern("version 1\nsize 1 1\nboundary fixed\ncells\n.\n>\n")


class TestSerialize:
    def test_glyphs_where_exact(self):
        g = Grid.from_cells(8, 1, [DEAD, ALIVE, CellState(-1 + 0j, 0j),
                                   CellState(1j, 0j), CellState(-1j, 0j),
                                   CellState(complex(-0.0, 0.0), 1 + 0j),
                                   CellState(complex(1, -0.0), 0j),
                                   CellState(complex(-0.0, -1), 0j)])
        text = serialize_pattern(PatternDocument(grid=g))
        assert text.splitlines()[-1] == ". > < ^ v . > v"

    @pytest.mark.parametrize("value", [
        *(f"two{brk}lines" for brk in ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e",
                                       "\x85", "\u2028", "\u2029"]),
        "trailing\n", " padded", "padded ", "\tpadded",
    ])
    def test_rejects_a_line_break_in_name_or_comment(self, value):
        # such text would not parse back: a break ends the comment line, and the parser strips it
        g = Grid.dead(1, 1)
        with pytest.raises(ValueError, match="must be one line without surrounding whitespace"):
            serialize_pattern(PatternDocument(grid=g, name=value))
        with pytest.raises(ValueError, match="must be one line without surrounding whitespace"):
            serialize_pattern(PatternDocument(grid=g, comment=value))

    def test_empty_name_is_written_as_absent(self):
        doc = parse_pattern("# name:\nversion 1\nsize 1 1\nboundary fixed\ncells\n.\n")
        assert doc.name == ""
        assert serialize_pattern(doc) == "version 1\nsize 1 1\nboundary fixed\ncells\n.\n"

    @pytest.mark.parametrize("a", [2 + 0j, 1 + 1e-8])
    def test_rejects_an_amplitude_over_one(self, a):
        # the token would be clamped to 1@0, which parses back more than 1e-9 away
        with pytest.raises(ValueError, match="exceeds 1"):
            serialize_pattern(PatternDocument(grid=Grid([[a]], [[0j]])))

    def test_clamps_an_amplitude_an_ulp_over_one(self):
        a = complex(math.nextafter(1.0, 2.0), 0.0)
        text = serialize_pattern(PatternDocument(grid=Grid([[a]], [[0j]])))
        assert abs(parse_pattern(text).grid.cell(0, 0).a - a) < 1e-9

    def test_amp_deg_fallback(self):
        c = normalize(0.5 * cmath.exp(1j * 0.7), 0.9j)
        g = Grid.from_cells(1, 1, [c])
        text = serialize_pattern(PatternDocument(grid=g))
        token = text.splitlines()[-1]
        assert "@" in token
        doc = parse_pattern(text)
        assert abs(doc.grid.cell(0, 0).a - c.a) < 1e-9

    def test_roundtrip_random_grids(self):
        rng = np.random.default_rng(42)
        for trial in range(1000):
            w = int(rng.integers(1, 6))
            h = int(rng.integers(1, 6))
            r = rng.random((h, w))
            pa = rng.uniform(-np.pi, np.pi, (h, w))
            pb = rng.uniform(-np.pi, np.pi, (h, w))
            a = r * np.exp(1j * pa)
            b = np.sqrt(1 - r * r) * np.exp(1j * pb)
            boundary = Boundary.TORUS if trial % 2 else Boundary.FIXED_DEAD
            g = Grid(a, b, boundary)
            doc2 = parse_pattern(serialize_pattern(PatternDocument(grid=g)))
            assert doc2.grid.boundary is boundary
            assert np.max(np.abs(doc2.grid.a - g.a)) < 1e-9

    def test_metadata_roundtrip(self):
        g = Grid.dead(1, 1)
        doc = PatternDocument(grid=g, name="x", comment="y")
        doc2 = parse_pattern(serialize_pattern(doc))
        assert (doc2.name, doc2.comment) == ("x", "y")


# Tokens the format accepts, including the edges of the amplitude and phase
# ranges, signed zeros, exponents and digit-group underscores.
EDGE_TOKENS = [
    ".", ">", "<", "^", "v",
    "0@0", "-0@0", "0@-0", "-0.0@-0.0", "1@0", "1@-0", "1e0@0", "5E-1@9e1", "0.5_0@1",
    "1_0e-1@1_2.5", f"{math.nextafter(1.0, 0.0)!r}@0", f"0.5@{math.nextafter(360.0, 0.0)!r}",
    f"0.5@{-math.nextafter(360.0, 0.0)!r}", f"1@{math.nextafter(360.0, 0.0)!r}", "1@-358.8923",
    "0.6@90", "5e-324@0", "0.3@1e-320", "+0.5@+45", "0.50@3.0", "1e-3@90",
]
# Tokens the format rejects, one of each kind of error.
BAD_TOKENS = [
    "x", "o", "*", "1", "..", ">>", "@", "@0", "0.5@", "nan@0", "0.5@nan", "inf@0",
    "0.5@inf", "-inf@0", "0.5@-inf", f"{math.nextafter(1.0, 2.0)!r}@0", "1.5@0", "-1e-300@0",
    "0.5@360", "0.5@-360", "1.5@360", "0.5@@1", "0.5@1@2", "_1@0", "0_.5@1", "0.5@1_", "0x1p-1@0",
]
# Separators that str.split() and the reference's \S+ regex both split rows on,
# and line breaks, which also split lines.
SEPARATORS = [" ", " ", "  ", "\t", "\xa0", "\u2003", "\u3000", "\x1f"]
LINE_BREAKS = ["\v", "\f", "\x1c", "\x85", "\u2028"]

good_tokens = st.one_of(
    st.sampled_from(EDGE_TOKENS),
    st.tuples(st.floats(0.0, 1.0), st.floats(-360.0, 360.0, exclude_min=True, exclude_max=True))
    .map(lambda pair: f"{pair[0]!r}@{pair[1]!r}"),
    st.tuples(st.floats(0.0, 1.0), st.integers(-359, 359))
    .map(lambda pair: f"{pair[0]:.3e}@{pair[1]}"),
)
bad_tokens = st.one_of(
    st.sampled_from(BAD_TOKENS),
    st.tuples(st.floats(-0.5, 1.5), st.floats(allow_nan=True, allow_infinity=True))
    .map(lambda pair: f"{pair[0]!r}@{pair[1]!r}"),
)


@st.composite
def documents(draw):
    """.sqp text with valid cells, sometimes a bad token or a structural error."""
    width, height = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    lines = ["version 1", f"size {width} {height}",
             f"boundary {draw(st.sampled_from(['fixed', 'torus']))}", "cells"]
    tokens = good_tokens
    if draw(st.booleans()):
        tokens = st.one_of(good_tokens, good_tokens, good_tokens, bad_tokens)
    separators = st.sampled_from(SEPARATORS)
    if draw(st.integers(0, 4)) == 0:
        separators = st.sampled_from(SEPARATORS * 4 + LINE_BREAKS)
    sizes = st.sampled_from([0] * 10 + [-1, 1])  # rows missing or extra, tokens too few or many
    for _ in range(max(0, height + draw(sizes))):
        length = width + draw(sizes)
        row = draw(st.lists(tokens, min_size=length, max_size=length))
        seps = draw(st.lists(separators, min_size=len(row) + 1, max_size=len(row) + 1))
        lead = seps.pop() if draw(st.booleans()) else ""
        lines.append(lead + "".join(t + s for t, s in zip(row, seps)))
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", "# note", "   "])))
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\n# end\n"]))


# What the byte path may meet in place of one single space: each but " " sends the
# whole document down the token path, the two line breaks split the row, and "."
# joins two glyphs into one token.
GLYPH_ROW_SEPARATORS = [" ", "  ", "\t", "\u3000", "\x85", "\xa0", "\x1c", "."]
# What may stand in place of one glyph; None drops the row's last token.
GLYPH_ROW_BREAKERS = ["x", "\u2192", "0.5@10", "2@0", None]


@st.composite
def glyph_row_documents(draw):
    """Glyph rows one space apart, sometimes with one other separator or one bad token."""
    width, height = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    grid = draw(st.lists(st.lists(st.sampled_from(list(state._GLYPH_CELLS)),
                                  min_size=width, max_size=width),
                         min_size=height, max_size=height))
    # gaps[y][i] precedes token i of row y; gaps[y][width] follows the last one
    gaps = [[""] + [" "] * (width - 1) + [""] for _ in range(height)]
    if draw(st.booleans()):
        y, i = draw(st.integers(0, height - 1)), draw(st.integers(0, width))
        gaps[y][i] = draw(st.sampled_from(GLYPH_ROW_SEPARATORS))  # at 0 or width: lead, trail
    if draw(st.booleans()):
        y, x = draw(st.integers(0, height - 1)), draw(st.integers(0, width - 1))
        token = draw(st.sampled_from(GLYPH_ROW_BREAKERS))
        if token is None:
            del grid[y][-1], gaps[y][-2]
        else:
            grid[y][x] = token
    rows = ["".join(map("".join, zip(gap, row + [""]))) for gap, row in zip(gaps, grid)]
    return header(width, height) + "\n".join(rows) + "\n"


def parse_outcome(parse, text):
    """Grid bits and metadata, or the error's type, message, line and column."""
    try:
        doc = parse(text)
    except Exception as err:
        return (type(err), str(err), getattr(err, "line", None), getattr(err, "column", None))
    g = doc.grid
    return (g.a.shape, g.boundary, g.a.tobytes(), g.b.tobytes(), doc.name, doc.comment)


def assert_parses_like_reference(text):
    assert parse_outcome(parse_pattern, text) == parse_outcome(parse_reference.parse_pattern, text)


def header(width, height):
    return f"version 1\nsize {width} {height}\nboundary torus\ncells\n"


class TestMatchesReference:
    """``parse_pattern`` gives the per-token reference's bits or its error."""

    @settings(max_examples=400, deadline=None)
    @given(text=documents())
    def test_random_documents(self, text):
        assert_parses_like_reference(text)

    @settings(max_examples=400, deadline=None)
    @given(text=glyph_row_documents())
    def test_glyph_row_documents(self, text):
        assert_parses_like_reference(text)

    def test_down_glyph_keeps_its_signed_zero(self):
        a = parse_pattern(header(2, 1) + "v .\n").grid.a
        assert a[0, 0].tobytes() == np.complex128(complex(-0.0, -1.0)).tobytes()
        assert math.copysign(1.0, a[0, 0].real) == -1.0

    def test_down_glyph_keeps_its_signed_zero_on_the_token_path(self, monkeypatch):
        # two spaces keep the row off the byte path; the token path takes v from _GLYPH_A too
        calls = []
        decode = state._decode_cells
        monkeypatch.setattr(state, "_decode_cells", lambda *args: calls.append(1) or decode(*args))
        text = header(2, 1) + "v  .\n"
        a = parse_pattern(text).grid.a
        assert calls == [1]
        assert a[0, 0].tobytes() == np.complex128(complex(-0.0, -1.0)).tobytes()
        assert_parses_like_reference(text)

    @pytest.mark.parametrize("token", EDGE_TOKENS + BAD_TOKENS)
    def test_single_tokens(self, token):
        # each token alone, and twice after a glyph: both copies are decoded where they stand
        assert_parses_like_reference(header(1, 1) + token + "\n")
        assert_parses_like_reference(header(3, 1) + f". {token}  {token}\n")

    def test_edge_tokens_decode_exactly(self):
        text = header(len(EDGE_TOKENS), 2) + " ".join(EDGE_TOKENS) + "\n"
        text += " ".join(reversed(EDGE_TOKENS)) + "\n"
        assert_parses_like_reference(text)

    @pytest.mark.parametrize("rows,error", [
        (". .\n. x .\n", "row length mismatch"),  # short row first
        (". x\n. . .\n", "unknown token"),  # bad token, then a long row
        (". .\n. nan@0\n", "amplitude out of"),  # bad token, then a missing row
        (". .\n. .\n. .\n", "unexpected content"),  # extra row
        (". 2@0\n. .\n. .\n", "amplitude out of"),  # bad token, then trailing content
        (". .\n. .\n. 2@0\n", "unexpected content"),  # trailing rows are not decoded
        ("x .\n> y\n> >\n", "unknown token 'x'"),  # first of two bad tokens
        ("> y\nx x\n. .\n", "unknown token 'y'"),
    ])
    def test_first_error_in_file_order(self, rows, error):
        text = header(2, 2) + rows
        assert_parses_like_reference(text)
        with pytest.raises(PatternError, match=error):
            parse_pattern(text)

    def test_bad_token_location(self):
        # the column counts every separator before the token, wide ones included
        text = header(3, 2) + "0.5@10 .  >\n >\t0.5@10\u3000 2@0\n"
        with pytest.raises(PatternError) as err:
            parse_pattern(text)
        assert (err.value.line, err.value.column) == (6, 12)
        assert_parses_like_reference(text)

    @pytest.mark.parametrize("name", sorted(p.name for p in PATTERNS_DIR.glob("*.sqp")))
    def test_shipped_patterns(self, name):
        assert_parses_like_reference((PATTERNS_DIR / name).read_text(encoding="utf-8"))

    @pytest.mark.parametrize("generator", ["frames_pattern", "soup_pattern"])
    def test_benchmark_inputs(self, generator):
        spec = importlib.util.spec_from_file_location(
            "bench_gen", PATTERNS_DIR.parent / "benchmarks" / "gen.py")
        gen = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(gen)
        assert_parses_like_reference(getattr(gen, generator)(0))


class TestBatchDecode:
    """Valid ``amp@deg`` tokens are decoded in one batch; checked one at a time only on an error."""

    def document(self, bad_token=None):
        # a 64x64 torus of about 4,000 distinct tokens, the edge tokens first
        rng = np.random.default_rng(11)
        tokens = list(EDGE_TOKENS)
        while len(tokens) < 64 * 64:
            amp, deg = float(rng.random()), float(rng.uniform(-359.5, 359.5))
            tokens.append(f"{amp!r}@{deg!r}" if len(tokens) % 3 else f"{amp:.4e}@{deg:.2f}")
        if bad_token is not None:
            tokens[64 * 62 + 40] = bad_token
        assert len(set(tokens)) > 4000
        rows = (" ".join(tokens[i:i + 64]) for i in range(0, len(tokens), 64))
        return header(64, 64) + "\n".join(rows) + "\n"

    def count_token_checks(self, monkeypatch):
        calls = []
        check = state._token_error
        monkeypatch.setattr(state, "_token_error", lambda t: calls.append(t) or check(t))
        return calls

    def test_valid_document_decodes_no_token_alone(self, monkeypatch):
        calls = self.count_token_checks(monkeypatch)
        assert_parses_like_reference(self.document())
        assert calls == []

    @pytest.mark.parametrize("token", ["0.5@inf", "nan@0", "1.5@0", "0.5@360", "x", "0.5@@1"])
    def test_bad_token_after_thousands_of_valid_ones(self, monkeypatch, token):
        calls = self.count_token_checks(monkeypatch)
        text = self.document(token)
        assert_parses_like_reference(text)
        with pytest.raises(PatternError) as err:
            parse_pattern(text)
        assert err.value.line == 5 + 62 and token in str(err.value)  # rows start on line 5
        assert calls[-1] == token

    def test_repeated_token_then_a_bad_one_is_checked_in_file_order(self, monkeypatch):
        # one amp@deg token thousands of times among glyphs, a bad token near the end
        calls = self.count_token_checks(monkeypatch)
        rng = np.random.default_rng(3)
        tokens = np.where(rng.random(64 * 64) < 0.5, "0.5@90", ".").tolist()
        tokens[64 * 63 + 50] = "0.5@360"
        repeats = tokens[:64 * 63 + 50].count("0.5@90")
        assert repeats > 1000
        rows = (" ".join(tokens[i:i + 64]) for i in range(0, len(tokens), 64))
        text = header(64, 64) + "\n".join(rows) + "\n"
        assert_parses_like_reference(text)
        calls.clear()
        with pytest.raises(PatternError) as err:
            parse_pattern(text)
        column = sum(len(token) + 1 for token in tokens[64 * 63:64 * 63 + 50]) + 1
        assert (err.value.line, err.value.column) == (5 + 63, column)
        # every amp@deg token before the bad one is checked, once each, in file order
        assert calls == ["0.5@90"] * repeats + ["0.5@360"]

    @pytest.mark.parametrize(
        "token", [t for t in EDGE_TOKENS + BAD_TOKENS if t not in state._GLYPH_CELLS])
    def test_batch_refuses_exactly_the_tokens_the_check_names(self, token):
        # _decode_cells reads the batch's coefficients whenever the check names no
        # token, so a token only one of them refuses would slip through or crash
        refused = state._decode_phasors(["0.6@90", token, "1@0"]) is None
        assert refused == (state._token_error(token) is not None) == (token in BAD_TOKENS)


class TestGlyphBlock:
    """Rows of glyphs one space apart are read as bytes, without the token path."""

    def document(self, token=None):
        # a 256x256 >/. torus shaped like the soup1024 benchmark input
        rng = np.random.default_rng(7)
        rows = np.where(rng.random((256, 256)) < 0.35, ">", ".").tolist()
        if token is not None:
            rows[200][100] = token
        return header(256, 256) + "\n".join(map(" ".join, rows)) + "\n"

    def test_glyph_torus_skips_the_token_path(self, monkeypatch):
        text = self.document()
        expected = parse_outcome(parse_reference.parse_pattern, text)

        def refuse(*args):
            raise AssertionError("token path taken")

        monkeypatch.setattr(state, "_decode_cells", refuse)
        assert parse_outcome(parse_pattern, text) == expected

    def test_one_phasor_token_takes_the_token_path(self, monkeypatch):
        calls = []
        decode = state._decode_cells
        monkeypatch.setattr(state, "_decode_cells", lambda *args: calls.append(1) or decode(*args))
        assert_parses_like_reference(self.document("0.5@10"))
        assert calls == [1]
