"""Cell and grid value types, normalization, and the .sqp pattern file format.

A cell is a pair of complex coefficients (a, b) with |a|^2 + |b|^2 = 1; |a|^2
is the probability of reading the cell as alive. Grids are finite rectangles
with either a fixed-dead or toroidal boundary. Pattern files are small text
documents (extension ``.sqp``) whose grammar is documented in the README.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass
from enum import Enum
from itertools import compress, repeat
from operator import itemgetter, mul
from typing import Iterable, Sequence

import numpy as np

NORM_TOL = 1e-9
ZERO_NORM = 1e-9


class Boundary(Enum):
    """How off-grid neighbors are treated."""

    FIXED_DEAD = "fixed"
    TORUS = "torus"


@dataclass(frozen=True)
class CellState:
    """One cell: complex alive coefficient ``a`` and dead coefficient ``b``."""

    a: complex
    b: complex

    def is_normalized(self) -> bool:
        return abs(abs(self.a) ** 2 + abs(self.b) ** 2 - 1.0) <= NORM_TOL


DEAD = CellState(0j, 1 + 0j)
ALIVE = CellState(1 + 0j, 0j)


def normalize(raw_a: complex, raw_b: complex) -> CellState:
    """Scale a raw coefficient pair to unit norm.

    A pair whose norm falls below ``ZERO_NORM`` (total cancellation) maps to
    the canonical dead cell instead of raising, so steppers stay total.
    """
    n = math.sqrt(abs(raw_a) ** 2 + abs(raw_b) ** 2)
    if n < ZERO_NORM:
        return DEAD
    return CellState(raw_a / n, raw_b / n)


def measure_alive_probability(c: CellState) -> float:
    """Probability of finding the cell alive: |a|^2."""
    return abs(c.a) ** 2


class Grid:
    """Rectangular array of cells plus a boundary policy.

    Coefficients live in two read-only complex arrays indexed ``[y, x]``;
    construction refuses NaN and infinite ones, and a boundary that is not a
    ``Boundary``. Grids are immutable values; steppers and editors return new
    instances.
    """

    __slots__ = ("_a", "_b", "_boundary")

    def __init__(self, a, b, boundary: Boundary = Boundary.FIXED_DEAD) -> None:
        aa = np.array(a, dtype=np.complex128, order="C")
        bb = np.array(b, dtype=np.complex128, order="C")
        if aa.ndim != 2 or aa.shape != bb.shape:
            raise ValueError("coefficient arrays must be 2-D with equal shapes")
        if min(aa.shape) < 1:
            raise ValueError("grid dimensions must be positive")
        # checking the float parts is twice as fast as complex isfinite
        if not (np.isfinite(aa.view(np.float64)).all() and np.isfinite(bb.view(np.float64)).all()):
            raise ValueError("coefficients must be finite")
        if not isinstance(boundary, Boundary):
            raise ValueError(f"boundary must be a Boundary, got {boundary!r}")
        aa.setflags(write=False)
        bb.setflags(write=False)
        self._a = aa
        self._b = bb
        self._boundary = boundary

    @classmethod
    def _adopt(cls, a: np.ndarray, b: np.ndarray, boundary: Boundary) -> "Grid":
        """Grid over equal-shaped 2-D complex128 arrays that nothing writes.

        The arrays are taken without a copy or a check and made read-only.
        """
        a.setflags(write=False)
        b.setflags(write=False)
        g = cls.__new__(cls)
        g._a = a
        g._b = b
        g._boundary = boundary
        return g

    @classmethod
    def dead(cls, width: int, height: int, boundary: Boundary = Boundary.FIXED_DEAD) -> "Grid":
        a = np.zeros((height, width), dtype=np.complex128)
        b = np.ones((height, width), dtype=np.complex128)
        return cls(a, b, boundary)

    @classmethod
    def from_cells(
        cls,
        width: int,
        height: int,
        cells: Sequence[CellState] | Iterable[CellState],
        boundary: Boundary = Boundary.FIXED_DEAD,
    ) -> "Grid":
        cells = list(cells)
        if len(cells) != width * height:
            raise ValueError(f"expected {width * height} cells, got {len(cells)}")
        a = np.array([c.a for c in cells], dtype=np.complex128).reshape(height, width)
        b = np.array([c.b for c in cells], dtype=np.complex128).reshape(height, width)
        return cls(a, b, boundary)

    @property
    def a(self) -> np.ndarray:
        return self._a

    @property
    def b(self) -> np.ndarray:
        return self._b

    @property
    def boundary(self) -> Boundary:
        return self._boundary

    @property
    def width(self) -> int:
        return self._a.shape[1]

    @property
    def height(self) -> int:
        return self._a.shape[0]

    def cell(self, x: int, y: int) -> CellState:
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise IndexError(f"cell ({x}, {y}) out of bounds for {self.width}x{self.height} grid")
        return CellState(complex(self._a[y, x]), complex(self._b[y, x]))

    def cells(self) -> list[CellState]:
        """Row-major list of cell states."""
        flat_a = self._a.ravel()
        flat_b = self._b.ravel()
        return [CellState(complex(x), complex(y)) for x, y in zip(flat_a, flat_b)]

    def with_cell(self, x: int, y: int, cell: CellState) -> "Grid":
        self.cell(x, y)  # IndexError off the grid
        a = self._a.copy()
        b = self._b.copy()
        a[y, x] = cell.a
        b[y, x] = cell.b
        return Grid(a, b, self._boundary)

    def with_boundary(self, boundary: Boundary) -> "Grid":
        if not isinstance(boundary, Boundary):
            raise ValueError(f"boundary must be a Boundary, got {boundary!r}")
        return Grid._adopt(self._a, self._b, boundary)

    def alive_probability(self) -> np.ndarray:
        """Per-cell |a|^2 as a float array indexed [y, x]."""
        # not libm's pow() as in the renderers: classify and measure_burn_rate are
        # pinned to these bits
        return np.abs(self._a) ** 2

    def total_alive_probability(self) -> float:
        return float(self.alive_probability().sum())

    def is_normalized(self) -> bool:
        norms = self.alive_probability() + np.abs(self._b) ** 2
        return bool(np.all(np.abs(norms - 1.0) <= NORM_TOL))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Grid):
            return NotImplemented
        return (
            self._a.shape == other._a.shape
            and self._boundary is other._boundary
            and bool(np.array_equal(self._a, other._a))
            and bool(np.array_equal(self._b, other._b))
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Grid({self.width}x{self.height}, {self._boundary.value})"


@dataclass(frozen=True)
class PatternDocument:
    """A parsed pattern file: grid content plus optional metadata."""

    grid: Grid
    name: str | None = None
    comment: str | None = None


class PatternError(ValueError):
    """Pattern text rejected; carries a 1-based line and, when known, column."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None) -> None:
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column


_GLYPH_CELLS = {
    ".": DEAD,
    ">": CellState(1 + 0j, 0j),
    "<": CellState(-1 + 0j, 0j),
    "^": CellState(1j, 0j),
    "v": CellState(-1j, 0j),
}

_TOKEN_RE = re.compile(r"\S+")
_SIZE_RE = re.compile(r"-?[0-9]+")

# glyph -> index into _GLYPH_A/_GLYPH_B, keyed by token and by byte (255: not a glyph)
_GLYPH_INDEX = {glyph: index for index, glyph in enumerate(_GLYPH_CELLS)}
_GLYPH_CODES = np.full(256, 255, dtype=np.uint8)
_GLYPH_CODES[[ord(glyph) for glyph in _GLYPH_CELLS]] = np.arange(len(_GLYPH_CELLS))
# built from the cells, so v's -1j keeps its signed-zero real part
_GLYPH_A = np.array([cell.a for cell in _GLYPH_CELLS.values()], dtype=np.complex128)
_GLYPH_B = np.array([cell.b for cell in _GLYPH_CELLS.values()], dtype=np.complex128)


def _decode_glyph_rows(
    lines: list[str], width: int, height: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """The a and b coefficients of ``height`` rows of glyphs one space apart, or None.

    Each line must be ``2 * width - 1`` ASCII characters: a glyph at every even
    offset and a single space at every odd one. The rows are read as one byte
    block; anything else, including every error, is left to the token path.
    """
    span = 2 * width - 1
    if len(lines) != height or any(len(line) != span for line in lines):
        return None
    text = "".join(lines)
    if not text.isascii():
        return None
    block = np.frombuffer(text.encode("ascii"), dtype=np.uint8).reshape(height, span)
    codes = _GLYPH_CODES[block[:, ::2]]
    if codes.max() == 255 or (block[:, 1::2] != 0x20).any():
        return None
    return _GLYPH_A[codes], _GLYPH_B[codes]


def _token_error(token: str) -> str | None:
    """Why ``_decode_phasors`` refuses a non-glyph token, or None if it is a good ``amp@deg``."""
    amp_text, at, deg_text = token.partition("@")
    if not at:
        return f"unknown token {token!r}"
    try:
        amp = float(amp_text)
        deg = float(deg_text)
    except ValueError:
        return f"malformed token {token!r}"
    if not 0.0 <= amp <= 1.0:
        return f"amplitude out of [0, 1] in token {token!r}"
    if not -360.0 < deg < 360.0:
        return f"phase out of (-360, 360) degrees in token {token!r}"
    return None


def _decode_phasors(tokens: list[str]) -> tuple[list[complex], np.ndarray] | None:
    """The a and b coefficients of ``amp@deg`` tokens, or None if one is bad.

    Each step of the per-token decode in ``tests/parse_reference.py`` runs over
    the whole list at once, and the ranges are checked before any trig
    (``math.cos(inf)`` raises). The trig stays on libm through ``math``, and
    ``a`` is the interpreter's own ``float * complex``, so every bit is the
    reference's.
    """
    parts = [token.partition("@") for token in tokens]
    try:  # float("") refuses a token without "@"
        amps = list(map(float, map(itemgetter(0), parts)))
        degs = list(map(float, map(itemgetter(2), parts)))
    except ValueError:
        return None
    amp = np.array(amps, dtype=np.float64)
    deg = np.array(degs, dtype=np.float64)
    # NaN fails every comparison, so it is out of range too
    if not (((amp >= 0.0) & (amp <= 1.0)).all() and ((deg > -360.0) & (deg < 360.0)).all()):
        return None
    rads = list(map(math.radians, degs))
    a = list(map(mul, amps, map(complex, map(math.cos, rads), map(math.sin, rads))))
    b = np.sqrt(np.maximum(0.0, 1.0 - amp * amp)).astype(np.complex128)
    return a, b


def _decode_cells(
    tokens: list[str], rows: list[tuple[int, str]], width: int
) -> tuple[np.ndarray, np.ndarray]:
    """The a and b coefficients of each token, decoded where it stands.

    ``rows`` holds the (line number, text) of the rows the tokens came from,
    ``width`` tokens each. Glyphs are gathered from ``_GLYPH_A``/``_GLYPH_B``,
    and the other tokens are decoded in one batch in file order. The batch
    refuses exactly the tokens ``_token_error`` names, so if it refuses, they
    are checked one at a time in file order instead, and the first bad one is
    the first bad token in the file (glyphs are never bad); only then is its
    line and column looked up.
    """
    codes = np.fromiter(map(_GLYPH_INDEX.get, tokens, repeat(255)), np.uint8, len(tokens))
    phasor = codes == 255
    phasors = list(compress(tokens, phasor.tolist()))
    decoded = _decode_phasors(phasors)
    if decoded is None:
        for index, token in zip(np.flatnonzero(phasor).tolist(), phasors):
            message = _token_error(token)
            if message is not None:
                lineno, line = rows[index // width]
                column = [m.start() for m in _TOKEN_RE.finditer(line)][index % width] + 1
                raise PatternError(message, lineno, column)
    # the phasor slots are clipped to the last glyph here and written over below
    a, b = _GLYPH_A.take(codes, mode="clip"), _GLYPH_B.take(codes, mode="clip")
    a[phasor], b[phasor] = decoded
    return a, b


def parse_pattern(text: str) -> PatternDocument:
    """Parse .sqp text into a PatternDocument.

    Grammar: optional comment/blank lines anywhere, then the header lines
    ``version 1``, ``size W H``, ``boundary fixed|torus``, ``cells``, then
    exactly H rows of exactly W whitespace-separated tokens. The header values
    are ASCII decimal integers: ``[0-9]+`` for the version, ``-?[0-9]+`` for
    the size (zero and negative sizes are refused as not positive).

    When the H rows are the last significant lines and each is W glyphs one
    ASCII space apart, with no other character, they are read as one byte
    block. Every other document, every error included, takes the token path:
    ``str.split`` on each row, then ``_decode_cells``.
    """
    name: str | None = None
    comment: str | None = None
    significant: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            body = stripped[1:].strip()
            lowered = body.lower()
            if lowered.startswith("name:") and name is None:
                name = body[5:].strip()
            elif lowered.startswith("comment:") and comment is None:
                comment = body[8:].strip()
            continue
        significant.append((lineno, raw))

    pos = 0

    def next_line(expectation: str) -> tuple[int, str]:
        nonlocal pos
        if pos >= len(significant):
            last = significant[-1][0] if significant else 1
            raise PatternError(f"unexpected end of pattern: expected {expectation}", last)
        entry = significant[pos]
        pos += 1
        return entry

    lineno, line = next_line("'version' header")
    fields = line.split()
    if fields[0] != "version":
        raise PatternError(f"expected 'version', got {fields[0]!r}", lineno)
    if len(fields) != 2 or not (fields[1].isascii() and fields[1].isdigit()):
        raise PatternError("malformed version header", lineno)
    version = fields[1].lstrip("0") or "0"  # int() refuses more than 4,300 digits
    if version != "1":
        raise PatternError(f"unsupported pattern version {version}", lineno)

    lineno, line = next_line("'size' header")
    fields = line.split()
    if len(fields) != 3 or fields[0] != "size":
        raise PatternError("malformed size header; expected 'size <width> <height>'", lineno)
    if not (_SIZE_RE.fullmatch(fields[1]) and _SIZE_RE.fullmatch(fields[2])):
        raise PatternError("size values must be integers", lineno)
    try:
        width = int(fields[1])
        height = int(fields[2])
    except ValueError:  # more digits than int() converts
        raise PatternError("size values must be integers", lineno) from None
    if width < 1 or height < 1:
        raise PatternError("size values must be positive", lineno)

    lineno, line = next_line("'boundary' header")
    fields = line.split()
    if len(fields) != 2 or fields[0] != "boundary":
        raise PatternError("malformed boundary header; expected 'boundary fixed|torus'", lineno)
    try:
        boundary = Boundary(fields[1])
    except ValueError:
        raise PatternError(f"unknown boundary keyword {fields[1]!r}", lineno) from None

    lineno, line = next_line("'cells' header")
    if line.split() != ["cells"]:
        raise PatternError("expected 'cells' header", lineno)

    glyphs = _decode_glyph_rows([line for _, line in significant[pos:]], width, height)
    if glyphs is not None:
        return PatternDocument(grid=Grid(*glyphs, boundary), name=name, comment=comment)

    rows: list[tuple[int, str]] = []
    tokens: list[str] = []
    try:
        for _ in range(height):
            lineno, line = next_line("a cell row")
            fields = line.split()  # str.isspace and regex \s agree on every code point
            if len(fields) != width:
                raise PatternError(
                    f"row length mismatch: expected {width} tokens, got {len(fields)}", lineno
                )
            rows.append((lineno, line))
            tokens += fields
        if pos < len(significant):
            raise PatternError("unexpected content after cell rows", significant[pos][0])
    except PatternError:
        _decode_cells(tokens, rows, width)  # a bad token earlier in the file is reported first
        raise

    a, b = _decode_cells(tokens, rows, width)
    grid = Grid(a.reshape(height, width), b.reshape(height, width), boundary)
    return PatternDocument(grid=grid, name=name, comment=comment)


_CELL_GLYPHS = {cell.a: glyph for glyph, cell in _GLYPH_CELLS.items()}


def _cell_token(a: complex) -> str:
    # dict lookup compares complex keys with ==, so signed zeros find their glyph
    glyph = _CELL_GLYPHS.get(a)
    if glyph is not None:
        return glyph
    amp = abs(a)
    # clamping this far would break the 1e-9 round trip that serialize_pattern promises
    if amp > 1.0 + 1e-9:
        raise ValueError(f"cell amplitude {amp!r} exceeds 1; no token can carry it")
    # amp may exceed 1 by a few ulps on normalized cells; clamp so the token re-parses
    amp = min(amp, 1.0)
    deg = math.degrees(cmath.phase(a))
    return f"{amp:.17g}@{deg:.17g}"


def serialize_pattern(doc: PatternDocument) -> str:
    """Render a PatternDocument back to .sqp text.

    Only the a coefficient of each cell is preserved; b is re-derived as the
    nonnegative real complement on parse. Re-parsing reproduces every a within
    1e-9 (exactly, for glyph tokens). A name or comment holding a line break
    or surrounding whitespace, or a cell with |a| > 1 + 1e-9, raises
    ValueError, since the file could not be read back as it was. An empty name
    or comment is written as absent.
    """
    g = doc.grid
    lines: list[str] = []
    for label, value in (("name", doc.name), ("comment", doc.comment)):
        if value:
            # the parser ends the line at any break and strips the text
            if value.strip().splitlines() != [value]:
                raise ValueError(
                    f"pattern {label} must be one line without surrounding whitespace: {value!r}"
                )
            lines.append(f"# {label}: {value}")
    lines.append("version 1")
    lines.append(f"size {g.width} {g.height}")
    lines.append(f"boundary {g.boundary.value}")
    lines.append("cells")
    for row in g.a.tolist():
        lines.append(" ".join(map(_cell_token, row)))
    return "\n".join(lines) + "\n"
