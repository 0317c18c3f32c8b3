"""Per-token ``.sqp`` parser, the oracle the token-table ``parse_pattern`` must equal.

This is ``parse_pattern`` as it was before the cell section was rewritten: one
``_TOKEN_RE`` scan per row, one ``_parse_token`` call and one ``CellState``
per token, and a ``Grid.from_cells`` round trip. Its header values have
since been narrowed, in step with the parser, to ASCII decimal integers. It
plays the role ``step_cell`` plays for the stepper and ``render_reference.py``
for the renderers: ``tests/test_state.py`` asserts that ``phasorlife.parse_pattern``
gives the same ``a``/``b`` bits, or the same ``PatternError`` (message, line
and column), on every document it tries.
"""

from __future__ import annotations

import math
import re

from phasorlife.state import (
    DEAD,
    Boundary,
    CellState,
    Grid,
    PatternDocument,
    PatternError,
)


_GLYPH_CELLS = {
    ".": DEAD,
    ">": CellState(1 + 0j, 0j),
    "<": CellState(-1 + 0j, 0j),
    "^": CellState(1j, 0j),
    "v": CellState(-1j, 0j),
}

_TOKEN_RE = re.compile(r"\S+")


def _parse_token(token: str, line: int, column: int) -> CellState:
    if token in _GLYPH_CELLS:
        return _GLYPH_CELLS[token]
    if "@" in token:
        amp_text, _, deg_text = token.partition("@")
        try:
            amp = float(amp_text)
            deg = float(deg_text)
        except ValueError:
            raise PatternError(f"malformed token {token!r}", line, column) from None
        if not 0.0 <= amp <= 1.0:
            raise PatternError(f"amplitude out of [0, 1] in token {token!r}", line, column)
        if not -360.0 < deg < 360.0:
            raise PatternError(f"phase out of (-360, 360) degrees in token {token!r}", line, column)
        rad = math.radians(deg)
        a = amp * complex(math.cos(rad), math.sin(rad))
        b = complex(math.sqrt(max(0.0, 1.0 - amp * amp)), 0.0)
        return CellState(a, b)
    raise PatternError(f"unknown token {token!r}", line, column)


def parse_pattern(text: str) -> PatternDocument:
    """Parse .sqp text into a PatternDocument.

    Grammar: optional comment/blank lines anywhere, then the header lines
    ``version 1``, ``size W H``, ``boundary fixed|torus``, ``cells``, then
    exactly H rows of exactly W whitespace-separated tokens.
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
    if not fields or fields[0] != "version":
        raise PatternError(f"expected 'version', got {fields[0]!r}", lineno)
    if len(fields) != 2 or not re.fullmatch(r"[0-9]+", fields[1]):
        raise PatternError("malformed version header", lineno)
    version = fields[1].lstrip("0") or "0"  # int() refuses more than 4,300 digits
    if version != "1":
        raise PatternError(f"unsupported pattern version {version}", lineno)

    lineno, line = next_line("'size' header")
    fields = line.split()
    if len(fields) != 3 or fields[0] != "size":
        raise PatternError("malformed size header; expected 'size <width> <height>'", lineno)
    if not all(re.fullmatch(r"-?[0-9]+", field) for field in fields[1:]):
        raise PatternError("size values must be integers", lineno)
    try:
        width = int(fields[1])
        height = int(fields[2])
    except ValueError:
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

    cells: list[CellState] = []
    for _ in range(height):
        lineno, line = next_line("a cell row")
        matches = list(_TOKEN_RE.finditer(line))
        if len(matches) != width:
            raise PatternError(
                f"row length mismatch: expected {width} tokens, got {len(matches)}", lineno
            )
        for m in matches:
            cells.append(_parse_token(m.group(), lineno, m.start() + 1))

    if pos < len(significant):
        raise PatternError("unexpected content after cell rows", significant[pos][0])

    grid = Grid.from_cells(width, height, cells, boundary)
    return PatternDocument(grid=grid, name=name, comment=comment)
