"""Deterministic renderers: arrow text frames, binary PPM images, CSV dumps.

All three are pure functions of the grid: identical inputs yield identical
bytes, which makes golden-file testing trivial.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .state import Grid

DEAD_PROBABILITY_EPS = 1e-6
STRONG_AMPLITUDE = 0.9

# Phase quantized to the nearest eighth turn; single-stroke arrows mark cells
# with |a| >= 0.9, double-stroke arrows mark partial amplitudes.
STRONG_ARROWS = "→↗↑↖←↙↓↘"
FAINT_ARROWS = "⇒⇗⇑⇖⇐⇙⇓⇘"


@dataclass(frozen=True)
class RenderOptions:
    cell_pixel_size: int = 1

    def __post_init__(self) -> None:
        size = self.cell_pixel_size
        # a float would reach the PPM header as "2.5", and True would pass as 1
        if isinstance(size, bool) or not isinstance(size, numbers.Integral) or size < 1:
            raise ValueError(f"cell_pixel_size must be a positive integer, got {size!r}")


# Cells per row block. Every renderer works one block of rows at a time, so its
# float temporaries and Python lists stay a fixed size whatever the grid size.
_BLOCK_CELLS = 1 << 14

# Code points indexed by octant (0-7 strong, 8-15 faint) or 16 for a dead cell.
_GLYPH_CODES = np.array([ord(ch) for ch in STRONG_ARROWS + FAINT_ARROWS + "."], dtype="<u4")

# Source of each (r, g, b) channel in each hue sextant: 0 -> 0.0, 1 -> v,
# 2 -> q = v * (1 - f), 3 -> t = v * f.
_SEXTANT_CHANNELS = np.array(
    [[1, 3, 0], [2, 1, 0], [0, 1, 3], [0, 2, 1], [3, 0, 1], [1, 0, 2]], dtype=np.intp
)

_CSV_FIELDS = "%.17g,%.17g,%.17g,%.17g,%.17g"


def _row_blocks(g: Grid) -> list[slice]:
    rows = max(1, _BLOCK_CELLS // g.width)
    return [slice(y, min(y + rows, g.height)) for y in range(0, g.height, rows)]


def _amplitude(a: np.ndarray) -> np.ndarray:
    # np.hypot matches the libm hypot() behind abs(complex); np.abs(complex) does not
    return np.hypot(a.real, a.imag)


def _phase(a: np.ndarray) -> np.ndarray:
    # cmath.phase is libm atan2(); np.arctan2 differs from it in the last bit
    im, re = a.imag.ravel().tolist(), a.real.ravel().tolist()
    return np.array(list(map(math.atan2, im, re))).reshape(a.shape)


def _squared(amp: np.ndarray) -> np.ndarray:
    # abs(a) ** 2 is libm pow(); amp * amp and np.power differ from it in the last bit
    squares = map(math.pow, amp.ravel().tolist(), itertools.repeat(2.0))
    return np.array(list(squares)).reshape(amp.shape)


def render_ascii(g: Grid) -> str:
    """One arrow per cell; rows end in newlines."""
    parts = []
    for rows in _row_blocks(g):
        a = g.a[rows]
        amp = _amplitude(a)
        octant = np.rint(_phase(a) * 4.0 / math.pi).astype(np.intp) % 8
        index = np.where(amp >= STRONG_AMPLITUDE, octant, octant + 8)
        index[_squared(amp) < DEAD_PROBABILITY_EPS] = 16
        codes = np.empty((a.shape[0], g.width + 1), dtype="<u4")
        codes[:, :-1] = _GLYPH_CODES[index]
        codes[:, -1] = ord("\n")
        parts.append(codes.tobytes().decode("utf-32-le"))
    return "".join(parts)


def render_ppm(g: Grid, opts: RenderOptions | None = None) -> bytes:
    """Binary P6 image: hue from the phase of a, brightness |a|^2, dead cells black."""
    size = (opts or RenderOptions()).cell_pixel_size
    parts = [f"P6\n{g.width * size} {g.height * size}\n255\n".encode("ascii")]
    for rows in _row_blocks(g):
        a = g.a[rows]
        v = np.minimum(_squared(_amplitude(a)), 1.0)
        h = np.degrees(_phase(a)) % 360.0 / 60.0
        sextant = np.floor(h)
        f = h - sextant
        # v == 0 zeroes all four sources, so dead cells come out black
        sources = np.stack([np.zeros_like(v), v, v * (1.0 - f), v * f], axis=-1)
        channels = _SEXTANT_CHANNELS[sextant.astype(np.intp) % 6]
        rgb = np.rint(255 * np.take_along_axis(sources, channels, axis=-1)).astype(np.uint8)
        parts.append(np.repeat(np.repeat(rgb, size, axis=0), size, axis=1).tobytes())
    return b"".join(parts)


def render_csv(g: Grid) -> str:
    """Row-major cell dump; 17 significant digits round-trip doubles losslessly."""
    # "y" never occurs in the formatted fields, so it can stand in for the row number
    row_template = "".join(f"{x},y,{_CSV_FIELDS}\n" for x in range(g.width))
    parts = ["x,y,re_a,im_a,re_b,im_b,p_alive\n"]
    for rows in _row_blocks(g):
        a, b = g.a[rows], g.b[rows]
        values = np.stack([a.real, a.imag, b.real, b.imag, _squared(_amplitude(a))], axis=-1)
        template = "".join(row_template.replace("y", str(y)) for y in range(rows.start, rows.stop))
        parts.append(template % tuple(values.ravel().tolist()))
    return "".join(parts)
