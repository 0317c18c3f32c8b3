"""Deterministic renderers: arrow text frames, binary PPM images, CSV dumps.

All three are pure functions of the grid: identical inputs yield identical
bytes, which makes golden-file testing trivial.
"""

from __future__ import annotations

import math

import numpy as np

from .state import Grid

DEAD_PROBABILITY_EPS = 1e-6
STRONG_AMPLITUDE = 0.9

# Phase quantized to the nearest eighth turn; single-stroke arrows mark cells
# with |a| >= 0.9, double-stroke arrows mark partial amplitudes.
STRONG_ARROWS = "→↗↑↖←↙↓↘"
FAINT_ARROWS = "⇒⇗⇑⇖⇐⇙⇓⇘"


# Cells per row block. Every renderer works one block of rows at a time, so its
# float temporaries and Python lists stay a fixed size whatever the grid size.
_BLOCK_CELLS = 1 << 14

# Code points indexed by octant (0-7 strong, 8-15 faint) or 16 for a dead cell.
_GLYPH_CODES = np.array([ord(ch) for ch in STRONG_ARROWS + FAINT_ARROWS + "."], dtype="<u4")

# Source of each (r, g, b) channel in each hue sextant (a row of the literal): byte
# 0 -> 0, 1 -> v, 2 -> q = v * (1 - f), 3 -> t = v * f of a cell's little-endian source
# word. Stored by channel, as the bit offset of that byte. Sextant 6 is h = 6.0, the
# 0/360 wrap, and repeats sextant 0.
_CHANNEL_SHIFTS = np.ascontiguousarray(
    8 * np.array([[1, 3, 0], [2, 1, 0], [0, 1, 3], [0, 2, 1], [3, 0, 1], [1, 0, 2], [1, 3, 0]],
                 dtype=np.uint32).T
)

_CSV_HEADER = "x,y,re_a,im_a,re_b,im_b,p_alive\n"

# Bytes per formatted CSV value, the widest '%.17g' of a double: "-2.2250738585072014e-308".
# A value's characters may sit anywhere in its slot; the NUL bytes around them are dropped.
_SLOT = 24


def _digit_quads() -> np.ndarray:
    """ASCII of every 4-digit chunk 0000-9999 as a little-endian ``uint32``.

    Entries 10000-19999 repeat them with trailing '0' characters as NUL bytes,
    for the last nonzero chunk of a number whose trailing zeros ``%g`` drops.
    """
    chunk = np.arange(10_000, dtype=np.uint16)[:, None]
    tens = np.array([1000, 100, 10, 1], dtype=np.uint16)
    chars = (chunk // tens % 10).astype(np.uint8) + np.uint8(ord("0"))
    # digit j is a trailing zero iff the chunk is a multiple of 10 ** (4 - j)
    stripped = np.where(chunk % (tens * 10) == 0, np.uint8(0), chars)
    return np.concatenate([chars, stripped]).view("<u4").ravel()


_QUADS = _digit_quads()


def _fixed_heads() -> np.ndarray:
    """Bytes 0-7 of a fixed-notation slot as a little-endian ``uint64``.

    Indexed by ``(10 * -exp10 + d0) * 2 + (no digit after d0)``: byte 0 is
    left for the sign, then the units digit, the point, the zeros after it,
    a NUL and, below 1, d0. The four digit chunks follow in bytes 8-23.
    """
    heads = np.zeros((5, 10, 2, 8), dtype=np.uint8)
    d0 = np.arange(10, dtype=np.uint8) + np.uint8(ord("0"))
    heads[0, :, :, 1] = d0[:, None]
    heads[0, :, 0, 2] = ord(".")  # with no digit after d0, 2.0 prints as "2"
    heads[1:, :, :, 1] = ord("0")
    heads[1:, :, :, 2] = ord(".")
    for zeros in range(1, 4):
        heads[1 + zeros :, :, :, 2 + zeros] = ord("0")
    heads[1:, :, :, 7] = d0[:, None]
    return heads.view("<u8").ravel()


_FIXED_HEADS = _fixed_heads()

# 10**k is exact in a double for k <= 22; hi + lo is its Veltkamp split for Dekker's product.
_SPLITTER = 2.0**27 + 1.0
_POW10 = np.array([float(10**k) for k in range(23)])
_POW10_HI = _POW10 * _SPLITTER - (_POW10 * _SPLITTER - _POW10)
_POW10_LO = _POW10 - _POW10_HI


def _row_blocks(g: Grid, cells: int) -> list[slice]:
    rows = max(1, cells // g.width)
    return [slice(y, min(y + rows, g.height)) for y in range(0, g.height, rows)]


def _amplitude(a: np.ndarray) -> np.ndarray:
    # np.hypot matches the libm hypot() behind abs(complex); np.abs(complex) does not
    return np.hypot(a.real, a.imag)


# The frames are defined by libm's atan2, which cmath.phase calls, but the renderers only
# quantize the phase, so np.arctan2 takes it for whole blocks. That differs from libm by
# at most 1 ulp at AVX-512 and not at all at numpy's X86_V2 baseline. A cell is redone
# with math.atan2 only where a quantity its phase decides lies within _PHASE_MARGIN of
# that quantity's range from an edge: phase * 4 / pi (range 4) from a half-integer, the
# hue sextant h (range 6) from an integer, the 0/360 wrap included, and 255 * v * f or
# 255 * v * (1 - f) (range 255) from a half-integer. A phase error below 2**-31 rad moves
# none of them that far, so the bytes are libm's while np.arctan2 stays that close to it.
_PHASE_MARGIN = 2.0**-30


def _near(x: np.ndarray, offset: float, scale: float) -> np.ndarray:
    """Where x lies within ``_PHASE_MARGIN * scale`` of ``offset + k`` for an integer k."""
    d = x - offset
    return np.abs(d - np.rint(d)) <= _PHASE_MARGIN * scale


def _by_phase(quantize, a: np.ndarray, *cells: np.ndarray) -> np.ndarray:
    """``quantize(phase, *cells)``'s values, as if the phase of ``a`` came from libm's atan2.

    ``quantize`` works cell by cell and returns its values and the cells near
    an edge; only those are redone, from ``math.atan2``.
    """
    values, unsure = quantize(np.arctan2(a.imag, a.real), *cells)
    redo = np.nonzero(unsure)
    if redo[0].size:
        phase = np.array(list(map(math.atan2, a.imag[redo].tolist(), a.real[redo].tolist())))
        values[redo] = quantize(phase, *(c[redo] for c in cells))[0]
    return values


def _squared(amp: np.ndarray) -> np.ndarray:
    # abs(a) ** 2 is libm pow(), like np.float_power; amp * amp and np.power differ in the last bit
    return np.float_power(amp, 2.0)


def _glyph_index(phase: np.ndarray, amp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index into ``_GLYPH_CODES`` of each cell, and the live cells near an octant edge."""
    x = phase * 4.0 / math.pi
    octant = np.rint(x).astype(np.intp) % 8
    index = np.where(amp >= STRONG_AMPLITUDE, octant, octant + 8)
    dead = _squared(amp) < DEAD_PROBABILITY_EPS
    index[dead] = 16
    # +-pi both give octant 4: only the half-integer ties are edges
    return index, _near(x, 0.5, 4.0) & ~dead


def render_ascii(g: Grid) -> str:
    """One arrow per cell; rows end in newlines."""
    parts = []
    for rows in _row_blocks(g, _BLOCK_CELLS):
        a = g.a[rows]
        codes = np.empty((a.shape[0], g.width + 1), dtype="<u4")
        codes[:, :-1] = _GLYPH_CODES[_by_phase(_glyph_index, a, _amplitude(a))]
        codes[:, -1] = ord("\n")
        parts.append(codes.tobytes().decode("utf-32-le"))
    return "".join(parts)


def _hsv_bytes(phase: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(r, g, b) of each cell, and the lit cells near a sextant or channel rounding edge."""
    # degrees of an atan2 lie in [-180, 180], where Python's d % 360.0 is d + 360.0 below
    # 0 and d otherwise (-0.0 stays -0.0, which gives the same bytes)
    h = np.degrees(phase)
    h += 360.0 * (h < 0.0)
    h /= 60.0
    sextant = np.floor(h)
    f = h - sextant
    q, t = 255.0 * (v * (1.0 - f)), 255.0 * (v * f)
    # each source rounded to a byte once, bytes 0-3 of a cell's word: 0, 255 v, q and t;
    # v == 0 zeroes all four, so dead cells come out black
    sources = np.zeros(v.shape + (4,), dtype=np.uint8)
    for i, x in ((1, 255.0 * v), (2, q), (3, t)):
        np.rint(x, out=sources[..., i], casting="unsafe")
    words = sources.view("<u4")[..., 0]
    s = sextant.astype(np.intp)
    rgb = np.empty(v.shape + (3,), dtype=np.uint8)
    for c, shifts in enumerate(_CHANNEL_SHIFTS):
        # the cast to uint8 keeps the low byte, the one the shift brings the source to
        np.right_shift(words, shifts[s], out=rgb[..., c], casting="unsafe")
    # h = 0 and h = 6 are both the 0/360 wrap
    edge = _near(h, 0.0, 6.0) | _near(q, 0.5, 255.0) | _near(t, 0.5, 255.0)
    return rgb, edge & (v > 0.0)


def render_ppm(g: Grid) -> bytes:
    """Binary P6 image: hue from the phase of a, brightness |a|^2, dead cells black.

    One pixel per cell.
    """
    parts = [f"P6\n{g.width} {g.height}\n255\n".encode("ascii")]
    for rows in _row_blocks(g, _BLOCK_CELLS):
        a = g.a[rows]
        parts.append(_by_phase(_hsv_bytes, a, np.minimum(_squared(_amplitude(a)), 1.0)).tobytes())
    return b"".join(parts)


def _round17(mag: np.ndarray, exp10: np.ndarray) -> np.ndarray:
    """mag * 10**(16 - exp10) rounded half to even, as ``int64``.

    Dekker's error-free product gives the exact value as p + e: p is the
    rounded product and e its error. Wherever the result can have 17 digits,
    p is at least 2**53, so it is an even integer and |e| <= 8, and the
    rounding of p + e is p plus the rounding of e. Only correctly rounded
    IEEE operations and integer casts decide the digits.
    """
    k = 16 - exp10
    p = mag * _POW10[k]
    split = mag * _SPLITTER
    hi = split - (split - mag)
    lo = mag - hi
    scale_hi, scale_lo = _POW10_HI[k], _POW10_LO[k]
    e = ((hi * scale_hi - p) + hi * scale_lo + lo * scale_hi) + lo * scale_lo
    return p.astype(np.int64) + np.rint(e).astype(np.int64)


def _format_slots(values: np.ndarray, out: np.ndarray) -> None:
    """Write ``'%.17g' % v`` for each value into its ``_SLOT``-byte row of ``out``, NUL-padded.

    Exact zeros and ones are one character and a sign. A value that ``%g``
    prints in fixed notation with 17 significant digits, decimal exponent -4
    to 0, is written from its integer digit string. Any other value (below
    1e-4, 10 or more after rounding, infinite or NaN) goes through ``%``.
    """
    out.fill(0)
    mag = np.abs(values)
    one = mag == 1.0
    spelled = one | (mag == 0.0)
    # bytes 0-7 of every slot as one little-endian word: byte 1 is '0', or '1' for a one
    heads = (spelled * np.uint64(ord("0")) + one) << np.uint64(8)

    # the digit count below is what checks log10's guess at the exponent
    fixed = np.flatnonzero((mag >= 9e-5) & (mag < 10.0) & ~one)
    mag = mag[fixed]
    exp10 = np.clip(np.floor(np.log10(mag)), -5, 0).astype(np.intp)
    digits = _round17(mag, exp10)
    # a wrong guess gives 16 or 18 digits: redo those from mag, never from the rounded digits
    shift = (digits >= 10**17).astype(np.intp) - (digits < 10**16)
    moved = np.flatnonzero(shift)
    exp10[moved] += shift[moved]
    digits[moved] = _round17(mag[moved], exp10[moved])
    ok = (digits >= 10**16) & (digits < 10**17) & (exp10 >= -4) & (exp10 <= 0)
    fixed, exp10, digits = fixed[ok], exp10[ok], digits[ok]
    spelled[fixed] = True

    # d0 then four 4-digit chunks, split with exact float arithmetic below 2**53
    head = digits // 10**8
    tail = (digits - head * 10**8).astype(np.float64)
    head = head.astype(np.float64)
    d0 = np.floor(head / 1e8)
    head -= d0 * 1e8
    c1, c3 = np.floor(head / 1e4), np.floor(tail / 1e4)
    chunks = (c1, head - c1 * 1e4, c3, tail - c3 * 1e4)
    quads = out.view("<u4")
    # a chunk loses its trailing zeros when every chunk after it is zero
    zero_after = np.ones(len(fixed), dtype=bool)
    for i in (3, 2, 1, 0):
        quads[fixed, 2 + i] = _QUADS[chunks[i].astype(np.intp) + zero_after * 10_000]
        zero_after &= chunks[i] == 0
    heads[fixed] = _FIXED_HEADS[(d0.astype(np.intp) - 10 * exp10) * 2 + zero_after]
    heads |= np.signbit(values) * np.uint64(ord("-"))
    out.view("<u8")[:, 0] = heads

    rest = np.flatnonzero(~spelled)
    if rest.size:
        text = ["%.17g" % v for v in values[rest].tolist()]
        out[rest] = np.array(text, dtype=f"S{_SLOT}").view(np.uint8).reshape(-1, _SLOT)


def _decimal_fields(count: int) -> np.ndarray:
    """ASCII of 0 .. count - 1, one NUL-padded row each."""
    return np.array([str(i) for i in range(count)], dtype=bytes).view(np.uint8).reshape(count, -1)


def render_csv(g: Grid) -> str:
    """Row-major cell dump; 17 significant digits round-trip doubles losslessly.

    Each block of rows is laid out as one byte matrix, a line per cell:
    the x and y digits, then five comma-led value slots, then a newline.
    Dropping the matrix's NUL padding leaves the block's text.
    """
    # a CSV block's byte matrix takes about 130 bytes per cell: at 4096 cells a 256x256
    # frame's text, held twice at the join, sets the peak RSS, not the block buffers. The
    # text is one str per block: a bytearray grown block by block peaked 1-3 MiB higher
    blocks = _row_blocks(g, _BLOCK_CELLS // 4)
    xs, ys = _decimal_fields(g.width), _decimal_fields(g.height)
    values_at = xs.shape[1] + 1 + ys.shape[1]
    lines = np.zeros(
        (blocks[0].stop - blocks[0].start, g.width, values_at + 5 * (1 + _SLOT) + 1), dtype=np.uint8
    )
    lines[..., : xs.shape[1]] = xs
    lines[..., xs.shape[1]] = ord(",")
    fields = lines[..., values_at:-1].reshape(lines.shape[:2] + (5, 1 + _SLOT))
    fields[..., 0] = ord(",")
    lines[..., -1] = ord("\n")
    slots = np.empty((lines.shape[0] * g.width * 5, _SLOT), dtype=np.uint8)
    parts = [_CSV_HEADER]
    for rows in blocks:
        a, b = g.a[rows], g.b[rows]
        values = np.stack([a.real, a.imag, b.real, b.imag, _squared(_amplitude(a))], axis=-1)
        block_slots = slots[: values.size]
        _format_slots(values.ravel(), block_slots)
        n = rows.stop - rows.start
        fields[:n, ..., 1:] = block_slots.reshape(values.shape + (_SLOT,))
        lines[:n, :, xs.shape[1] + 1 : values_at] = ys[rows, None]
        parts.append(lines[:n].tobytes().translate(None, b"\0").decode("ascii"))
    # the parts and their joined copy are the peak: hold no block buffer beside them
    del lines, fields, slots, block_slots, values
    return "".join(parts)
