"""Per-cell reference renderers, the oracle the array renderers must match byte for byte.

These are the definitions of the three frame formats, written one cell at a
time with scalar ``cmath``/``math`` calls, in the role ``step_cell`` plays for
the stepper. Run this file to rewrite ``tests/data/render_digests.json`` from
them:

    PYTHONPATH=src python tests/render_reference.py
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from phasorlife import Grid, parse_pattern, step_grid
from phasorlife.render import (
    DEAD_PROBABILITY_EPS,
    FAINT_ARROWS,
    STRONG_AMPLITUDE,
    STRONG_ARROWS,
)

PATTERNS_DIR = Path(__file__).resolve().parent.parent / "patterns"
DIGESTS_PATH = Path(__file__).resolve().parent / "data" / "render_digests.json"
DIGEST_GENERATIONS = 4  # generations 0..3 of every shipped pattern
PPM_PIXEL_SIZES = (1, 3)


def _octant(phase: float) -> int:
    return int(round(phase * 4.0 / math.pi)) % 8


def ref_render_ascii(g: Grid) -> str:
    rows = []
    for y in range(g.height):
        row = []
        for x in range(g.width):
            c = g.cell(x, y)
            if abs(c.a) ** 2 < DEAD_PROBABILITY_EPS:
                row.append(".")
            else:
                glyphs = STRONG_ARROWS if abs(c.a) >= STRONG_AMPLITUDE else FAINT_ARROWS
                row.append(glyphs[_octant(cmath.phase(c.a))])
        rows.append("".join(row))
    return "\n".join(rows) + "\n"


def _hsv_bytes(phase: float, value: float) -> tuple[int, int, int]:
    # hue from phase (degrees on the color wheel), full saturation, brightness |a|^2
    v = min(max(value, 0.0), 1.0)
    if v == 0.0:
        return (0, 0, 0)
    h = (math.degrees(phase) % 360.0) / 60.0
    i = int(h) % 6
    f = h - int(h)
    q = v * (1.0 - f)
    t = v * f
    r, gg, b = ((v, t, 0.0), (q, v, 0.0), (0.0, v, t), (0.0, q, v), (t, 0.0, v), (v, 0.0, q))[i]
    return (round(255 * r), round(255 * gg), round(255 * b))


def ref_render_ppm(g: Grid, cell_pixel_size: int = 1) -> bytes:
    size = cell_pixel_size
    rgb = np.zeros((g.height, g.width, 3), dtype=np.uint8)
    for y in range(g.height):
        for x in range(g.width):
            c = g.cell(x, y)
            rgb[y, x] = _hsv_bytes(cmath.phase(c.a), abs(c.a) ** 2)
    img = np.repeat(np.repeat(rgb, size, axis=0), size, axis=1)
    header = f"P6\n{g.width * size} {g.height * size}\n255\n".encode("ascii")
    return header + img.tobytes()


def ref_render_csv(g: Grid) -> str:
    lines = ["x,y,re_a,im_a,re_b,im_b,p_alive"]
    for y in range(g.height):
        for x in range(g.width):
            c = g.cell(x, y)
            lines.append(
                f"{x},{y},{c.a.real:.17g},{c.a.imag:.17g},"
                f"{c.b.real:.17g},{c.b.imag:.17g},{abs(c.a) ** 2:.17g}"
            )
    return "\n".join(lines) + "\n"


def frame_digests(render_ascii, render_ppm, render_csv) -> dict[str, str]:
    """sha256 of every golden frame, keyed ``<pattern>:<generation>:<format>``.

    ``render_ppm`` is called as ``render_ppm(grid, cell_pixel_size)``.
    """
    digests: dict[str, str] = {}
    for path in sorted(PATTERNS_DIR.glob("*.sqp")):
        g = parse_pattern(path.read_text(encoding="utf-8")).grid
        for gen in range(DIGEST_GENERATIONS):
            frames = {
                "ascii": render_ascii(g).encode("utf-8"),
                "csv": render_csv(g).encode("utf-8"),
            }
            for size in PPM_PIXEL_SIZES:
                frames[f"ppm{size}"] = render_ppm(g, size)
            for fmt, data in frames.items():
                digests[f"{path.name}:{gen}:{fmt}"] = hashlib.sha256(data).hexdigest()
            g = step_grid(g)
    return digests


if __name__ == "__main__":
    table = frame_digests(ref_render_ascii, ref_render_ppm, ref_render_csv)
    DIGESTS_PATH.parent.mkdir(exist_ok=True)
    DIGESTS_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(table)} digests to {DIGESTS_PATH}")
