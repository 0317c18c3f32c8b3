"""Output checks for the benchmark's CLI invocations.

Each check returns a list of problems; an empty list means the output is
correct. A non-zero exit code is always a problem. Warnings the CLI prints to
stderr (such as the fixed-border RuntimeWarning) are not outputs and are
never checked.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from phasorlife import Boundary, CellState, Grid, neighbor_sum, step_cell

CSV_HEADER = "x,y,re_a,im_a,re_b,im_b,p_alive"
STEP_TOL = 1e-12


def check_exit(rc: int | None) -> list[str]:
    return [] if rc == 0 else [f"exit code {rc}, expected 0"]


def frame_names(suffix: str, generations: int) -> list[str]:
    return [f"gen_{gen:05d}.{suffix}" for gen in range(generations + 1)]


def check_frames(outdir: Path, suffix: str, generations: int, gen0_sha256: str) -> list[str]:
    """The run wrote exactly frames 0..generations, and frame 0 has the recorded digest."""
    names = sorted(p.name for p in outdir.iterdir())
    want = frame_names(suffix, generations)
    if names != want:
        return [f"{outdir}: frames {names[:3]}... ({len(names)}), expected {len(want)} {suffix} frames"]
    digest = hashlib.sha256((outdir / want[0]).read_bytes()).hexdigest()
    if digest != gen0_sha256:
        return [f"{outdir / want[0]}: sha256 {digest[:12]}... differs from the recorded {gen0_sha256[:12]}..."]
    return []


def _csv_cell(lines: list[str], width: int, x: int, y: int) -> CellState:
    fields = lines[1 + y * width + x].split(",")
    if fields[0] != str(x) or fields[1] != str(y):
        raise ValueError(f"row for ({x}, {y}) reads {fields[:2]}")
    return CellState(complex(float(fields[2]), float(fields[3])), complex(float(fields[4]), float(fields[5])))


def check_csv_step(
    prev_text: str, final_text: str, width: int, height: int, sample: list[tuple[int, int]]
) -> list[str]:
    """Sampled cells of a torus CSV frame equal one scalar step of the frame before.

    The 3x3 window around each cell, wrapped on the torus, becomes a fixed
    grid whose centre has the same eight neighbours summed in the same order.
    """
    prev, final = prev_text.split("\n"), final_text.split("\n")
    if prev[0] != CSV_HEADER or final[0] != CSV_HEADER:
        return ["CSV frame header differs"]
    if len(prev) != len(final) or len(final) != width * height + 2:
        return [f"CSV frame has {len(final) - 2} rows, expected {width * height}"]
    problems = []
    try:
        for x, y in sample:
            window = [
                [_csv_cell(prev, width, (x + dx) % width, (y + dy) % height) for dx in (-1, 0, 1)]
                for dy in (-1, 0, 1)
            ]
            g = Grid([[c.a for c in row] for row in window], [[c.b for c in row] for row in window],
                     Boundary.FIXED_DEAD)
            want = step_cell(window[1][1], neighbor_sum(g, 1, 1))
            got = _csv_cell(final, width, x, y)
            err = max(abs(got.a - want.a), abs(got.b - want.b))
            if not err <= STEP_TOL:
                problems.append(f"cell ({x}, {y}) is {err:.3g} from the scalar step_cell")
    except (IndexError, ValueError) as exc:
        problems.append(f"CSV frame unreadable: {exc}")
    return problems


def check_oracle(rc: int | None, stdout: str, generations: int) -> list[str]:
    problems = check_exit(rc)
    if stdout != f"oracle check passed: {generations} generations\n":
        problems.append(f"oracle-check printed {stdout[:80]!r}")
    return problems


def check_analyze(rc: int | None, stdout: str, verdict: str) -> list[str]:
    problems = check_exit(rc)
    try:
        got = json.loads(stdout)["verdict"]
    except (ValueError, KeyError, TypeError):
        return problems + [f"analyze printed {stdout[:80]!r}"]
    if got != verdict:
        problems.append(f"analyze verdict {got!r}, recorded {verdict!r}")
    return problems


def sweep_verdicts(stdout: str) -> list[str]:
    lines = stdout.splitlines()
    if not lines or lines[0] != "phase_rad,verdict,death_generation":
        raise ValueError(f"sweep printed {stdout[:80]!r}")
    return [line.split(",")[1] for line in lines[1:] if not line.startswith("#")]


def check_sweep(rc: int | None, stdout: str, verdicts: list[str]) -> list[str]:
    problems = check_exit(rc)
    try:
        got = sweep_verdicts(stdout)
    except (ValueError, IndexError) as exc:
        return problems + [str(exc)]
    if got != verdicts:
        problems.append(f"sweep verdicts {got}, recorded {verdicts}")
    return problems
