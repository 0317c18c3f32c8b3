"""Seeded input generator for the phasorlife benchmark.

Writes the ``.sqp`` files of one workload into a directory. The seed picks
one of ``VARIANTS`` input variants; the same seed always gives byte-identical
files. Only the standard library's ``random`` is used, whose stream for an
integer seed is stable across Python versions, so the digests and verdicts
recorded in ``expected.json`` stay valid.

    python3 benchmarks/gen.py --workload frames256 --seed 7 --out benchmarks/_work/in
"""

from __future__ import annotations

import argparse
import math
import random
import shutil
from pathlib import Path

WORKLOADS = ("frames256", "soup1024", "fate_rpent")
VARIANTS = 16

FRAMES_SIZE = 256
FRAMES_DENSITY = 0.5
SOUP_SIZE = 1024
SOUP_DENSITY = 0.35

# fate_rpent sweeps cell (20, 21) of the shipped r-pentomino over 9 phases.
# The window holds 2 dead, 4 unresolved and 3 oscillator verdicts. On a
# 97-point scan of [pi/2, pi] every point sits about 0.03 rad or more from a
# verdict change, so the seed's offset of at most 15 * 2**-12 rad changes the
# input bits but not the verdicts or the amount of work.
RPENT_PATTERN = Path("patterns/r_pentomino.sqp")
RPENT_CELLS = 40 * 40
SWEEP_CELL = (20, 21)
SWEEP_START = math.pi * (0.5 + 8.25 / 192)
SWEEP_END = math.pi * (0.5 + 92.25 / 192)
SWEEP_STEPS = 9
SWEEP_OFFSET_UNIT = 2.0**-12


def variant(seed: int) -> int:
    return seed % VARIANTS


def sweep_offset(seed: int) -> float:
    return variant(seed) * SWEEP_OFFSET_UNIT


def _header(name: str, size: int) -> list[str]:
    return [f"# name: {name}", "version 1", f"size {size} {size}", "boundary torus", "cells"]


def frames_pattern(seed: int) -> str:
    """256x256 torus: half the cells alive with random amplitude and phase."""
    rng = random.Random(variant(seed))
    lines = _header(f"frames256 variant {variant(seed)}", FRAMES_SIZE)
    for _ in range(FRAMES_SIZE):
        row = []
        for _ in range(FRAMES_SIZE):
            if rng.random() < FRAMES_DENSITY:
                amp = rng.randint(50, 100) / 100
                deg = rng.randint(-179999, 180000) / 1000
                row.append(f"{amp:g}@{deg:g}")
            else:
                row.append(".")
        lines.append(" ".join(row))
    return "\n".join(lines) + "\n"


def soup_pattern(seed: int) -> str:
    """1024x1024 classical torus at 35% density, for the boolean oracle."""
    rng = random.Random(variant(seed))
    lines = _header(f"soup1024 variant {variant(seed)}", SOUP_SIZE)
    for _ in range(SOUP_SIZE):
        lines.append(" ".join(">" if rng.random() < SOUP_DENSITY else "." for _ in range(SOUP_SIZE)))
    return "\n".join(lines) + "\n"


def write_inputs(workload: str, seed: int, out: Path, root: Path = Path(".")) -> list[Path]:
    """Write the workload's input files into ``out`` and return their paths."""
    out.mkdir(parents=True, exist_ok=True)
    if workload == "frames256":
        path = out / "frames256.sqp"
        path.write_text(frames_pattern(seed), encoding="utf-8")
    elif workload == "soup1024":
        path = out / "soup1024.sqp"
        path.write_text(soup_pattern(seed), encoding="utf-8")
    elif workload == "fate_rpent":
        path = out / "r_pentomino.sqp"
        shutil.copyfile(root / RPENT_PATTERN, path)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [path]


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args()
    for path in write_inputs(args.workload, args.seed, args.out):
        print(path)


if __name__ == "__main__":
    main()
