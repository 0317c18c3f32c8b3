"""What the CLI prints and writes for every shipped pattern, the transcript it must replay.

For each pattern under ``patterns/`` and each ``--boundary`` value this runs,
through ``cli.main``:

- ``analyze`` with its defaults;
- a 5-point ``sweep`` of the pattern's first live cell (row-major order);
- ``oracle-check`` with its defaults (non-classical patterns exit 2);
- ``run`` for 6 generations in each frame format.

Each entry holds the exit code, stdout, stderr and, for ``run``, the sha256
of every frame file. ``tests/test_cli.py`` replays every entry against
``tests/data/cli_transcript.json``. A change that alters the CLI's output on
purpose rewrites that file by running this one, and lists the changed
entries:

    PYTHONPATH=src python tests/cli_transcript.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np

from phasorlife import Boundary, parse_pattern
from phasorlife.cli import _FRAMES, main

REPO = Path(__file__).resolve().parent.parent
PATTERNS_DIR = REPO / "patterns"
TRANSCRIPT_PATH = Path(__file__).resolve().parent / "data" / "cli_transcript.json"
SWEEP_STEPS = 5
RUN_GENERATIONS = 6


def _first_live_cell(pattern: Path) -> tuple[int, int]:
    a = parse_pattern(pattern.read_text(encoding="utf-8")).grid.a
    y, x = np.argwhere(a != 0)[0]
    return int(x), int(y)


def invocations() -> list[list[str]]:
    """Every recorded argument list, pattern paths relative to the repository root.

    ``run`` entries leave out ``--output``: the replay adds a fresh directory.
    """
    out = []
    for pattern in sorted(PATTERNS_DIR.glob("*.sqp")):
        rel = str(pattern.relative_to(REPO))
        x, y = _first_live_cell(pattern)
        for boundary in Boundary:
            shared = ["--pattern", rel, "--boundary", boundary.value]
            out.append(["analyze", *shared])
            out.append(["sweep", *shared, "--cell", str(x), str(y), "--steps", str(SWEEP_STEPS)])
            out.append(["oracle-check", *shared])
            for fmt in _FRAMES:
                out.append(["run", *shared, "--generations", str(RUN_GENERATIONS),
                            "--format", fmt])
    return out


def replay(argv: list[str]) -> dict:
    """Exit code, stdout, stderr and frame digests of one invocation, as the shell sees them."""
    argv = [str(REPO / a) if a.startswith("patterns/") else a for a in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        # the interpreter's default action for RuntimeWarning, whatever filters the caller set
        warnings.simplefilter("default")
        frames_dir = Path(tmp) / "frames"
        if argv[0] == "run":
            argv = [*argv, "--output", str(frames_dir)]
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        entry = {"exit": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}
        if argv[0] == "run":
            entry["frames"] = {
                p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(frames_dir.iterdir())
            }
    return entry


def transcript() -> dict[str, dict]:
    return {" ".join(argv): replay(argv) for argv in invocations()}


if __name__ == "__main__":
    TRANSCRIPT_PATH.write_text(json.dumps(transcript(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {TRANSCRIPT_PATH}")
