"""Every output check accepts the real output and rejects a corrupted one."""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
from phasorlife import Boundary, Grid, render_csv, step_grid  # noqa: E402


def _torus(seed, size=6):
    rng = np.random.default_rng(seed)
    theta = rng.uniform(-np.pi, np.pi, (size, size))
    amp = rng.choice([0.0, 0.6, 1.0], (size, size))
    return Grid(amp * np.exp(1j * theta), np.sqrt(1 - amp**2) + 0j, Boundary.TORUS)


def test_csv_step_check():
    g0 = _torus(1)
    prev, final = render_csv(g0), render_csv(step_grid(g0))
    sample = [(x, y) for y in range(6) for x in range(6)]
    assert checks.check_csv_step(prev, final, 6, 6, sample) == []
    lines = final.split("\n")
    fields = lines[1 + 2 * 6 + 3].split(",")
    fields[2] = repr(float(fields[2]) + 1e-9)
    lines[1 + 2 * 6 + 3] = ",".join(fields)
    assert checks.check_csv_step(prev, "\n".join(lines), 6, 6, sample)
    assert checks.check_csv_step(prev, final.replace("x,y", "y,x", 1), 6, 6, sample)
    assert checks.check_csv_step(prev, final[: final.rindex("\n", 0, -1) + 1], 6, 6, sample)


def test_frames_check(tmp_path):
    for gen in range(3):
        (tmp_path / f"gen_{gen:05d}.txt").write_text(f"frame {gen}\n")
    digest = hashlib.sha256(b"frame 0\n").hexdigest()
    assert checks.check_frames(tmp_path, "txt", 2, digest) == []
    assert checks.check_frames(tmp_path, "txt", 2, "0" * 64)
    assert checks.check_frames(tmp_path, "txt", 3, digest)
    (tmp_path / "gen_00000.txt").write_text("frame 0 \n")
    assert checks.check_frames(tmp_path, "txt", 2, digest)


def test_oracle_check():
    ok = "oracle check passed: 10 generations\n"
    assert checks.check_oracle(0, ok, 10) == []
    assert checks.check_oracle(3, ok, 10)
    assert checks.check_oracle(None, "", 10)
    assert checks.check_oracle(0, "oracle check passed: 9 generations\n", 10)


def test_analyze_check():
    out = json.dumps({"verdict": "unresolved", "generations_run": 200}) + "\n"
    assert checks.check_analyze(0, out, "unresolved") == []
    assert checks.check_analyze(0, out, "dead")
    assert checks.check_analyze(0, out[:-5], "unresolved")
    assert checks.check_analyze(2, out, "unresolved")


def test_sweep_check():
    out = "phase_rad,verdict,death_generation\n0.1,dead,8\n0.2,oscillator,\n"
    assert checks.check_sweep(0, out, ["dead", "oscillator"]) == []
    assert checks.check_sweep(0, out, ["oscillator", "dead"])
    assert checks.check_sweep(0, out, ["dead"])
    assert checks.check_sweep(0, out.replace("phase_rad", "phase"), ["dead", "oscillator"])
    assert checks.check_sweep(1, out, ["dead", "oscillator"])
