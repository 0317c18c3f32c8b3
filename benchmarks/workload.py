"""One workload in a fresh interpreter: CLI invocations through ``phasorlife.cli.main``.

Runs whole iterations of the workload until the time is up, checks every
output, and prints one JSON summary line. With ``--trace 1`` it first runs
untraced for a third of the time, then wraps the public names that ``cli``
and ``analysis`` bind and writes the recorded spans to ``--spans``.

    PYTHONPATH=src python3 benchmarks/workload.py --workload fate_rpent --seed 1 \
        --seconds 10 --trace 0 --work benchmarks/_work/fate_rpent
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import resource
import shutil
import sys
import time
import traceback
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import calib
import checks
import gen
from tracer import Tracer

import phasorlife.analysis
import phasorlife.cli

GENERATIONS = {"frames256": 2, "soup1024": 10}
FORMATS = {"ascii": "txt", "ppm": "ppm", "csv": "csv"}
CSV_SAMPLE = 64
EXPECTED = Path(__file__).with_name("expected.json")


@dataclass
class Invocation:
    label: str
    argv: list[str]
    check: Callable[[int | None, str], list[str]]
    outdir: Path | None = None  # emptied before each call; its files count as written bytes
    frames: int = 0
    points: int = 0


@dataclass
class Plan:
    invocations: list[Invocation]
    cell_gens: int  # cells x generations the engine steps in one iteration


def expected_for(seed: int) -> dict:
    return json.loads(EXPECTED.read_text(encoding="utf-8"))[str(gen.variant(seed))]


def _frames_check(outdir: Path, fmt: str, expected: dict, sample: list[tuple[int, int]]):
    g = GENERATIONS["frames256"]

    def check(rc: int | None, stdout: str) -> list[str]:
        problems = checks.check_exit(rc)
        if not stdout.startswith("final total alive probability: "):
            problems.append(f"run printed {stdout[:80]!r}")
        if rc != 0:
            return problems
        problems += checks.check_frames(outdir, FORMATS[fmt], g, expected["gen0_sha256"][fmt])
        if fmt == "csv" and not problems:
            prev, final = (outdir / n for n in checks.frame_names("csv", g)[-2:])
            problems += checks.check_csv_step(
                prev.read_text(encoding="utf-8"), final.read_text(encoding="utf-8"),
                gen.FRAMES_SIZE, gen.FRAMES_SIZE, sample,
            )
        return problems

    return check


def plan(workload: str, seed: int, inputs: list[Path], work: Path, expected: dict) -> Plan:
    """The CLI invocations of one iteration, checked against ``expected`` (see ``expected_for``)."""
    pattern = str(inputs[0])
    if workload == "frames256":
        g = GENERATIONS[workload]
        rng = random.Random(seed)
        size = gen.FRAMES_SIZE
        sample = [(0, 0), (size - 1, size - 1)] + [
            (rng.randrange(size), rng.randrange(size)) for _ in range(CSV_SAMPLE - 2)
        ]
        invs = []
        for fmt in FORMATS:
            outdir = work / "frames" / fmt
            invs.append(Invocation(
                f"run --format {fmt}",
                ["run", "--pattern", pattern, "--generations", str(g), "--output", str(outdir),
                 "--format", fmt],
                _frames_check(outdir, fmt, expected, sample), outdir, frames=g + 1,
            ))
        return Plan(invs, len(FORMATS) * g * size * size)
    if workload == "soup1024":
        g = GENERATIONS[workload]
        inv = Invocation(
            "oracle-check", ["oracle-check", "--pattern", pattern, "--generations", str(g)],
            lambda rc, out: checks.check_oracle(rc, out, g),
        )
        return Plan([inv], g * gen.SOUP_SIZE * gen.SOUP_SIZE)
    if workload == "fate_rpent":
        off = gen.sweep_offset(seed)
        x, y = gen.SWEEP_CELL
        analyze = Invocation(
            "analyze", ["analyze", "--pattern", pattern],
            lambda rc, out: checks.check_analyze(rc, out, expected["analyze"]),
            points=1,
        )
        sweep = Invocation(
            "sweep",
            ["sweep", "--pattern", pattern, "--cell", str(x), str(y),
             "--phase-start", repr(gen.SWEEP_START + off), "--phase-end", repr(gen.SWEEP_END + off),
             "--steps", str(gen.SWEEP_STEPS)],
            lambda rc, out: checks.check_sweep(rc, out, expected["sweep"]),
            points=gen.SWEEP_STEPS,
        )
        # the generation count is absent only while record.py builds expected.json
        return Plan([analyze, sweep], expected.get("generations", 0) * gen.RPENT_CELLS)
    raise ValueError(f"unknown workload {workload!r}")


def install_tracer() -> Tracer:
    """Wrap the public names that cli and analysis bind. ``Grid.cell`` stays unwrapped:
    a wrapper on its 1.4M calls per ascii frame would swamp render self time."""
    tr = Tracer()
    cli, analysis = phasorlife.cli, phasorlife.analysis

    def cells(args, _result):
        return {"cells": args[0].width * args[0].height}

    def parsed(_args, doc):
        return {"cells": doc.grid.width * doc.grid.height}

    def rendered(args, out):
        size = len(out) if isinstance(out, bytes) or out.isascii() else len(out.encode("utf-8"))
        return {"cells": args[0].width * args[0].height, "bytes": size}

    def fate(_args, rep):
        return {"generations": rep.generations_run, "verdict": rep.verdict}

    tr.wrap(cli, "parse_pattern", "state.parse_pattern", parsed)
    for mod in (cli, analysis):
        tr.wrap(mod, "step_grid", "rules.step_grid", cells)
    for mod in (cli, analysis):
        tr.wrap(mod, "classify", "analysis.classify", fate)
    tr.wrap(cli, "sweep_phase", "analysis.sweep_phase")
    for fmt in FORMATS:
        tr.wrap(cli, f"render_{fmt}", f"render.render_{fmt}", rendered)
    tr.wrap(cli, "conway_step", "oracle.conway_step")
    tr.wrap(cli, "project", "oracle.project")
    return tr


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    bytes_written: int = 0
    problems: list[str] = field(default_factory=list)


def invoke(inv: Invocation, tracer: Tracer | None) -> tuple[int, str]:
    """Call ``cli.main`` once with stdout captured; returns the exit code and stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        if tracer is None:
            rc = phasorlife.cli.main(inv.argv)
        else:
            with tracer.span("cli.main"):
                rc = phasorlife.cli.main(inv.argv)
    return rc, buf.getvalue()


def run_iteration(p: Plan, tally: Tally, tracer: Tracer | None) -> tuple[list[float], list[float]]:
    """One pass over the plan, outputs checked.

    Returns each invocation's wall time, and the calibration kernel's time
    before the first invocation and after each one.
    """
    walls: list[float] = []
    kernels = [calib.kernel_s()]
    for inv in p.invocations:
        if inv.outdir is not None:
            shutil.rmtree(inv.outdir, ignore_errors=True)
        rc: int | None = None
        out = ""
        start = time.perf_counter()
        try:
            rc, out = invoke(inv, tracer)
        except Exception:  # a crash is a failed operation, not the end of the run
            tally.problems.append(traceback.format_exc(limit=3))
        walls.append(time.perf_counter() - start)
        kernels.append(calib.kernel_s())
        tally.attempted += 1
        problems = inv.check(rc, out)
        if problems:
            tally.failed += 1
            tally.problems += [f"{inv.argv[0]}: {msg}" for msg in problems]
        tally.bytes_written += len(out.encode("utf-8"))
        if inv.outdir is not None and inv.outdir.is_dir():
            tally.bytes_written += sum(f.stat().st_size for f in inv.outdir.iterdir())
    return walls, kernels


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args()

    # the fixed-border warning is expected output of fate_rpent, not a failure
    warnings.filterwarnings("ignore", message="live amplitude", category=RuntimeWarning)
    inputs = sorted((args.work / "in").glob("*.sqp"))
    p = plan(args.workload, args.seed, inputs, args.work, expected_for(args.seed))
    tally = Tally()
    untraced: list[dict] = []
    traced: list[dict] = []

    def measure(samples: list[dict], tracer: Tracer | None, until: float) -> None:
        # whole iterations only: stop before one that would end past ``until``
        while True:
            t = time.perf_counter()
            walls, kernels = run_iteration(p, tally, tracer)
            samples.append({"walls": walls, "kernels": kernels})
            if 2 * time.perf_counter() - t > until:
                return

    start = time.perf_counter()
    if args.trace:
        measure(untraced, None, start + args.seconds / 3)
        tracer = install_tracer()
        measure(traced, tracer, start + args.seconds)
        tracer.dump(args.spans)
    else:
        measure(untraced, None, start + args.seconds)
    for msg in tally.problems[:20]:
        print(msg, file=sys.stderr)
    print(json.dumps({
        "labels": [inv.label for inv in p.invocations],
        "iterations": untraced,
        "traced_iterations": traced,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "bytes_written_per_iteration": tally.bytes_written / (len(untraced) + len(traced)),
        "cell_gens_per_iteration": p.cell_gens,
        "frames_per_iteration": sum(inv.frames for inv in p.invocations),
        "points_per_iteration": sum(inv.points for inv in p.invocations),
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }))


if __name__ == "__main__":
    main()
