"""The phasorlife benchmark: one workload, measured end to end or traced per layer.

    python3 benchmarks/run.py --workload frames256 --seed 1 --seconds 30 --trace 0

Run from the root of a source tree. Inputs are generated from the seed into
``benchmarks/_work``; the program runs from ``src/`` in fresh interpreters.
Human-readable lines go first; the last line of stdout is the JSON result,
whose metrics are the ones ``BENCHMARK.json`` names.

Timings are speed-corrected with the calibration kernel in ``calib.py``,
then taken at the lower quartile of the run's iterations: on the shared host
the CPU speed swings by tens of percent, for seconds to minutes. Raw wall
times, their median and their tail are printed too.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import NoReturn

import numpy

import calib
import gen
from tracer import layer_metrics, self_times

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 150


def fail(message: str) -> NoReturn:
    print(f"benchmark error: {message}", file=sys.stderr)
    sys.exit(2)


def run_child(argv: list[str], root: Path, timeout: float) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    try:
        proc = subprocess.run(
            [sys.executable, *argv], cwd=root, env=env, stdout=subprocess.PIPE, text=True,
            timeout=timeout, check=False,
        )
    except subprocess.TimeoutExpired:
        fail(f"{Path(argv[0]).name} ran past {timeout} s")
    if proc.returncode != 0:
        fail(f"{Path(argv[0]).name} exited with {proc.returncode}")
    return proc.stdout


def q1(values: list[float]) -> float:
    """Lower quartile, interpolated within the data."""
    return values[0] if len(values) == 1 else statistics.quantiles(values, n=4, method="inclusive")[0]


def tail(values: list[float]) -> str:
    """The highest whole percentile with at least ten samples above it."""
    n, ordered = len(values), sorted(values)
    for q in range(99, 50, -1):
        rank = math.ceil(q / 100 * n)
        if n - rank >= 10:
            return f"p{q} = {ordered[rank - 1]:.4f} s"
    return "no percentile above the median has ten samples above it"


def invocation_times(iterations: list[dict]) -> list[list[float]]:
    """Speed-corrected wall time of each invocation, per iteration."""
    return [
        [calib.corrected(w, it["kernels"][j:j + 2]) for j, w in enumerate(it["walls"])]
        for it in iterations
    ]


def speed(iterations: list[dict]) -> float:
    """Median CPU speed during the run, relative to the reference speed."""
    return statistics.median(calib.REFERENCE_S / k for it in iterations for k in it["kernels"])


def end_to_end(summary: dict, inputs: list[Path], root: Path) -> dict[str, float]:
    probes = [
        [float(v) for v in run_child([str(HERE / "setup_time.py"), *map(str, inputs)], root, 60).split()]
        for _ in range(SETUP_REPEATS)
    ]
    iterations = summary["iterations"]
    per_inv = invocation_times(iterations)
    walls = [sum(it) for it in per_inv]
    raw = [sum(it["walls"]) for it in iterations]
    n = len(walls)
    wall = q1(walls)
    m = {
        "setup_s": statistics.median(calib.corrected(s, [k]) for s, k in probes),
        "wall_s.p25": wall,
        "cell_gens_per_s": summary["cell_gens_per_iteration"] / wall,
        "peak_rss_mib": summary["peak_rss_kib"] / 1024,
    }
    print(f"cpu speed = {speed(iterations):.3f} of reference (median of {n} iterations' kernels)")
    print(f"setup_s = {m['setup_s']:.4f} s (median of n={len(probes)} fresh interpreters; raw median "
          f"{statistics.median(s for s, _ in probes):.4f} s)")
    print(f"wall_s.p25 = {wall:.4f} s (n={n} iterations); raw: p25 = {q1(raw):.4f} s, "
          f"median = {statistics.median(raw):.4f} s, {tail(raw)}")
    for label, col in zip(summary["labels"], zip(*per_inv)):
        print(f"  {label}: p25 = {q1(list(col)):.4f} s, median = {statistics.median(col):.4f} s (n={n})")
    print(f"cell_gens_per_s = {m['cell_gens_per_s']:.5g} 1/s ({summary['cell_gens_per_iteration']} "
          "cell-generations per iteration)")
    for key, label in (("frames_per_iteration", "frames_per_s"), ("points_per_iteration", "points_per_s")):
        if summary[key]:
            print(f"{label} = {summary[key] / wall:.5g} 1/s ({summary[key]} per iteration)")
    print(f"peak_rss_mib = {m['peak_rss_mib']:.2f} MiB (workload process)")
    return m


def per_layer(summary: dict, spans_path: Path) -> dict[str, float]:
    spans = json.loads(spans_path.read_text(encoding="utf-8"))
    traced = summary["traced_iterations"]
    m = layer_metrics(spans, len(traced))
    m["cli.bytes_written"] = summary["bytes_written_per_iteration"]
    m["trace.overhead_s"] = (
        q1([sum(it) for it in invocation_times(traced)])
        - q1([sum(it) for it in invocation_times(summary["iterations"])])
    )
    m["trace.self_coverage"] = sum(self_times(spans)) / sum(sum(it["walls"]) for it in traced)
    m["calibration.speed"] = speed(traced)
    print(f"# traced iterations={len(traced)} untraced iterations={len(summary['iterations'])} "
          f"spans={len(spans)}; counts and self times are per iteration, as measured")
    return m


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "phasorlife" / "cli.py").is_file():
        fail(f"no phasorlife source under {root / 'src'}; run from the root of the source tree")
    config = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = config["per_layer" if args.trace else "end_to_end"]

    work = HERE / "_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    inputs = gen.write_inputs(args.workload, args.seed, work / "in", root)
    spans_path = work / "spans.json"
    summary = json.loads(run_child(
        [str(HERE / "workload.py"), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace), "--work", str(work),
         "--spans", str(spans_path)],
        root, CHILD_TIMEOUT_S,
    ).splitlines()[-1])

    print(f"# machine: nproc={os.cpu_count()} python={platform.python_version()} numpy={numpy.__version__}")
    print(f"# workload={args.workload} seed={args.seed} variant={gen.variant(args.seed)} "
          f"inputs={','.join(p.name for p in inputs)} seconds={args.seconds} trace={args.trace}")
    print(f"failed_ops = {summary['failed']} of {summary['attempted']} attempted CLI invocations")
    metrics = per_layer(summary, spans_path) if args.trace else end_to_end(summary, inputs, root)
    names = [m["name"] for m in wanted]
    if sorted(metrics) != sorted(names):
        fail(f"metrics {sorted(set(metrics) ^ set(names))} disagree with BENCHMARK.json")
    if args.trace:
        for m in wanted:
            print(f"{m['name']} = {metrics[m['name']]:.6g} {m['unit']}")
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))


if __name__ == "__main__":
    main()
