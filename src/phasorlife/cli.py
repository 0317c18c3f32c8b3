"""Command-line front end: run, analyze, sweep, oracle-check.

Exit codes: 0 success, 1 usage error, 2 I/O or parse error, 3 check failure
(oracle-check divergence). All outputs are deterministic; identical
invocations produce byte-identical files and stdout on one numpy build and
SIMD dispatch level, since the last bit of some float ops depends on the
kernel numpy dispatches. CSV digits do not depend on dispatch.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import re
import sys
import warnings
from pathlib import Path

import numpy as np

from .analysis import (DEAD_THRESHOLD, MAX_GEN, TOL, _check_classify, _check_phases, classify,
                       evolve, sweep_phase)
from .oracle import conway_step, project
from .render import render_ascii, render_csv, render_ppm
from .rules import step_grid
from .state import Boundary, Grid, PatternError, parse_pattern

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_CHECK = 3

# --format value -> (frame file suffix, frame bytes of a grid). The renderers are
# looked up when a frame is written, so replacing cli.render_* takes effect.
_FRAMES = {
    "ascii": ("txt", lambda g: render_ascii(g).encode("utf-8")),
    "ppm": ("ppm", lambda g: render_ppm(g)),
    "csv": ("csv", lambda g: render_csv(g).encode("utf-8")),
}


class _UsageError(Exception):
    pass


# what float() reads with a leading minus; argparse's own pattern misses the
# exponent, inf and nan forms and takes '-1e-3' for an option name
_NEGATIVE_NUMBER = re.compile(
    r"-(?:(?:\d[\d_]*\.?[\d_]*|\.\d[\d_]*)(?:e[-+]?\d[\d_]*)?|inf(?:inity)?|nan)\Z", re.IGNORECASE
)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)  # subparsers are built as this class too
        self._negative_number_matcher = _NEGATIVE_NUMBER

    # argparse exits with status 2 on bad flags; the contract reserves 2 for I/O
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _add_shared(p: argparse.ArgumentParser) -> None:
    p.add_argument("--pattern", required=True, help="path to a .sqp pattern file")
    p.add_argument(
        "--boundary",
        choices=[b.value for b in Boundary],
        default=None,
        help="override the pattern's boundary policy",
    )


def _add_classification(p: argparse.ArgumentParser) -> None:
    p.add_argument("--generations", type=int, default=MAX_GEN,
                   help="maximum generations per classification")
    p.add_argument("--tol", type=float, default=TOL,
                   help="recurrence tolerance on alive-probability maps")
    p.add_argument("--dead-threshold", type=float, default=DEAD_THRESHOLD,
                   help="alive probability below which a cell counts as dead")


def build_parser() -> _Parser:
    parser = _Parser(
        prog="phasorlife",
        description="Deterministic simulator for complex two-component life grids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    run = sub.add_parser("run", formatter_class=fmt, help="step a pattern and write frames")
    _add_shared(run)
    run.add_argument("--generations", type=int, default=10, help="number of steps to run")
    run.add_argument("--output", default="frames", help="directory for frame files")
    run.add_argument("--format", choices=list(_FRAMES), default="ascii",
                     help="frame file format")

    analyze = sub.add_parser("analyze", formatter_class=fmt,
                             help="classify a pattern's long-run fate as JSON")
    _add_shared(analyze)
    _add_classification(analyze)

    sweep = sub.add_parser("sweep", formatter_class=fmt,
                           help="classify across a range of phases for one cell; CSV output")
    _add_shared(sweep)
    _add_classification(sweep)
    sweep.add_argument("--cell", type=int, nargs=2, metavar=("X", "Y"), required=True,
                       help="coordinates of the cell whose phase is swept")
    sweep.add_argument("--phase-start", type=float, default=0.0, help="first phase (radians)")
    sweep.add_argument("--phase-end", type=float, default=math.pi, help="last phase (radians)")
    sweep.add_argument("--steps", type=int, default=64, help="number of sweep points, inclusive")

    oc = sub.add_parser("oracle-check", formatter_class=fmt,
                        help="compare the engine against the classical automaton")
    _add_shared(oc)
    oc.add_argument("--generations", type=int, default=50, help="generations to compare")
    return parser


def _load(args: argparse.Namespace) -> Grid:
    g = parse_pattern(Path(args.pattern).read_text(encoding="utf-8")).grid
    return g if args.boundary is None else g.with_boundary(Boundary(args.boundary))


def _cmd_run(args: argparse.Namespace) -> int:
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    suffix, frame = _FRAMES[args.format]
    for gen, g in enumerate(evolve(_load(args), args.generations)):
        (outdir / f"gen_{gen:05d}.{suffix}").write_bytes(frame(g))
    print(f"final total alive probability: {float(g.alive_probability().sum()):.17g}")
    return EXIT_OK


def _cmd_analyze(args: argparse.Namespace) -> int:
    report = classify(_load(args), max_gen=args.generations, tol=args.tol,
                      dead_threshold=args.dead_threshold)
    print(json.dumps(dataclasses.asdict(report), sort_keys=True))
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    result = sweep_phase(_load(args), (args.cell[0], args.cell[1]), args.phases,
                         max_gen=args.generations, tol=args.tol,
                         dead_threshold=args.dead_threshold)
    print("phase_rad,verdict,death_generation")
    for theta, rep in zip(result.phases, result.reports):
        death = "" if rep.generation is None else str(rep.generation)
        print(f"{theta:.17g},{rep.verdict},{death}")
    if result.critical_angle_estimate is not None:
        print(f"# critical_angle_estimate = {result.critical_angle_estimate:.17g}")
    return EXIT_OK


def _cmd_oracle_check(args: argparse.Namespace) -> int:
    semi = _load(args)
    classical = np.all((semi.a == 1.0) & (semi.b == 0.0) | (semi.a == 0.0) & (semi.b == 1.0))
    if not classical:
        raise PatternError("non-classical token in pattern")
    boolean = project(semi)
    for gen in range(1, args.generations + 1):
        semi = step_grid(semi)
        boolean = conway_step(boolean)
        projected = project(semi)
        if projected != boolean:
            diff = projected.alive != boolean.alive
            ys, xs = np.nonzero(diff)
            x, y = int(xs[0]), int(ys[0])
            print(
                f"divergence at generation {gen}: cell ({x}, {y}) "
                f"engine={bool(projected.alive[y, x])} oracle={bool(boolean.alive[y, x])}",
                file=sys.stderr,
            )
            return EXIT_CHECK
    print(f"oracle check passed: {args.generations} generations")
    return EXIT_OK


_COMMANDS = {
    "run": _cmd_run,
    "analyze": _cmd_analyze,
    "sweep": _cmd_sweep,
    "oracle-check": _cmd_oracle_check,
}


def _validate(args: argparse.Namespace) -> None:
    """Raise _UsageError on arguments that are bad whatever the pattern; analyze and sweep
    run the library's checks, on the phases a sweep keeps as ``args.phases``."""
    if args.command in ("run", "oracle-check"):
        if args.generations < 0:
            raise _UsageError("generations must be >= 0")
        return
    try:
        _check_classify(args.generations, args.tol, args.dead_threshold)
        if args.command == "sweep":
            try:
                with np.errstate(all="ignore"):  # phases that overflow are refused as not finite
                    phases = np.linspace(args.phase_start, args.phase_end, args.steps)
            # numpy's refusal of a count, a MemoryError one it cannot allocate, names no flag
            except (ValueError, IndexError, MemoryError) as exc:
                raise _UsageError(f"--steps {args.steps}: {exc}") from None
            args.phases = _check_phases(phases.tolist())
    except ValueError as exc:  # name the flags, not the library parameters
        message = str(exc).replace("max_gen", "--generations")
        raise _UsageError(message.replace("dead_threshold", "--dead-threshold")) from None


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _validate(args)  # before the pattern is read: usage errors win over a missing file
        # warnings pass the active filters, then print as one line each, without a source location
        with warnings.catch_warnings(record=True) as caught:
            try:
                return _COMMANDS[args.command](args)
            finally:
                for text in dict.fromkeys(str(w.message) for w in caught):
                    print(f"warning: {text}", file=sys.stderr)
    # PatternError and UnicodeDecodeError are ValueErrors, so this clause must come first
    except (OSError, PatternError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (_UsageError, IndexError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
