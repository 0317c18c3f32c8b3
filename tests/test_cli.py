from __future__ import annotations

import contextlib
import dataclasses
import gc
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
import weakref
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from phasorlife import (
    FateReport, analysis, cli, parse_pattern, render_ascii, render_csv, render_ppm,
)
from phasorlife.cli import main
from cli_transcript import TRANSCRIPT_PATH, invocations, replay
from conftest import PATTERNS_DIR


def pattern(name: str) -> str:
    return str(PATTERNS_DIR / name)


# the row runs into both side columns of the fixed grid
def line_pattern(tmp_path):
    sqp = tmp_path / "line.sqp"
    sqp.write_text("version 1\nsize 4 3\nboundary fixed\ncells\n"
                   ". . . .\n> > > >\n. . . .\n")
    return sqp


BORDER_WARNING = ("warning: live amplitude on the fixed boundary; "
                  "the finite grid truncates the dynamics\n")


class TestRun:
    def test_dying_block_final_frame_dead(self, tmp_path, capsys):
        out = tmp_path / "frames"
        rc = main([
            "run", "--pattern", pattern("block_phase_pi.sqp"),
            "--generations", "2", "--output", str(out), "--format", "csv",
        ])
        assert rc == 0
        frames = sorted(p.name for p in out.iterdir())
        assert frames == ["gen_00000.csv", "gen_00001.csv", "gen_00002.csv"]
        last = (out / "gen_00002.csv").read_text().splitlines()[1:]
        assert all(float(line.split(",")[-1]) < 1e-6 for line in last)
        summary = capsys.readouterr().out
        assert "final total alive probability" in summary

    def test_frames_and_steps(self, tmp_path):
        out = tmp_path / "frames"
        with mock.patch.object(analysis, "step_grid", wraps=analysis.step_grid) as step:
            rc = main(["run", "--pattern", pattern("blinker.sqp"), "--generations", "4",
                       "--output", str(out)])
        assert rc == 0
        assert len(list(out.iterdir())) == 5
        assert step.call_count == 4

    def test_empty_pattern_frames_identical(self, tmp_path):
        sqp = tmp_path / "empty.sqp"
        sqp.write_text("version 1\nsize 3 3\nboundary fixed\ncells\n. . .\n. . .\n. . .\n")
        out = tmp_path / "frames"
        rc = main(["run", "--pattern", str(sqp), "--generations", "10",
                   "--output", str(out), "--format", "ascii"])
        assert rc == 0
        frames = sorted(out.iterdir())
        assert len(frames) == 11
        contents = {p.read_bytes() for p in frames}
        assert len(contents) == 1

    def test_still_life_frame_100_equals_frame_0(self, tmp_path):
        out = tmp_path / "frames"
        rc = main(["run", "--pattern", pattern("block.sqp"), "--generations", "100",
                   "--output", str(out), "--format", "csv"])
        assert rc == 0
        assert (out / "gen_00100.csv").read_bytes() == (out / "gen_00000.csv").read_bytes()

    @pytest.mark.parametrize("canonicalize", [False, True])
    def test_canonicalize_dead_phase(self, tmp_path, capsys, canonicalize):
        out = tmp_path / "frames"
        flag = ["--canonicalize-dead-phase"] if canonicalize else []
        assert main(["run", "--pattern", pattern("block_phase_3pi4.sqp"), "--generations", "3",
                     "--output", str(out), "--format", "csv", *flag]) == 0
        capsys.readouterr()
        for gen in range(4):
            rows = [line.split(",") for line in
                    (out / f"gen_{gen:05d}.csv").read_text().splitlines()[1:]]
            re_b, im_b = [float(r[4]) for r in rows], [float(r[5]) for r in rows]
            if canonicalize:
                assert all(im == 0.0 for im in im_b) and all(re >= 0.0 for re in re_b)
            elif gen > 0:
                # the out-of-phase cell leaves a phase on the dead coefficient of three cells
                assert sum(im != 0.0 for im in im_b) == 3

    def test_identical_invocations_byte_identical(self, tmp_path):
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            main(["run", "--pattern", pattern("loop.sqp"), "--generations", "3",
                  "--output", str(out), "--format", "ppm"])
            outs.append(b"".join(p.read_bytes() for p in sorted(out.iterdir())))
        assert outs[0] == outs[1]

    def test_missing_pattern_is_io_error(self, tmp_path, capsys):
        rc = main(["run", "--pattern", str(tmp_path / "nope.sqp")])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_non_utf8_pattern_is_io_error(self, tmp_path, capsys):
        sqp = tmp_path / "latin1.sqp"
        sqp.write_bytes(b"# name: caf\xe9\nversion 1\nsize 1 1\nboundary fixed\ncells\n.\n")
        rc = main(["analyze", "--pattern", str(sqp)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_malformed_pattern_is_io_error(self, tmp_path, capsys):
        sqp = tmp_path / "bad.sqp"
        sqp.write_text("version 1\nsize 2 1\nboundary fixed\ncells\n. ?\n")
        rc = main(["run", "--pattern", str(sqp)])
        assert rc == 2

    @pytest.mark.parametrize("fmt,suffix,frame", [
        ("ascii", "txt", lambda g: render_ascii(g).encode("utf-8")),
        ("ppm", "ppm", render_ppm),
        ("csv", "csv", lambda g: render_csv(g).encode("utf-8")),
    ])
    def test_frame_is_the_renderers_bytes(self, tmp_path, fmt, suffix, frame):
        out = tmp_path / "frames"
        rc = main(["run", "--pattern", pattern("block_phase_quarter.sqp"), "--generations", "0",
                   "--output", str(out), "--format", fmt])
        assert rc == 0
        assert [p.name for p in out.iterdir()] == [f"gen_00000.{suffix}"]
        doc = parse_pattern((PATTERNS_DIR / "block_phase_quarter.sqp").read_text(encoding="utf-8"))
        assert (out / f"gen_00000.{suffix}").read_bytes() == frame(doc.grid)

    def test_bad_flag_is_usage_error(self, capsys):
        rc = main(["run", "--pattern", pattern("block.sqp"), "--format", "jpeg"])
        assert rc == 1

    def test_negative_generations_is_usage_error(self):
        rc = main(["run", "--pattern", pattern("block.sqp"), "--generations", "-1"])
        assert rc == 1

    def test_bad_dead_threshold_is_usage_error(self):
        rc = main(["analyze", "--pattern", pattern("block.sqp"), "--dead-threshold", "0.9"])
        assert rc == 1


class TestAnalyze:
    def run_json(self, capsys, *args):
        rc = main(["analyze", *args])
        assert rc == 0
        return json.loads(capsys.readouterr().out)

    def test_loop_still_life(self, capsys):
        data = self.run_json(capsys, "--pattern", pattern("loop.sqp"))
        assert data["verdict"] == "still_life"

    def test_dying_block_reports_generation(self, capsys):
        data = self.run_json(capsys, "--pattern", pattern("block_phase_3pi4.sqp"))
        assert data["verdict"] == "dead"
        assert data["generation"] == 3

    def test_blinker_oscillator(self, capsys):
        data = self.run_json(capsys, "--pattern", pattern("blinker.sqp"))
        assert data["verdict"] == "oscillator"
        assert data["period"] == 2

    def test_keys_are_the_report_fields(self, capsys):
        data = self.run_json(capsys, "--pattern", pattern("blinker.sqp"))
        assert sorted(data) == sorted(f.name for f in dataclasses.fields(FateReport))

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tol_is_usage_error(self, capsys, tol):
        rc = main(["analyze", "--pattern", pattern("blinker.sqp"), "--tol", tol])
        assert rc == 1
        assert "tol" in capsys.readouterr().err

    @pytest.mark.filterwarnings("default:live amplitude:RuntimeWarning")
    def test_boundary_override(self, capsys, tmp_path):
        sqp = line_pattern(tmp_path)
        assert main(["analyze", "--pattern", str(sqp)]) == 0
        captured = capsys.readouterr()
        assert captured.err == BORDER_WARNING
        fixed = json.loads(captured.out)
        torus = self.run_json(capsys, "--pattern", str(sqp), "--boundary", "torus")
        assert fixed["verdict"] != torus["verdict"] or fixed["generation"] != torus.get("generation")


class TestSweep:
    def test_block_sweep_csv(self, capsys):
        rc = main(["sweep", "--pattern", pattern("block.sqp"), "--cell", "3", "3",
                   "--phase-start", "0", "--phase-end", str(math.pi), "--steps", "64"])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "phase_rad,verdict,death_generation"
        data_rows = [l for l in out[1:] if not l.startswith("#")]
        assert len(data_rows) == 64
        comment = [l for l in out if l.startswith("# critical_angle_estimate")]
        assert len(comment) == 1
        estimate = float(comment[0].split("=")[1])
        # transition sits where the in-phase neighbor sum magnitude crosses 2
        assert abs(estimate - math.acos(-0.25)) <= math.pi / 63

    def test_single_step_sweep(self, capsys):
        rc = main(["sweep", "--pattern", pattern("block.sqp"), "--cell", "3", "3",
                   "--steps", "1"])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert len([l for l in out[1:] if l and not l.startswith("#")]) == 1

    # each of the three classifications warns; the text is printed once, or
    # not at all where the active filters ignore it
    @pytest.mark.parametrize("action,err", [
        ("always", BORDER_WARNING), ("default", BORDER_WARNING), ("ignore", ""),
    ], ids=["always", "default", "ignore"])
    def test_border_warning_is_one_line(self, capsys, tmp_path, action, err):
        sqp = line_pattern(tmp_path)
        with warnings.catch_warnings():
            warnings.filterwarnings(action, message="live amplitude", category=RuntimeWarning)
            rc = main(["sweep", "--pattern", str(sqp), "--cell", "0", "1", "--steps", "3"])
        assert rc == 0
        assert capsys.readouterr().err == err

    def test_dead_cell_is_usage_error(self, capsys):
        rc = main(["sweep", "--pattern", pattern("block.sqp"), "--cell", "0", "0"])
        assert rc == 1

    def test_bad_range_is_usage_error(self):
        rc = main(["sweep", "--pattern", pattern("block.sqp"), "--cell", "3", "3",
                   "--phase-start", "2.0", "--phase-end", "1.0"])
        assert rc == 1

    # argparse's own negative-number pattern took these for option names
    @pytest.mark.parametrize("start", ["-1e-3", "-1E+0"])
    def test_negative_exponent_phase_is_a_value(self, capsys, start):
        rc = main(["sweep", "--pattern", pattern("block.sqp"), "--cell", "3", "3",
                   "--phase-start", start, "--steps", "2"])
        assert rc == 0
        rows = capsys.readouterr().out.splitlines()
        assert float(rows[1].split(",")[0]) == float(start)

    # a NaN bound used to slip past the range check and fail later, after a
    # numpy warning, as "coefficients must be finite" or "must be strictly increasing"
    @pytest.mark.parametrize("bound", [
        ["--phase-start", "nan", "--steps", "3"],
        ["--phase-end", "inf", "--steps", "3"],
        ["--phase-start=-inf", "--steps", "1"],
        ["--phase-end", "nan", "--steps", "1"],
        ["--phase-start", "-inf", "--steps", "1"],
        ["--phase-start", "-nan", "--steps", "3"],
    ])
    def test_non_finite_phase_is_usage_error(self, capsys, bound):
        rc = main(["sweep", "--pattern", pattern("block.sqp"), "--cell", "3", "3", *bound])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: phases must be finite\n"

    # the checks run on the phases numpy builds, before the pattern is read: 64 points
    # between adjacent floats repeat, and finite ends 2e308 apart overflow the spacing
    @pytest.mark.parametrize("bound,message", [
        (["--phase-start", "1", "--phase-end", "1.0000000000000002", "--steps", "64"],
         "phases must be strictly increasing"),
        (["--phase-start", "-1e308", "--phase-end", "1e308", "--steps", "3"],
         "phases must be finite"),
    ], ids=["repeated-phases", "overflowed-spacing"])
    @pytest.mark.parametrize("sqp", ["block.sqp", "missing.sqp"])
    def test_phases_numpy_builds_are_checked_first(self, capsys, tmp_path, bound, message, sqp):
        path = pattern(sqp) if sqp == "block.sqp" else str(tmp_path / sqp)
        rc = main(["sweep", "--pattern", path, "--cell", "3", "3", *bound])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"usage error: {message}\n"


class TestOracleCheck:
    def test_glider_passes(self, capsys):
        rc = main(["oracle-check", "--pattern", pattern("glider.sqp"),
                   "--generations", "100"])
        assert rc == 0
        assert "passed" in capsys.readouterr().out

    def test_r_pentomino_passes(self):
        rc = main(["oracle-check", "--pattern", pattern("r_pentomino.sqp"),
                   "--generations", "50"])
        assert rc == 0

    def test_non_classical_token_rejected(self, tmp_path, capsys):
        sqp = tmp_path / "frac.sqp"
        sqp.write_text("version 1\nsize 2 1\nboundary fixed\ncells\n0.5@0 .\n")
        rc = main(["oracle-check", "--pattern", str(sqp)])
        assert rc == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: non-classical token in pattern\n")

    def test_divergence_exits_3(self, tmp_path, capsys, monkeypatch):
        # force a divergence by sabotaging the engine step
        import phasorlife.cli as cli

        def broken(g, *args):
            return g

        monkeypatch.setattr(cli, "step_grid", broken)
        rc = main(["oracle-check", "--pattern", pattern("blinker.sqp"),
                   "--generations", "3"])
        assert rc == 3
        assert "divergence at generation 1" in capsys.readouterr().err


class TestGridLifetime:
    """run and oracle-check hold two grids while they step: generation 0 goes once stepped past."""

    @pytest.mark.parametrize("command", [
        ["oracle-check"], ["run", "--format", "csv", "--output", "{out}"],
    ], ids=["oracle-check", "run"])
    def test_generation_zero_is_freed_by_the_second_step(self, tmp_path, capsys, monkeypatch,
                                                         command):
        parsed, alive = [], []

        def parse(text):
            doc = parse_pattern(text)
            parsed.append(weakref.ref(doc.grid.a))
            return doc

        # plain functions, not mocks: a mock keeps every argument it was called with
        def step(g, *args):
            gc.collect()
            alive.append(parsed[0]() is not None)
            return real_step(g, *args)

        real_step = cli.step_grid
        monkeypatch.setattr(cli, "parse_pattern", parse)
        monkeypatch.setattr(cli, "step_grid", step)
        monkeypatch.setattr(analysis, "step_grid", step)
        argv = [arg.format(out=tmp_path / "frames") for arg in command]
        assert main([*argv, "--pattern", pattern("glider.sqp"), "--generations", "3"]) == 0
        capsys.readouterr()
        # the first step reads generation 0; by the second nothing holds it
        assert alive == [True, False, False]


class TestHelp:
    def test_help_lists_defaults(self, capsys):
        with pytest.raises(SystemExit):
            main(["analyze", "--help"])
        text = capsys.readouterr().out
        assert "default: 200" in text
        assert "1e-06" in text


class TestExitPaths:
    # usage is checked before the pattern is read, so each row with a missing file exits 1
    @pytest.mark.parametrize("argv,code", [
        (["run", "--pattern", "{block}", "--output", "{taken}"], 2),
        (["sweep", "--pattern", "{block}", "--cell", "9", "0"], 1),
        (["analyze", "--pattern", "{block}", "--generations", "0"], 1),
        (["sweep", "--pattern", "{missing}", "--cell", "3", "3", "--steps", "0"], 1),
        (["analyze", "--pattern", "{missing}", "--dead-threshold", "0.9"], 1),
        (["sweep", "--pattern", "{missing}", "--cell", "3", "3", "--dead-threshold", "nan"], 1),
        (["analyze", "--pattern", "{missing}", "--tol", "0"], 1),
        (["sweep", "--pattern", "{missing}", "--cell", "3", "3", "--tol", "nan"], 1),
        (["sweep", "--pattern", "{missing}", "--cell", "3", "3", "--generations", "0"], 1),
        (["sweep", "--pattern", "{block}", "--cell", "3", "3", "--generations", "0"], 1),
        (["run", "--pattern", "{block}", "--output", "{out}", "--dead-threshold", "0.1"], 1),
        (["oracle-check", "--pattern", "{block}", "--dead-threshold", "0.1"], 1),
        (["oracle-check", "--pattern", "{block}", "--canonicalize-dead-phase"], 1),
    ], ids=["output-is-a-file", "cell-off-grid", "analyze-zero-generations",
            "sweep-zero-steps-before-missing-pattern", "dead-threshold-before-missing-pattern",
            "sweep-nan-dead-threshold-before-missing-pattern",
            "analyze-zero-tol-before-missing-pattern", "sweep-nan-tol-before-missing-pattern",
            "sweep-zero-generations-before-missing-pattern", "sweep-zero-generations",
            "run-takes-no-dead-threshold", "oracle-check-takes-no-dead-threshold",
            "oracle-check-takes-no-canonicalize-dead-phase"])
    def test_exit_code(self, tmp_path, capsys, argv, code):
        taken = tmp_path / "taken"
        taken.write_text("")
        paths = {"block": pattern("block.sqp"), "taken": str(taken),
                 "missing": str(tmp_path / "nope.sqp"), "out": str(tmp_path / "frames")}
        assert main([arg.format(**paths) for arg in argv]) == code
        err = capsys.readouterr().err
        assert err.startswith("usage error: " if code == 1 else "error: ")
        # the message names the flag, not the library parameter behind it
        assert "max_gen" not in err
        assert "dead_threshold" not in err


class TestTracedNames:
    """The benchmark tracer replaces these module attributes; each must be looked up per call."""

    TRACED = [(cli, name) for name in ("parse_pattern", "step_grid", "classify", "sweep_phase",
                                       "render_ascii", "render_ppm", "render_csv",
                                       "conway_step", "project")]
    TRACED += [(analysis, "step_grid"), (analysis, "classify")]

    def test_every_traced_name_is_called(self, tmp_path, capsys):
        glider, block = pattern("glider.sqp"), pattern("block.sqp")
        with contextlib.ExitStack() as stack:
            wrappers = {
                f"{module.__name__}.{name}": stack.enter_context(
                    mock.patch.object(module, name, wraps=getattr(module, name)))
                for module, name in self.TRACED
            }
            for fmt in ("ascii", "ppm", "csv"):
                assert main(["run", "--pattern", glider, "--generations", "1",
                             "--format", fmt, "--output", str(tmp_path / fmt)]) == 0
            assert main(["analyze", "--pattern", glider, "--generations", "8"]) == 0
            assert main(["sweep", "--pattern", block, "--cell", "3", "3", "--steps", "2",
                         "--generations", "8"]) == 0
            assert main(["oracle-check", "--pattern", glider, "--generations", "2"]) == 0
        assert [name for name, wrapper in wrappers.items() if not wrapper.called] == []


GLIDER_LINES = (PATTERNS_DIR / "glider.sqp").read_text(encoding="utf-8").splitlines()
FUZZ_TOKENS = [".", ">", "<", "^", "v", "0.5@90", "1@0", "0@0", "1@-359.9", "2@0", "-0.5@0",
               "1@360", "nan@0", "inf@0", "1@nan", "1e-320@1e300", "@", "1@", "x", "é", "1@2@3",
               "", ". ."]
FUZZ_HEADERS = ["version 1", "version 2", "version", "version 01", "size 20 20", "size 3 3",
                "size 0 20", "size -1 4", "size 20 21", "size 1e3 2", "size 20", "boundary torus",
                "boundary fixed", "boundary klein", "cells", "cells 1", "# name: x", ""]


@st.composite
def mutated_glider(draw) -> str:
    """glider.sqp with tokens replaced, header lines swapped in, lines deleted or duplicated."""
    lines = list(GLIDER_LINES)
    for _ in range(draw(st.integers(1, 4))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["token", "header", "delete", "duplicate"]))
        if kind == "token":
            tokens = lines[i].split() or [""]
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(FUZZ_TOKENS))
            lines[i] = " ".join(tokens)
        elif kind == "header":
            lines[i] = draw(st.sampled_from(FUZZ_HEADERS))
        elif kind == "delete":
            del lines[i]
        else:
            lines.insert(i, lines[i])
    return "\n".join(lines) + "\n"


class TestMutationFuzz:
    """Any mutated pattern under any command exits with a documented code and no traceback."""

    # 60 examples take about 1 s; 1,500 unseeded ones (12,000 calls) passed when this was written
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(text=mutated_glider(), fmt=st.sampled_from(["ascii", "ppm", "csv"]))
    def test_exit_codes(self, text, fmt):
        with tempfile.TemporaryDirectory() as tmp:
            sqp = os.path.join(tmp, "mutated.sqp")
            with open(sqp, "w", encoding="utf-8") as f:
                f.write(text)
            commands = [
                ["run", "--generations", "2", "--format", fmt, "--output", os.path.join(tmp, "out")],
                ["analyze", "--generations", "8"],
                ["sweep", "--cell", "2", "1", "--steps", "2", "--generations", "8"],
                ["oracle-check", "--generations", "4"],
            ]
            for command in commands:
                for boundary in ("torus", "fixed"):
                    argv = [*command, "--pattern", sqp, "--boundary", boundary]
                    # as from the shell: a warning prints to stderr, it does not raise
                    with contextlib.redirect_stdout(io.StringIO()), \
                            contextlib.redirect_stderr(io.StringIO()), warnings.catch_warnings():
                        warnings.simplefilter("default")
                        code = main(argv)
                    assert code in (0, 1, 2, 3), argv


class TestEntryPoint:
    @staticmethod
    def run_module(argv, cwd, module="phasorlife"):
        """``python -m module *argv`` in a child that imports the package from ``src``."""
        src = str(PATTERNS_DIR.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        return subprocess.run([sys.executable, "-m", module, *argv], cwd=cwd, env=env,
                              capture_output=True, text=True, timeout=120)

    @pytest.mark.parametrize("argv,code", [
        (["oracle-check", "--pattern", pattern("glider.sqp"), "--generations", "5"], 0),
        (["run", "--pattern", pattern("block.sqp"), "--format", "jpeg"], 1),
        (["run", "--pattern", "nope.sqp"], 2),
    ])
    def test_exit_code_reaches_the_shell(self, tmp_path, argv, code):
        proc = self.run_module(argv, tmp_path)
        assert proc.returncode == code, proc.stderr

    @pytest.mark.parametrize("argv,code", [
        (["oracle-check", "--pattern", pattern("glider.sqp"), "--generations", "5"], 0),
        (["run", "--pattern", "nope.sqp"], 2),
    ])
    def test_cli_module_runs_as_a_script(self, tmp_path, argv, code):
        proc = self.run_module(argv, tmp_path, module="phasorlife.cli")
        assert proc.returncode == code, proc.stderr

    def test_module_run_analyzes_the_glider(self):
        proc = self.run_module(["analyze", "--pattern", "patterns/glider.sqp"], PATTERNS_DIR.parent)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["verdict"] == "translating"


TRANSCRIPT = json.loads(TRANSCRIPT_PATH.read_text(encoding="utf-8"))


class TestTranscript:
    """Every command on every shipped pattern gives the recorded exit code, output and frames."""

    def test_covers_every_invocation(self):
        assert sorted(TRANSCRIPT) == sorted(" ".join(argv) for argv in invocations())

    @pytest.mark.parametrize("key", sorted(TRANSCRIPT))
    def test_replays(self, key):
        assert replay(key.split(" ")) == TRANSCRIPT[key]
