"""The input generator is a pure function of the seed.

    python3 -m pytest benchmarks/tests -q
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402

ROOT = BENCH.parent


def _files(workload, seed, out):
    return {p.name: p.read_bytes() for p in gen.write_inputs(workload, seed, out, ROOT)}


def test_same_seed_gives_identical_bytes(tmp_path):
    for workload in ("frames256", "soup1024", "fate_rpent"):
        first = _files(workload, 5, tmp_path / "a" / workload)
        second = _files(workload, 5, tmp_path / "b" / workload)
        assert first == second


def test_seed_selects_variant():
    assert gen.frames_pattern(3) == gen.frames_pattern(3 + gen.VARIANTS)
    assert gen.frames_pattern(3) != gen.frames_pattern(4)
    assert gen.soup_pattern(3) != gen.soup_pattern(4)
    assert gen.sweep_offset(3) != gen.sweep_offset(4)


def test_generated_patterns_parse_to_the_stated_size():
    from phasorlife import Boundary, parse_pattern

    doc = parse_pattern(gen.frames_pattern(7))
    assert (doc.grid.width, doc.grid.height) == (gen.FRAMES_SIZE, gen.FRAMES_SIZE)
    assert doc.grid.boundary is Boundary.TORUS
    assert 0.45 < float((doc.grid.alive_probability() > 0).mean()) < 0.55
