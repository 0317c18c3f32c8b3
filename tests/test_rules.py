from __future__ import annotations

import cmath
import contextlib
import gc
import math
import sys
import threading
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phasorlife import rules
from phasorlife.state import NORM_TOL
from phasorlife import (
    ALIVE,
    DEAD,
    Boundary,
    CellState,
    Grid,
    NeighborSum,
    apply_birth,
    apply_death,
    apply_survival,
    dual_step_grid,
    measure_alive_probability,
    neighbor_sum,
    operator_weights,
    parse_pattern,
    step_cell,
    step_grid,
    swap_components,
)
from conftest import native_and_baseline, random_grid, step_on_cpus
import step_reference as reference

SQ2 = math.sqrt(2.0)
SQ2P1 = SQ2 + 1.0


def cell_grid(width, height, live, boundary=Boundary.FIXED_DEAD):
    """live: dict (x, y) -> complex a value; b = 0 for live cells."""
    a = np.zeros((height, width), complex)
    b = np.ones((height, width), complex)
    for (x, y), v in live.items():
        a[y, x] = v
        b[y, x] = 0
    return Grid(a, b, boundary)


def block(theta=None):
    """2x2 block centered in a 6x6 dead grid; optional phase on one corner."""
    live = {(2, 2): 1, (3, 2): 1, (2, 3): 1, (3, 3): 1}
    if theta is not None:
        live[(3, 3)] = cmath.exp(1j * theta)
    return cell_grid(6, 6, live)


class TestNeighborSum:
    def test_all_dead(self):
        ns = neighbor_sum(Grid.dead(3, 3), 1, 1)
        assert ns.alpha == 0
        assert ns.A == 0
        assert ns.phi == 0

    def test_opposite_phases_cancel(self):
        g = cell_grid(3, 3, {(0, 1): 1, (2, 1): -1})
        ns = neighbor_sum(g, 1, 1)
        assert ns.alpha == 0

    def test_three_in_phase(self):
        g = cell_grid(3, 3, {(0, 0): 1, (1, 0): 1, (2, 0): 1})
        ns = neighbor_sum(g, 1, 1)
        assert ns.alpha == 3
        assert ns.A == 3
        assert ns.phi == 0

    def test_interfering_triple(self):
        # |2 + e^(i 2pi/3)| = sqrt(5 + 4 cos 2pi/3) = sqrt(3), arg = pi/6
        g = cell_grid(3, 3, {(0, 0): 1, (1, 0): 1, (2, 0): cmath.exp(2j * math.pi / 3)})
        ns = neighbor_sum(g, 1, 1)
        assert ns.A == pytest.approx(math.sqrt(5 + 4 * math.cos(2 * math.pi / 3)), abs=1e-12)
        assert ns.A == pytest.approx(math.sqrt(3), abs=1e-12)
        assert ns.phi == pytest.approx(math.pi / 6, abs=1e-12)

    def test_torus_wraps(self):
        g = cell_grid(3, 3, {(0, 0): 1}, Boundary.TORUS)
        ns = neighbor_sum(g, 2, 2)
        assert ns.alpha == 1

    def test_fixed_excludes_off_grid(self):
        g = cell_grid(3, 3, {(0, 0): 1})
        ns = neighbor_sum(g, 2, 2)
        assert ns.alpha == 0

    def test_out_of_bounds(self):
        with pytest.raises(IndexError):
            neighbor_sum(Grid.dead(3, 3), 3, 0)

    def test_polar_consistency(self):
        ns = NeighborSum.from_alpha(1.5 - 2.2j)
        assert abs(ns.alpha - ns.A * cmath.exp(1j * ns.phi)) < 1e-12

    def test_phase_that_underflows(self):
        # three neighbors, one with a subnormal imaginary part: the angle rounds to
        # +0, where cmath.phase raises OverflowError
        ns = NeighborSum.from_alpha(complex(math.nextafter(3.0, 0.0), 5e-324))
        assert ns.phi == 0.0 and not math.copysign(1.0, ns.phi) < 0


class TestOperatorWeights:
    def test_pure_survival_at_two(self):
        w = operator_weights(2.0)
        assert (w.w_B, w.w_S, w.w_D) == (0.0, 1.0, 0.0)

    def test_pure_birth_at_three(self):
        w = operator_weights(3.0)
        assert (w.w_B, w.w_S, w.w_D) == (1.0, 0.0, 0.0)

    def test_equal_birth_death_mixture(self):
        w = operator_weights(3 + 1 / SQ2)
        assert w.w_B == pytest.approx(1 / SQ2, abs=1e-12)
        assert w.w_D == pytest.approx(1 / SQ2, abs=1e-12)
        assert w.w_S == 0.0

    def test_low_density_death(self):
        assert operator_weights(0.5) == operator_weights(0.0)
        assert (operator_weights(0.5).w_B, operator_weights(0.5).w_S) == (0.0, 0.0)
        assert operator_weights(0.5).w_D == 1.0

    def test_survival_birth_blend(self):
        w = operator_weights(2.5)
        assert w.w_B == pytest.approx(0.5, abs=1e-12)
        assert w.w_S == pytest.approx(SQ2P1 * 0.5, abs=1e-12)
        assert w.w_D == 0.0

    def test_overcrowding_death(self):
        for A in (4.0, 5.5, 8.0):
            assert operator_weights(A).w_D == 1.0

    @pytest.mark.parametrize("A", [-0.1, -5e-324, 8.1, 8.0 + 1e-8, math.inf, math.nan])
    def test_rejects_out_of_range(self, A):
        with pytest.raises(ValueError):
            operator_weights(A)

    def test_rounding_above_eight_is_overcrowding(self):
        A = math.nextafter(8.0, math.inf)
        assert operator_weights(A) == operator_weights(8.0)
        assert operator_weights(8.0 + rules.A_ROUNDING_SLACK) == operator_weights(8.0)

    def test_eight_in_tolerance_neighbors_are_overcrowding(self):
        assert operator_weights(rules.A_MAX) == operator_weights(8.0)
        with pytest.raises(ValueError):
            operator_weights(math.nextafter(rules.A_MAX, math.inf))

    def test_scalar_steps_a_grid_of_in_tolerance_cells(self):
        # |a|^2 = 1 + 0.9e-9 passes is_normalized, and eight such neighbors sum past
        # 8 + A_ROUNDING_SLACK
        a = math.sqrt(1.0 + 0.9e-9)
        g = Grid(np.full((3, 3), a, dtype=complex), np.zeros((3, 3), dtype=complex),
                 Boundary.TORUS)
        assert g.is_normalized()
        stepped = step_grid(g)
        for y in range(3):
            for x in range(3):
                c = step_cell(g.cell(x, y), neighbor_sum(g, x, y))
                assert c == stepped.cell(x, y) == CellState(0j, 1 + 0j)

    def test_at_most_two_nonzero_and_integer_purity(self):
        rng = np.random.default_rng(3)
        for A in rng.uniform(0, 8, 500):
            w = operator_weights(float(A))
            nonzero = sum(1 for v in (w.w_B, w.w_S, w.w_D) if v > 1e-12)
            assert nonzero <= 2
            assert min(w.w_B, w.w_S, w.w_D) >= 0.0
        for A in range(9):
            w = operator_weights(float(A))
            nonzero = sum(1 for v in (w.w_B, w.w_S, w.w_D) if v > 1e-12)
            assert nonzero == 1


class TestOperators:
    def test_birth_from_dead(self):
        ra, rb = apply_birth(DEAD, math.pi / 4)
        assert abs(ra - cmath.exp(1j * math.pi / 4)) < 1e-12
        assert rb == 0

    def test_birth_on_alive_is_identity(self):
        for phi in (0.0, 1.0, -2.5):
            ra, rb = apply_birth(ALIVE, phi)
            assert (ra, rb) == (1, 0)

    def test_birth_on_superposition(self):
        c = CellState(1 / SQ2 + 0j, 1 / SQ2 + 0j)
        ra, rb = apply_birth(c, 0.0)
        assert abs(ra - SQ2) < 1e-12
        assert rb == 0

    def test_death_of_alive(self):
        ra, rb = apply_death(ALIVE, 0.0)
        assert (ra, rb) == (0, 1)

    def test_death_on_dead_is_identity(self):
        for phi in (0.0, 2.0, -1.0):
            ra, rb = apply_death(DEAD, phi)
            assert (ra, rb) == (0, 1)

    def test_death_stamps_phase(self):
        ra, rb = apply_death(CellState(-1 + 0j, 0j), math.pi)
        assert ra == 0
        assert abs(rb + 1) < 1e-12

    @pytest.mark.parametrize(
        "cell", [ALIVE, DEAD, CellState(0.6j, 0.8 + 0j)]
    )
    def test_survival_identity(self, cell):
        assert apply_survival(cell) == (cell.a, cell.b)


class TestStepCell:
    def test_survival_at_two(self):
        out = step_cell(ALIVE, NeighborSum.from_alpha(2 + 0j))
        assert out == ALIVE

    def test_birth_stamps_neighborhood_phase(self):
        out = step_cell(DEAD, NeighborSum.from_alpha(3 * cmath.exp(1j * math.pi / 3)))
        assert abs(out.a - cmath.exp(1j * math.pi / 3)) < 1e-12
        assert abs(out.b) < 1e-12

    @pytest.mark.parametrize("cell", [ALIVE, DEAD])
    def test_equal_superposition_from_both_states(self, cell):
        ns = NeighborSum.from_alpha(3 + 1 / SQ2)
        out = step_cell(cell, ns)
        assert measure_alive_probability(out) == pytest.approx(0.5, abs=1e-12)
        assert abs(out.a - 1 / SQ2) < 1e-12
        assert abs(out.b - 1 / SQ2) < 1e-12

    def test_canonicalize_dead_phase(self):
        out = step_cell(ALIVE, NeighborSum.from_alpha(1j), canonicalize_dead_phase=True)
        assert out.b.imag == 0.0
        assert out.b.real >= 0.0


class TestStepGrid:
    def test_block_is_exact_still_life(self):
        g = block()
        g2 = step_grid(g)
        assert np.array_equal(g.a, g2.a)
        assert np.array_equal(g.b, g2.b)

    def test_phase_flipped_block_dies_in_two(self):
        g = block(math.pi)
        g1 = step_grid(g)
        live = g1.alive_probability() > 1e-6
        assert live.sum() == 1
        assert live[3, 3]
        g2 = step_grid(g1)
        assert g2.alive_probability().max() < 1e-6

    def test_empty_grid_stays_empty(self):
        g = Grid.dead(5, 4)
        g2 = step_grid(g)
        assert np.array_equal(g2.a, g.a)
        assert np.array_equal(g2.b, g.b)

    def test_input_grid_untouched(self):
        g = block(math.pi)
        before = g.a.copy()
        step_grid(g)
        assert np.array_equal(g.a, before)

    @pytest.mark.parametrize("w,h", [(6, 5), (1, 1), (2, 2), (1, 4)])
    def test_matches_per_cell_step(self, w, h):
        # includes tiny tori, where the wrapped neighborhood aliases onto itself
        rng = np.random.default_rng(11)
        for boundary in (Boundary.FIXED_DEAD, Boundary.TORUS):
            g = random_grid(rng, w, h, boundary)
            stepped = step_grid(g)
            for y in range(g.height):
                for x in range(g.width):
                    expected = step_cell(g.cell(x, y), neighbor_sum(g, x, y))
                    got = stepped.cell(x, y)
                    assert abs(got.a - expected.a) < 1e-12
                    assert abs(got.b - expected.b) < 1e-12

    def test_neighbor_sum_rounding_past_eight(self):
        # eight in-phase neighbors at -358.8923 degrees sum to A = 8.000000000000002
        rows = "\n".join(["1@-358.8923 " * 3] * 3)
        g = parse_pattern(f"version 1\nsize 3 3\nboundary torus\ncells\n{rows}\n").grid
        assert neighbor_sum(g, 1, 1).A > 8.0
        stepped = step_grid(g)
        for y in range(3):
            for x in range(3):
                expected = step_cell(g.cell(x, y), neighbor_sum(g, x, y))
                assert abs(stepped.cell(x, y).a - expected.a) < 1e-12
                assert abs(stepped.cell(x, y).b - expected.b) < 1e-12

    @pytest.mark.parametrize("stepper", [step_grid, dual_step_grid])
    def test_thread_pool_capped_at_cpu_count(self, stepper):
        pools = []

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                super().__init__(max_workers=max_workers)
                self.threads, self.tasks = max_workers, 0
                pools.append(self)

            def submit(self, fn, *args):
                self.tasks += 1
                return super().submit(fn, *args)

        g = random_grid(np.random.default_rng(13), 5, 20, Boundary.TORUS)
        base = step_on_cpus(stepper, 1, g)
        # budget 5 cuts the 5x20 grid into 20 one-row bands
        cases = [  # cpus, min bands per thread, pool threads
            (4, 8, 1), (4, 1, 3), (3, 1, 2), (2, 1, 1), (1, 1, 0), (64, 1, 19), (64, 7, 1),
            (64, 20, 0),
        ]
        with mock.patch.object(rules, "ThreadPoolExecutor", RecordingPool), \
                mock.patch.object(rules, "_BAND_CELLS", 5):
            for cpus, min_bands, helpers in cases:
                with mock.patch.object(rules, "_MIN_BANDS_PER_THREAD", min_bands):
                    other = step_on_cpus(stepper, cpus, g)
                if helpers:
                    pool = pools.pop()
                    # the caller steps a share of its own, so one task per helper
                    assert (pool.threads, pool.tasks) == (helpers, helpers)
                    assert helpers <= cpus - 1
                    assert helpers <= g.height // min_bands - 1
                assert not pools
                assert other.a.tobytes() == base.a.tobytes()
                assert other.b.tobytes() == base.b.tobytes()

    def test_a_stalled_thread_leaves_its_bands_to_the_other(self):
        # the helper stalls on its first band until the caller has stepped
        # every other band, which only a shared queue of bands lets it do
        g = random_grid(np.random.default_rng(15), 5, 20, Boundary.TORUS)
        base = step_on_cpus(step_grid, 1, g)
        step_band = rules._step_band
        caller, helper = [], []
        rest_done = threading.Event()

        def band(live, dead, *scratch_and_outputs):
            if threading.current_thread() is threading.main_thread():
                caller.append(live.shape)
                if len(caller) == g.height - 1:
                    rest_done.set()
            else:
                helper.append(live.shape)
                assert rest_done.wait(timeout=30)
            step_band(live, dead, *scratch_and_outputs)

        with mock.patch.object(rules, "_step_band", band), \
                mock.patch.object(rules, "_BAND_CELLS", 5), threads_on_every_band():
            got = step_on_cpus(step_grid, 2, g)
        # budget 5 cuts the 5x20 grid into 20 one-row bands, each stepped once
        assert len(caller) + len(helper) == g.height
        assert len(helper) <= 1
        assert got.a.tobytes() == base.a.tobytes()
        assert got.b.tobytes() == base.b.tobytes()

    @pytest.mark.parametrize("side", [40, 256])
    @pytest.mark.parametrize("stepper", [step_grid, dual_step_grid])
    def test_small_grids_stay_on_the_calling_thread(self, stepper, side):
        # 40x40 is one band and 256x256 two at the default budget: a helper
        # thread would cost its own malloc arena and save no time
        g = random_grid(np.random.default_rng(14), side, side, Boundary.TORUS)
        base = step_on_cpus(stepper, 1, g)
        with mock.patch.object(rules, "ThreadPoolExecutor", side_effect=AssertionError):
            for cpus in (2, 64):
                other = step_on_cpus(stepper, cpus, g)
                assert other.a.tobytes() == base.a.tobytes()
                assert other.b.tobytes() == base.b.tobytes()

    def test_second_thread_from_16_bands(self):
        # one thread per 8 bands: on two CPUs a 1024x512 grid (16 bands of
        # 32 rows) takes two threads, a 512x512 grid (8 bands) takes one
        helpers = []

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                super().__init__(max_workers=max_workers)
                helpers.append(max_workers)

        with mock.patch.object(rules, "ThreadPoolExecutor", RecordingPool), \
                mock.patch.object(rules, "_cpu_count", return_value=2):
            for w, h, expected in ((1024, 512, [1]), (512, 512, [])):
                g = random_grid(np.random.default_rng(16), w, h, Boundary.TORUS)
                base = step_on_cpus(step_grid, 1, g)
                assert not helpers
                got = step_grid(g)
                assert helpers == expected
                assert got.a.tobytes() == base.a.tobytes()
                assert got.b.tobytes() == base.b.tobytes()
                helpers.clear()

    @pytest.mark.parametrize("stepper", [step_grid, dual_step_grid])
    def test_threads_follow_every_cpu_the_process_may_use(self, stepper):
        g = random_grid(np.random.default_rng(15), 7, 9, Boundary.TORUS)
        base = step_on_cpus(stepper, 1, g)
        other = stepper(g)
        assert other.a.tobytes() == base.a.tobytes()
        assert other.b.tobytes() == base.b.tobytes()
        affinity = getattr(rules.os, "sched_getaffinity", None)
        expected = len(affinity(0)) if affinity else rules.os.cpu_count() or 1
        assert rules._cpu_count() == expected

    @pytest.mark.parametrize("cpus,expected", [(3, 3), (None, 1)])
    def test_cpu_count_without_an_affinity_api(self, monkeypatch, cpus, expected):
        # macOS and Windows have no os.sched_getaffinity; os.cpu_count may be None
        monkeypatch.delattr(rules.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(rules.os, "cpu_count", lambda: cpus)
        assert rules._cpu_count() == expected

    @pytest.mark.parametrize("stepper", [step_grid, dual_step_grid])
    def test_cpu_affinity_caps_the_threads(self, stepper):
        # one-row bands cut the 8x64 grid into 64 bands, enough for eight threads,
        # so the affinity set by taskset or os.sched_setaffinity is the only cap
        g = random_grid(np.random.default_rng(17), 8, 64, Boundary.TORUS)
        results = {}
        with mock.patch.object(rules, "_BAND_CELLS", 8):
            for cpus, helpers in (({0}, []), ({0, 1}, [1])):
                with mock.patch.object(rules.os, "sched_getaffinity", create=True,
                                       return_value=cpus), \
                        mock.patch.object(rules, "ThreadPoolExecutor",
                                          wraps=ThreadPoolExecutor) as pool:
                    results[len(cpus)] = stepper(g)
                assert [call.kwargs["max_workers"] for call in pool.call_args_list] == helpers
        assert results[1].a.tobytes() == results[2].a.tobytes()
        assert results[1].b.tobytes() == results[2].b.tobytes()

    def test_partitioned_execution_bit_exact(self):
        rng = np.random.default_rng(12)
        g = random_grid(rng, 9, 7, Boundary.TORUS)
        base = step_on_cpus(step_grid, 1, g)
        for cpus in (2, 3, 5, 16):
            other = step_on_cpus(step_grid, cpus, g)
            assert np.array_equal(base.a, other.a)
            assert np.array_equal(base.b, other.b)

    def test_zero_norm_pipeline_total(self):
        # exhaustive 3x3 grids with two live cells at phases 0 or pi;
        # every step must stay normalized even through total cancellation
        positions = [(x, y) for x in range(3) for y in range(3)]
        for i in range(len(positions)):
            for j in range(i + 1, len(positions)):
                for p1 in (1, -1):
                    for p2 in (1, -1):
                        g = cell_grid(3, 3, {positions[i]: p1, positions[j]: p2})
                        for _ in range(4):
                            g = step_grid(g)
                            assert g.is_normalized()
                            assert np.all(np.isfinite(g.a.real))
                            assert np.all(np.isfinite(g.b.real))


class TestBandScratch:
    """Each thread steps its bands in one scratch built per step, allocating nothing per band."""

    def test_one_step_allocates_its_outputs_and_one_scratch(self):
        # 2, 8 and 32 bands of 32 rows at width 1024, all on the calling thread. The
        # pitched neighbor sum and the reciprocal norm reuse the band planes, so the
        # scratch stays within 4.1 MiB, and a step's peak within that plus numpy's
        # 128 KiB cast buffer, less than one more 256 KiB float plane
        s = rules._BandScratch(32, 1024)
        assert sum(a.nbytes for a in vars(s).values()) <= 4.1 * (1 << 20)
        extra = []
        for h in (64, 256, 1024):
            live = np.random.default_rng(h).random((h, 1024)) < 0.35
            g = Grid(live.astype(complex), (~live).astype(complex), Boundary.TORUS)
            tracemalloc.start()
            try:
                step_on_cpus(step_grid, 1, g)
                extra.append(tracemalloc.get_traced_memory()[1] - g.a.nbytes - g.b.nbytes)
            finally:
                tracemalloc.stop()
        assert max(extra) - min(extra) <= 64 << 10
        assert max(extra) <= 4.1 * (1 << 20) + (160 << 10)

    def test_no_scratch_outlives_its_step(self):
        built = []
        scratch = rules._BandScratch

        def tracked(rows, w):
            s = scratch(rows, w)
            built.append(weakref.ref(s))
            return s

        small = random_grid(np.random.default_rng(18), 40, 40, Boundary.TORUS)
        three_bands = random_grid(np.random.default_rng(19), 300, 300, Boundary.TORUS)
        with mock.patch.object(rules, "_BandScratch", tracked):
            step_grid(small)
            step_grid(three_bands)
            with threads_on_every_band():
                step_on_cpus(step_grid, 2, three_bands)
        gc.collect()
        # one scratch for each one-thread step and one for each of the two threads
        assert len(built) == 4
        assert [ref() for ref in built] == [None] * 4

    def test_a_torus_step_leaves_nothing_for_a_fixed_one(self):
        # the fixed step's halo border columns are zero, not the torus step's wrapped cells
        g = random_grid(np.random.default_rng(21), 6, 5, Boundary.TORUS)
        fixed = g.with_boundary(Boundary.FIXED_DEAD)
        for source in (g, fixed, g):
            stepped, expected = step_grid(source), reference.ref_step_grid(source)
            assert stepped.a.tobytes() == expected.a.tobytes()
            assert stepped.b.tobytes() == expected.b.tobytes()


class TestUserThreads:
    """Steppers are pure functions, safe to share across threads."""

    def test_concurrent_steps_match_the_reference(self):
        # four user threads step their own grids at once; a one-band grid steps on
        # its user thread, a multi-band one on that thread and a pool helper
        rng = np.random.default_rng(23)
        grids = [random_grid(rng, 40, 40, Boundary.FIXED_DEAD),
                 random_grid(rng, 41, 40, Boundary.TORUS),
                 random_grid(rng, 256, 256, Boundary.TORUS),
                 random_grid(rng, 300, 330, Boundary.FIXED_DEAD)]
        rounds = 3
        expected, got = [], [[] for _ in grids]
        for g in grids:
            pairs = []
            for _ in range(rounds):
                pairs.append((reference.ref_step_grid(g), reference.ref_dual_step_grid(g)))
                g = pairs[-1][0]
            expected.append(pairs)
        start = threading.Barrier(len(grids))
        failures = []

        def run(g, out):
            try:
                start.wait(timeout=60)
                for _ in range(rounds):
                    out.append((step_grid(g), dual_step_grid(g)))
                    g = out[-1][0]
            except BaseException as exc:  # re-raised on the test's thread
                failures.append(exc)

        threads = [threading.Thread(target=run, args=args) for args in zip(grids, got)]
        switch = sys.getswitchinterval()
        # two CPUs and one band per thread: the 300x330 grid's four bands and the
        # 256x256 grid's two are shared with a helper
        with mock.patch.object(rules, "_cpu_count", return_value=2), threads_on_every_band():
            sys.setswitchinterval(1e-5)
            try:
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
            finally:
                sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        if failures:
            raise failures[0]
        for steps_got, steps_expected in zip(got, expected):
            assert len(steps_got) == rounds
            for pair_got, pair_expected in zip(steps_got, steps_expected):
                for stepped, ref in zip(pair_got, pair_expected):
                    assert stepped.a.tobytes() == ref.a.tobytes()
                    assert stepped.b.tobytes() == ref.b.tobytes()


class TestDuality:
    def test_block_duality(self):
        g = block(math.pi)
        lhs = swap_components(step_grid(g))
        rhs = dual_step_grid(swap_components(g))
        assert np.max(np.abs(lhs.a - rhs.a)) < 1e-9
        assert np.max(np.abs(lhs.b - rhs.b)) < 1e-9

    def test_swap_keeps_non_finite_cells(self):
        # step_grid steps grids with NaN cells, which Grid() would refuse
        a = np.array([[complex(math.nan, 1.0)]])
        b = np.array([[complex(-0.0, math.inf)]])
        g = Grid._adopt(a, b, Boundary.TORUS)
        swapped = swap_components(g)
        assert swapped.a is g.b and swapped.b is g.a
        back = swap_components(swapped)
        assert back.a.tobytes() == a.tobytes() and back.b.tobytes() == b.tobytes()
        assert not back.a.flags.writeable and not back.b.flags.writeable

    def test_all_alive_fixed_point(self):
        # the dual image of an empty grid is all-alive and maps to itself
        g = swap_components(Grid.dead(4, 4))
        g2 = dual_step_grid(g)
        assert np.max(np.abs(g2.a - g.a)) < 1e-12
        assert np.max(np.abs(g2.b - g.b)) < 1e-12

    @pytest.mark.parametrize("canonical", [False, True])
    @pytest.mark.parametrize("boundary", [Boundary.FIXED_DEAD, Boundary.TORUS])
    def test_matches_scalar_step_with_roles_swapped(self, boundary, canonical):
        # dual_step_grid shares its array core with step_grid, so the
        # swap-step-swap checks cannot see a fault in that core; step_cell can
        rng = np.random.default_rng(22)
        # in the swapped frame the centre sees A = 1 (pure death) at phase 0
        # and has b = -|a|: total cancellation, so the dual gives (1, 0)
        s = 1 / SQ2
        cancelling = Grid([[0, 1, 1], [1, -s, 1], [1, 1, 1]], [[1, 0, 0], [0, s, 0], [0, 0, 0]],
                          boundary)
        grids = [cancelling] + [random_grid(rng, 6, 5, boundary) for _ in range(20)]
        for g in grids:
            mirrored = swap_components(g)
            stepped = dual_step_grid(g, canonical)
            for y in range(g.height):
                for x in range(g.width):
                    ns = neighbor_sum(mirrored, x, y)
                    expected = step_cell(mirrored.cell(x, y), ns, canonical)
                    got = stepped.cell(x, y)
                    assert abs(got.a - expected.b) < 1e-12
                    assert abs(got.b - expected.a) < 1e-12
        for cpus in (1, 2):
            assert step_on_cpus(dual_step_grid, cpus, cancelling, canonical).cell(1, 1) == ALIVE

    def test_random_grids(self):
        rng = np.random.default_rng(21)
        for trial in range(500):
            boundary = Boundary.TORUS if trial % 2 else Boundary.FIXED_DEAD
            g = random_grid(rng, 5, 5, boundary)
            lhs = swap_components(step_grid(g))
            rhs = dual_step_grid(swap_components(g))
            assert np.max(np.abs(lhs.a - rhs.a)) < 1e-9
            assert np.max(np.abs(lhs.b - rhs.b)) < 1e-9


NAN = float("nan")
INF = float("inf")
ULP_BELOW_ONE = math.nextafter(1.0, 0.0)
ULP_ABOVE_ONE = math.nextafter(1.0, 2.0)
# eight in-phase neighbors at -358.8923 degrees sum to A = 8.000000000000002
PAST_EIGHT = cmath.rect(1.0, math.radians(-358.8923))
# the two ulps around each threshold of the step: the phase cut and the region edges
THRESHOLD_SUMS = [NAN, rules.PHASE_EPS] + [
    math.nextafter(x, d) for x in (rules.PHASE_EPS, 1.0, 2.0, 3.0, 4.0) for d in (0.0, 9.0)
]
SPECIAL_CELLS = [
    (1 + 0j, 0j),
    (0j, 1 + 0j),
    (complex(-0.0, -0.0), complex(1.0, -0.0)),
    (complex(-1.0, 0.0), complex(-0.0, 0.0)),
    (complex(0.0, -0.0), complex(-1.0, -0.0)),
    (PAST_EIGHT, 0j),
    (complex(NAN, 0.0), 1 + 0j),
    (complex(0.0, NAN), 0j),
    (complex(INF, 0.0), 0j),
    (complex(-INF, 1.0), 0j),
    (1 + 0j, complex(0.0, INF)),
]


@st.composite
def special_cells(draw):
    """A special cell, or amplitude r at a multiple of pi/8 with |b| = sqrt(1 - r^2)."""
    if draw(st.booleans()):
        return draw(st.sampled_from(SPECIAL_CELLS))
    r = draw(st.sampled_from([0.0, 1.0, ULP_BELOW_ONE, ULP_ABOVE_ONE, 0.5, 1 / SQ2]))
    pa, pb = (cmath.exp(1j * math.pi * k / 8) for k in draw(st.tuples(*[st.integers(-8, 8)] * 2)))
    return r * pa, math.sqrt(max(0.0, 1.0 - r * r)) * pb


@st.composite
def step_grids(draw):
    """Non-square grids filled with one cell (uniform patches sum past 8), then overwritten."""
    width, height = draw(st.integers(1, 9)), draw(st.integers(1, 12))
    fill = draw(special_cells())
    a = np.full((height, width), fill[0], dtype=complex)
    b = np.full((height, width), fill[1], dtype=complex)
    for _ in range(draw(st.integers(0, width * height))):
        x, y = draw(st.integers(0, width - 1)), draw(st.integers(0, height - 1))
        a[y, x], b[y, x] = draw(special_cells())
    # NaN and infinite cells are refused by Grid(), so they bypass its check
    return Grid._adopt(a, b, draw(st.sampled_from(list(Boundary))))


def exact_bytes(z: np.ndarray) -> bytes:
    """Bytes of a complex array, every NaN written as the one ``np.nan``.

    numpy's complex add and multiply give a NaN result a different sign bit
    in their vector and scalar loops, so the sign of a NaN depends on the
    length of the array an operation runs on, and the whole-grid reference
    runs on other lengths than the banded core. Every other bit, signed
    zeros and infinities included, is compared as it is.
    """
    f = z.view(np.float64)
    return np.where(np.isnan(f), np.nan, f).tobytes()


@contextlib.contextmanager
def threads_on_every_band():
    """Let the core give each thread a single band."""
    with mock.patch.object(rules, "_MIN_BANDS_PER_THREAD", 1):
        yield


class TestWorkerIndependence:
    """The band cut follows the width alone, so every thread count gives the same bits."""

    @staticmethod
    def nan_soup(boundary):
        rng = np.random.default_rng(41)
        g = random_grid(rng, 23, 17, boundary)
        a, b = g.a.copy(), g.b.copy()
        for x, y, (ca, cb) in zip(rng.integers(0, 23, 12), rng.integers(0, 17, 12),
                                  SPECIAL_CELLS[6:] * 3):
            a[y, x], b[y, x] = ca, cb
        return Grid._adopt(a, b, boundary)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    # budgets of one row, two rows and several rows of the 23-wide grid
    @pytest.mark.parametrize("band_cells", [1, 46, 200])
    @pytest.mark.parametrize("boundary", list(Boundary))
    @pytest.mark.parametrize("stepper", [step_grid, dual_step_grid])
    def test_nan_sign_bits_match(self, stepper, boundary, band_cells):
        for canonical in (False, True):
            cur = self.nan_soup(boundary)
            with mock.patch.object(rules, "_BAND_CELLS", band_cells), threads_on_every_band():
                for _ in range(2):
                    base = step_on_cpus(stepper, 1, cur, canonical)
                    assert np.isnan(base.a).any() and np.isnan(base.b).any()
                    for cpus in range(2, 6):
                        got = step_on_cpus(stepper, cpus, cur, canonical)
                        assert got.a.tobytes() == base.a.tobytes()
                        assert got.b.tobytes() == base.b.tobytes()
                    cur = base


class TestMatchesReference:
    """The banded core gives the bytes the pre-banding steppers in step_reference.py give."""

    STEPPERS = [(step_grid, reference.ref_step_grid), (dual_step_grid, reference.ref_dual_step_grid)]

    def assert_same(self, g, generations=2):
        # one band per thread is enough, so up to five threads really run
        with threads_on_every_band():
            for stepper, ref_stepper in self.STEPPERS:
                for canonical in (False, True):
                    cur = g
                    for _ in range(generations):
                        expected = ref_stepper(cur, canonical)
                        for cpus in range(1, 6):
                            got = step_on_cpus(stepper, cpus, cur, canonical)
                            assert exact_bytes(got.a) == exact_bytes(expected.a)
                            assert exact_bytes(got.b) == exact_bytes(expected.b)
                            assert got.boundary is cur.boundary
                            assert not (got.a.flags.writeable or got.b.flags.writeable)
                        cur = expected

    # NaN and infinite cells make numpy warn, in the worker threads too
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(g=step_grids(), band_cells=st.integers(1, 600))
    def test_random_grids(self, g, band_cells):
        # small budgets cut the grid into several bands with a short last one,
        # and budgets below the width give one row per band
        with mock.patch.object(rules, "_BAND_CELLS", band_cells):
            self.assert_same(g)

    @pytest.mark.parametrize("boundary,rows", [
        (Boundary.FIXED_DEAD, [[6, 5, 7], [4, 4, 7], [5, 5, 4]]),
        (Boundary.TORUS, [[6, 1, 4], [6, 7, 2], [2, 6, 5]]),
    ])
    def test_signed_zeros_survive(self, boundary, rows):
        # classical cells written with -0 parts; the step gives some -0 parts back
        neg = complex(-0.0, -0.0)
        cells = [(1 + 0j, 0j), (0j, 1 + 0j), (neg, complex(1.0, -0.0)),
                 (complex(-1.0, 0.0), complex(-0.0, 0.0)), (complex(0.0, -0.0), complex(-1.0, -0.0)),
                 (complex(-1.0, -0.0), neg), (-1j, neg), (complex(-0.0, -1.0), neg)]
        g = Grid([[cells[i][0] for i in row] for row in rows],
                 [[cells[i][1] for i in row] for row in rows], boundary)
        expected = reference.ref_step_grid(g)
        parts = np.concatenate([expected.a.view(np.float64), expected.b.view(np.float64)])
        assert (np.signbit(parts) & (parts == 0.0)).any()
        for cpus in (1, 2):
            got = step_on_cpus(step_grid, cpus, g)
            assert got.a.tobytes() == expected.a.tobytes()
            assert got.b.tobytes() == expected.b.tobytes()

    @pytest.mark.parametrize("boundary", list(Boundary))
    def test_sum_past_eight(self, boundary):
        g = Grid(np.full((5, 4), PAST_EIGHT), np.zeros((5, 4)), boundary)
        assert neighbor_sum(g, 1, 1).A > 8.0
        with mock.patch.object(rules, "_BAND_CELLS", 5):
            self.assert_same(g)

    @pytest.mark.parametrize("band_cells", [1, 7, 40, rules._BAND_CELLS])
    @pytest.mark.parametrize("boundary", list(Boundary))
    def test_soup(self, boundary, band_cells):
        rng = np.random.default_rng(31)
        g = random_grid(rng, 23, 17, boundary)
        with mock.patch.object(rules, "_BAND_CELLS", band_cells):
            self.assert_same(g, generations=3)

    # widths 1 and 2 (halo pitch 3 and 4) in bands of one row, and of two rows with a
    # short last one: a full band's last flat slice of the neighbor sum ends on the
    # halo buffer's last element
    @pytest.mark.parametrize("rows", [1, 2])
    @pytest.mark.parametrize("width", [1, 2])
    @pytest.mark.parametrize("boundary", list(Boundary))
    def test_narrow_bands(self, boundary, width, rows):
        g = random_grid(np.random.default_rng(36 + width), width, 7, boundary)
        with mock.patch.object(rules, "_BAND_CELLS", rows * width):
            self.assert_same(g, generations=3)

    def test_classical_soup_wider_than_a_band(self):
        rng = np.random.default_rng(32)
        live = rng.random((70, 300)) < 0.35
        g = Grid(live.astype(complex), (~live).astype(complex), Boundary.TORUS)
        for _ in range(3):
            expected = reference.ref_step_grid(g)
            with mock.patch.object(rules, "_BAND_CELLS", 256):
                got = step_grid(g)
            assert got.a.tobytes() == expected.a.tobytes()
            assert got.b.tobytes() == expected.b.tobytes()
            g = expected

    @staticmethod
    def probe_grid(boundary):
        """Three rows: each probe column's middle cell has one live neighbor above it, so
        its sum is that neighbor's coefficient exactly, at phase 0, pi/2, pi or -pi/2."""
        sums = [A * phase for A in THRESHOLD_SUMS for phase in (1, 1j, -1, -1j)]
        cells = [(0.6 + 0.8j, 0.0), (0.0, 1.0), (1.0, 0.0), (0.6, -0.8j)]
        a = np.zeros((3, 3 * len(sums)), dtype=complex)
        b = np.ones_like(a)
        for i, alpha in enumerate(sums):
            a[0, 3 * i + 1] = alpha
            a[1, 3 * i + 1], b[1, 3 * i + 1] = cells[i % len(cells)]
        return Grid._adopt(a, b, boundary)

    # a NaN sum makes numpy warn, in the worker threads too
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("band_cells", [1, 40, rules._BAND_CELLS])
    @pytest.mark.parametrize("boundary", list(Boundary))
    def test_sums_at_the_thresholds(self, boundary, band_cells):
        g = self.probe_grid(boundary)
        ns = [neighbor_sum(g, x, 1).A for x in range(1, g.width, 3)]
        expected = [A for A in THRESHOLD_SUMS for _ in range(4)]
        assert ns[4:] == expected[4:] and all(math.isnan(A) for A in ns[:4])
        with mock.patch.object(rules, "_BAND_CELLS", band_cells):
            self.assert_same(g)
            self.assert_same(swap_components(g))  # the mirror stepper sums the other component

    @staticmethod
    def collapse_grid(boundary, cancel):
        """Three bands of two rows: none, only the last cell, then every cell collapses."""
        g = random_grid(np.random.default_rng(34), 5, 6, boundary)
        a, b = g.a.copy(), g.b.copy()
        a[4:], b[4:] = 0.0, 0.0  # no coefficient left: the mix is 0 whatever the weights
        if cancel:
            # dead neighbors (the empty last band below, wrapped ones included) give the last
            # cell of the middle band alpha 0 and unit 1, so death folds its live part onto
            # its dead part and they cancel
            for x in (0, 3, 4):
                a[2:4, x], b[2:4, x] = 0.0, 1.0
            a[3, 4], b[3, 4] = 1 / SQ2, -1 / SQ2
        else:
            a[3, 4], b[3, 4] = 0.0, 0.0
        return Grid._adopt(a, b, boundary)

    @pytest.mark.parametrize("cancel", [False, True])
    @pytest.mark.parametrize("boundary", list(Boundary))
    def test_bands_with_and_without_collapses(self, boundary, cancel):
        g = self.collapse_grid(boundary, cancel)
        raw_live, raw_dead, A = reference._mixed_raw(g.a, g.b, reference._alpha_array(g.a, boundary))
        norm = np.sqrt(np.abs(raw_live) ** 2 + np.abs(raw_dead) ** 2)
        vanished = norm < rules.ZERO_NORM * reference._region_factor(A)
        assert not vanished[:2].any()
        assert vanished[2:4].ravel().tolist() == [False] * 9 + [True]
        assert vanished[4:].all()
        # two-row bands of width 5 put each case in a band of its own
        with mock.patch.object(rules, "_BAND_CELLS", 10):
            self.assert_same(g)
            self.assert_same(swap_components(g))

    def test_weights_match_reference(self):
        edges = [0.0, 5e-324, 1e-300, rules.PHASE_EPS, 1.0, 2.0, 3.0, 3 + 1 / SQ2, 4.0, 8.0,
                 8.0 + rules.A_ROUNDING_SLACK, 9.0, INF, NAN]
        edges += [math.nextafter(x, d) for x in (1.0, 2.0, 3.0, 4.0, 8.0) for d in (0.0, 9.0)]
        edges += [math.nextafter(rules.PHASE_EPS, d) for d in (0.0, 1.0)]
        rng = np.random.default_rng(33)
        A = np.concatenate([edges, rng.uniform(0.0, 8.0, 2000), rng.integers(0, 9, 200)])
        got = rules._weights_array(A, np.empty((4, len(A))))
        for w, expected in zip(got, reference._weights_array(A)):
            assert w.tobytes() == expected.tobytes()
        # the table's weights times the region's factor, which renormalization cancels
        for i, x in enumerate(A.tolist()):
            if math.isnan(x):
                continue
            # past the table's range, the overcrowding death of A = 8
            x = min(x, 8.0)
            table = rules.operator_weights(x)
            factor = rules._REGION_FACTORS[(x > 1.0) + (x > 2.0) + (x > 3.0)]
            for w, t in zip(got, (table.w_B, table.w_S, table.w_D)):
                if t == 0.0:
                    assert w[i] == 0.0 and not math.copysign(1.0, w[i]) < 0
                else:
                    assert w[i] == pytest.approx(t * factor, rel=1e-15, abs=0.0)
        # a NaN sum gets no operator at all, an infinite one the overcrowding death alone
        assert [w[edges.index(NAN)].tobytes() for w in got] == [np.float64(0.0).tobytes()] * 3
        assert [float(w[edges.index(INF)]) for w in got] == [0.0, 0.0, rules._REGION_FACTORS[3]]

    @pytest.mark.parametrize("eps,expected", [(5e-9, 1j), (5e-10, 1.0)])
    def test_collapse_decided_at_the_table_scale(self, eps, expected):
        # a crowded centre (A = 8) whose death nearly cancels: the table's norm is eps and
        # the core's eps / s^3, so only a threshold scaled alike renormalizes 5e-9
        a, b = np.ones((3, 3), complex), np.zeros((3, 3), complex)
        a[1, 1], b[1, 1] = 1 / SQ2, -1 / SQ2 + eps * 1j
        g = Grid(a, b, Boundary.FIXED_DEAD)
        cell = step_cell(g.cell(1, 1), neighbor_sum(g, 1, 1))
        assert cell.a == 0.0 and abs(cell.b - expected) <= 1e-6
        for got in (step_grid(g), swap_components(dual_step_grid(swap_components(g)))):
            assert abs(got.a[1, 1] - cell.a) <= 1e-12 and abs(got.b[1, 1] - cell.b) <= 1e-12


# Parts at the edges of the double range, and norms from below the smallest a kept
# cell can have (ZERO_NORM times the least region factor, 7.1e-11) to just below 2
DIVIDE_PARTS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.0**-1022, 1e-160, -1e-160,
                0.5, 1.0, -1.0, 1e300, INF, -INF, NAN]


def divide_mismatches() -> list[int]:
    """Parts where ``rules._divide`` differs from ``np.divide``, and parts compared, over
    every complex of ``DIVIDE_PARTS`` divided by every norm in [7e-11, 2)."""
    rng = np.random.default_rng(35)
    norms = [7e-11, rules.ZERO_NORM * rules._REGION_FACTORS[3], rules.ZERO_NORM, 0.5, 1.0,
             math.sqrt(2.0), 1.83, math.nextafter(2.0, 0.0)]
    norms += [math.nextafter(x, d) for x in (0.5, 1.0) for d in (0.0, 2.0)]
    norms = np.concatenate([norms, np.exp(rng.uniform(math.log(7e-11), math.log(2.0), 788))])
    cells = [complex(re, im) for re in DIVIDE_PARTS for im in DIVIDE_PARTS]
    raw = np.repeat(np.array(cells), norms.size)
    norm = np.tile(norms, len(cells))
    out = np.empty_like(raw)
    with np.errstate(all="ignore"):
        rules._divide((raw,), norm, np.empty_like(raw), (out,))
        expected = raw / norm
    got, want = (np.frombuffer(exact_bytes(z), np.uint64) for z in (out, expected))
    return [int((got != want).sum()), got.size]


_DIVIDE_CHILD = """
import json
from conftest import dispatch_targets
from test_rules import divide_mismatches
print(json.dumps({"on": dispatch_targets(), "mismatches": divide_mismatches()}))
"""


class TestDivide:
    """The kernel renormalizes by a reciprocal product with the bits of numpy's divide."""

    def test_product_matches_divide(self):
        assert divide_mismatches() == [0, 2 * 16 * 16 * 800]

    def test_product_matches_divide_at_every_dispatch_level(self):
        native, baseline = native_and_baseline(_DIVIDE_CHILD)
        assert native["mismatches"] == baseline["mismatches"] == [0, 2 * 16 * 16 * 800]

    def test_raw_pair_norm_stays_below_two(self):
        # cells at the edge of is_normalized's tolerance under every neighbor sum in
        # [0, 8]; half have a, b and the sum in phase, where the norm peaks at sqrt(2)
        rng = np.random.default_rng(36)
        n = 200_000
        r = math.sqrt(1.0 + NORM_TOL)
        t = rng.uniform(0.0, math.pi / 2, n)
        A = np.concatenate([np.linspace(0.0, 8.0, 801), rng.uniform(0.0, 8.0, n - 801)])
        phi, phase_a, phase_b = rng.uniform(-math.pi, math.pi, (3, n))
        phase_a[::2] = phase_b[::2] = phi[::2]
        live = (r * np.cos(t) * np.exp(1j * phase_a)).reshape(1, n)
        dead = (r * np.sin(t) * np.exp(1j * phase_b)).reshape(1, n)
        s = rules._BandScratch(1, n)
        s.complex[0] = A * np.exp(1j * phi)
        new_live, new_dead = np.empty_like(live), np.empty_like(dead)
        with mock.patch.object(rules, "_divide", wraps=rules._divide) as divide:
            rules._step_band(live, dead, s.complex[0], s, new_live, new_dead)
        norm = divide.call_args.args[1]
        assert math.sqrt(2.0) - 1e-6 < norm.max() < 2.0
