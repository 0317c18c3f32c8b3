"""Self-time arithmetic and per-layer numbers on hand-built span trees."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from tracer import Tracer, layer_metrics, percentile, self_times  # noqa: E402

# root [0, 10] has children [1, 4] and [5, 9]; the second has a child [6, 8]
TREE = [
    [0, None, "cli.main", 0.0, 10.0, None],
    [1, 0, "rules.step_grid", 1.0, 4.0, {"cells": 100}],
    [2, 0, "analysis.classify", 5.0, 9.0, {"generations": 3, "verdict": "dead"}],
    [3, 2, "rules.step_grid", 6.0, 8.0, {"cells": 100}],
]


def test_self_time_subtracts_children():
    assert self_times(TREE) == pytest.approx([3.0, 3.0, 2.0, 2.0])
    assert sum(self_times(TREE)) == pytest.approx(10.0)


def test_overlapping_children_count_once():
    spans = [
        [0, None, "root", 0.0, 10.0, None],
        [1, 0, "a", 2.0, 6.0, None],
        [2, 0, "b", 4.0, 8.0, None],
        [3, 0, "c", 9.0, 12.0, None],  # clipped to the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_layer_metrics_per_iteration():
    m = layer_metrics(TREE, iterations=2)
    assert m["rules.step_grid.calls"] == 1.0
    assert m["rules.step_grid.cells"] == 100.0
    assert m["rules.step_grid.self_s"] == pytest.approx(2.5)
    assert m["rules.step_grid.ns_per_cell"] == pytest.approx(5.0 / 200 * 1e9)
    assert m["analysis.classify.self_s"] == pytest.approx(1.0)
    assert m["analysis.classify.self_us_per_generation"] == pytest.approx(2.0 / 3 * 1e6)
    assert m["analysis.resolved_ratio"] == 1.0
    assert m["cli.main.self_s"] == pytest.approx(1.5)
    assert m["render.render_csv.ns_per_cell"] == 0.0


def test_percentile_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile([], 50) == 0.0


def test_tracer_records_parent_and_restores_on_error():
    import types

    mod = types.SimpleNamespace(f=lambda x: x * 2, boom=lambda: 1 / 0)
    tr = Tracer()
    tr.wrap(mod, "f", "layer.f", lambda args, result: {"out": result})
    tr.wrap(mod, "boom", "layer.boom")
    with tr.span("root"):
        assert mod.f(3) == 6
        with pytest.raises(ZeroDivisionError):
            mod.boom()
    root, f, boom = tr.spans
    assert f[1] == root[0] and boom[1] == root[0] and root[1] is None
    assert f[5] == {"out": 6}
    assert root[3] <= f[3] <= f[4] <= boom[3] <= boom[4] <= root[4]
