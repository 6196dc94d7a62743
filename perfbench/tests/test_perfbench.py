"""Fast checks of the benchmark's own arithmetic and bookkeeping.

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from ditto_bench import runner, stats, workloads
from ditto_bench.tracer import SpanRecorder, Target, layer_targets, patched, traced

ROOT = Path(__file__).resolve().parents[2]

# -- tail percentile -----------------------------------------------------------


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    values = list(range(1, 101))
    assert stats.tail(values) == (90.0, 90.0, 100)
    values = list(range(1000))
    value, pct, n = stats.tail(values)
    assert (value, pct, n) == (989.0, 99.0, 1000)
    assert sum(v > value for v in values) == 10


def test_tail_needs_more_than_ten_samples():
    assert stats.tail(list(range(11)))[0] == 0.0
    with pytest.raises(ValueError):
        stats.tail(list(range(10)))


def test_fixed_tail_percentile_leaves_ten_beyond_or_refuses():
    values = list(range(1, 101))
    assert stats.tail(values, 90.0)[0] == 90.0
    assert stats.tail(values, 85.0)[0] == 85.0
    with pytest.raises(ValueError):
        stats.tail(values, 95.0)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_serving_tail_percentile_is_supported_by_the_minimum_rounds(workload):
    cfg = workloads.WORKLOADS[workload].serve
    guaranteed = runner.MIN_ROUNDS * cfg.open_requests
    latencies = np.linspace(0.1, 1.0, guaranteed).tolist()
    value, _, _ = stats.tail(latencies, cfg.tail_pct)
    assert sum(v > value for v in latencies) >= stats.TAIL_BEYOND


# -- span arithmetic -----------------------------------------------------------


def _recorder(spans):
    """A recorder holding ``(name, parent, start, end)`` spans as given."""
    rec = SpanRecorder()
    for name, parent, start, end in spans:
        idx = rec.begin(name)
        rec.finish(idx)
        rec.parent[idx], rec.start[idx], rec.end[idx] = parent, start, end
    return rec


def test_self_time_subtracts_children():
    rec = _recorder(
        [
            ("run", -1, 0.0, 10.0),
            ("layer", 0, 1.0, 4.0),
            ("gemm", 1, 1.5, 2.5),
            ("layer", 0, 5.0, 9.0),
            ("run", -1, 12.0, 13.0),
        ]
    )
    assert rec.self_times() == pytest.approx([3.0, 2.0, 1.0, 4.0, 1.0])
    summary = rec.summarize()
    assert summary["layer"]["self_s"] == pytest.approx(6.0)
    assert summary["layer"]["incl_s"] == pytest.approx(7.0)
    assert summary["run"]["calls"] == 2
    wall = 13.0
    total_self = sum(rec.self_times())
    assert total_self == pytest.approx(rec.top_level_seconds())
    assert total_self <= wall


def test_nested_spans_of_one_name_count_once():
    rec = _recorder(
        [("step", -1, 0.0, 4.0), ("step", 0, 1.0, 2.0), ("step", 0, 2.0, 3.0)]
    )
    entry = rec.summarize()["step"]
    assert entry["calls"] == 1
    assert entry["incl_s"] == pytest.approx(4.0)
    assert entry["self_s"] == pytest.approx(4.0)


def test_live_spans_stay_within_wall_time():
    from repro.nn import functional as F

    rec = SpanRecorder()
    x = np.linspace(-3.0, 3.0, 4096).reshape(4, 1024)
    t0 = rec.begin("outer")
    with traced(rec, layer_targets()):
        for _ in range(3):
            F.softmax(F.gelu(x))
    rec.finish(t0)
    summary = rec.summarize()
    assert summary["nn.gelu"]["calls"] == 3
    assert summary["nn.softmax"]["calls"] == 3
    assert all(t >= 0.0 for t in rec.self_times())
    assert sum(rec.self_times()) <= rec.end[t0] - rec.start[t0] + 1e-9


# -- wrappers are restored -----------------------------------------------------


def _snapshot(targets):
    return [
        (vars(t.owner).get(t.attr, "inherited"), getattr(t.owner, t.attr))
        for t in targets
    ]


def test_tracing_restores_every_wrapped_attribute():
    targets = layer_targets()
    before = _snapshot(targets)
    rec = SpanRecorder()
    with traced(rec, targets):
        assert all(
            getattr(t.owner, t.attr) is not fn
            for t, (_, fn) in zip(targets, before)
        )
    assert _snapshot(targets) == before
    with pytest.raises(RuntimeError):
        with traced(rec, targets):
            raise RuntimeError("boom")
    assert _snapshot(targets) == before


def test_inherited_attributes_are_not_pinned_on_the_subclass():
    class Base:
        def f(self):
            return "base"

    class Child(Base):
        pass

    with patched([Target(Child, "f", "f")], lambda t, fn: lambda self: "wrapped"):
        assert Child().f() == "wrapped"
    assert "f" not in vars(Child)
    assert Child().f() == "base"


def test_targets_cover_every_layer():
    prefixes = {
        t.name.split(".")[0] if isinstance(t.name, str) else "dynamic"
        for t in layer_targets()
    }
    assert {"nn", "quant", "core", "diffusion", "hw", "dynamic"} <= prefixes


# -- names match BENCHMARK.json ------------------------------------------------


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"][:2] == ["python3", "perfbench/run.py"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == runner.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == runner.PER_LAYER
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
