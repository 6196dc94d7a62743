"""Unit tests for trace records, lowering, and byte-traffic accounting."""

import numpy as np
import pytest

from repro.core import ExecutionMode, RichTrace
from repro.core.trace import (
    ACT_BYTES,
    DENSE_ID,
    STATE_BYTES,
    TEMPORAL_ID,
    Trace,
    TraceRecorder,
)

from helpers import lower_one, make_rich


def lower_step(rich, mode, bypass_style="chained"):
    """The single lowered record of ``rich`` under ``mode``."""
    return lower_one(rich, mode, bypass_style)[0]


def test_dense_lowering_bytes():
    step = lower_step(make_rich(), ExecutionMode.DENSE)
    assert step.bytes_in == 100 * ACT_BYTES
    assert step.bytes_weight == 50 * ACT_BYTES
    assert step.bytes_out == 200 * ACT_BYTES
    assert step.bytes_extra == 0
    assert step.stats.high == 60


def test_temporal_lowering_adds_state_traffic():
    step = lower_step(make_rich(), ExecutionMode.TEMPORAL, "none")
    # prev input load + current input store + state load/store
    expected_extra = 100 + 100 + 2 * 200 * STATE_BYTES
    assert step.bytes_extra == expected_extra
    assert step.stats.zero == 40
    assert step.mode is ExecutionMode.TEMPORAL


def test_temporal_without_stats_falls_back_dense():
    step = lower_step(make_rich(temporal=False), ExecutionMode.TEMPORAL)
    assert step.mode is ExecutionMode.DENSE
    assert step.bytes_extra == 0


def test_spatial_lowering_no_extra_bytes():
    step = lower_step(make_rich(), ExecutionMode.SPATIAL)
    assert step.bytes_extra == 0
    assert step.stats.zero == 10


def test_chained_bypass_skips_prev_input():
    plain = lower_step(make_rich(), ExecutionMode.TEMPORAL, "chained")
    chained = lower_step(
        make_rich(chained=True), ExecutionMode.TEMPORAL, "chained"
    )
    assert plain.bytes_extra - chained.bytes_extra == 100 * ACT_BYTES


def test_sign_mask_bypass_only_for_silu_groupnorm():
    silu = lower_step(
        make_rich(producer="silu"), ExecutionMode.TEMPORAL, "sign_mask"
    )
    ln = lower_step(
        make_rich(producer="layernorm"), ExecutionMode.TEMPORAL, "sign_mask"
    )
    assert ln.bytes_extra - silu.bytes_extra == 100 * ACT_BYTES


def test_both_bypass_is_union():
    for kwargs in ({"chained": True}, {"producer": "groupnorm"}):
        step = lower_step(make_rich(**kwargs), ExecutionMode.TEMPORAL, "both")
        baseline = lower_step(make_rich(), ExecutionMode.TEMPORAL, "both")
        assert step.bytes_extra < baseline.bytes_extra


def test_unknown_bypass_style_raises():
    with pytest.raises(ValueError):
        lower_step(make_rich(), ExecutionMode.TEMPORAL, "magic")


def test_sub_ops_only_in_temporal():
    rich = make_rich(sub_ops=2)
    assert lower_step(rich, ExecutionMode.TEMPORAL).sub_ops == 2
    assert lower_step(rich, ExecutionMode.DENSE).sub_ops == 1
    assert lower_step(rich, ExecutionMode.SPATIAL).sub_ops == 1


def test_rich_trace_lower_and_grouping():
    trace = RichTrace()
    for step in range(3):
        for name in ("a", "b"):
            trace.append(make_rich(step_index=step, name=name, temporal=step > 0))
    lowered = trace.lower_modes(np.full(len(trace), TEMPORAL_ID))
    assert isinstance(lowered, Trace)
    assert len(lowered) == 6
    assert lowered.steps[0].mode is ExecutionMode.DENSE  # no temporal stats yet
    assert lowered.steps[-1].mode is ExecutionMode.TEMPORAL
    assert trace.num_steps() == 3
    assert trace.layer_names() == ["a", "b"]
    assert set(trace.by_layer()) == {"a", "b"}
    assert set(trace.by_step()) == {0, 1, 2}


def test_trace_totals():
    trace = RichTrace()
    trace.append(make_rich())
    lowered = trace.lower_modes(np.full(len(trace), DENSE_ID))
    assert lowered.total_macs() == 10_000
    assert lowered.total_bytes() == 350


def test_recorder_nesting_and_isolation():
    outer = TraceRecorder()
    inner = TraceRecorder()
    with outer:
        assert TraceRecorder.current() is outer
        with inner:
            assert TraceRecorder.current() is inner
        assert TraceRecorder.current() is outer
    assert TraceRecorder.current() is None


def test_recorder_step_index():
    rec = TraceRecorder()
    rec.set_step(7)
    assert rec.step_index == 7
