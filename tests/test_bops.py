"""Unit tests for BOPs accounting (Fig. 6)."""

import pytest

from repro.core import ExecutionMode, per_step_relative_bops, relative_bops
from repro.core.bitwidth import BitWidthStats
from repro.core.bops import dense_bops_reference, trace_bops
from repro.core.trace import LayerStep, Trace

from helpers import lower_one, make_rich


def make_trace(mode, steps=2, temporal=True, sub_ops=1):
    trace = Trace()
    for s in range(steps):
        rich = make_rich(step_index=s, temporal=temporal and s > 0, sub_ops=sub_ops)
        trace.append(lower_one(rich, mode)[0])
    return trace


def priced_per_mac(stats, zero_skipping=True):
    """BOPs per MAC of a one-record temporal trace with operands ``stats``."""
    step = LayerStep(
        step_index=1, layer_name="l", kind="conv", mode=ExecutionMode.TEMPORAL,
        macs=1_000, data_elems=stats.total, stats=stats, bytes_in=0,
        bytes_weight=0, bytes_out=0, bytes_extra=0, vpu_elems=0,
    )
    return trace_bops(Trace([step]), zero_skipping) / step.macs


def record_bops(step):
    """BOPs of one record, priced as a one-record trace."""
    return trace_bops(Trace([step]))


def test_bops_per_mac_with_zero_skipping():
    stats = BitWidthStats(total=100, zero=50, low=30, high=20)
    # 0.3 * 32 + 0.2 * 64 = 22.4
    assert priced_per_mac(stats) == pytest.approx(22.4)


def test_bops_per_mac_without_zero_skipping():
    stats = BitWidthStats(total=100, zero=50, low=30, high=20)
    # zeros cost a 4-bit op: + 0.5 * 32
    assert priced_per_mac(stats, zero_skipping=False) == pytest.approx(38.4)


def test_dense_layer_costs_full_bops():
    """Dense execution is the Fig. 6a baseline: exactly macs * 8 * 8 BOPs."""
    trace = make_trace(ExecutionMode.DENSE)
    step = trace.steps[0]
    assert record_bops(step) == pytest.approx(step.macs * 64)


def test_dense_relative_bops_is_unity():
    trace = make_trace(ExecutionMode.DENSE, steps=3)
    assert relative_bops(trace) == pytest.approx(1.0)


def test_relative_bops_temporal_below_dense():
    temporal = make_trace(ExecutionMode.TEMPORAL, steps=4)
    dense = make_trace(ExecutionMode.DENSE, steps=4)
    assert relative_bops(temporal) < relative_bops(dense) <= 1.0


def test_relative_bops_bounds():
    trace = make_trace(ExecutionMode.TEMPORAL, steps=3)
    value = relative_bops(trace)
    assert 0.0 < value < 1.0


def test_sub_ops_double_attention_cost():
    single = make_trace(ExecutionMode.TEMPORAL, steps=2, sub_ops=1)
    double = make_trace(ExecutionMode.TEMPORAL, steps=2, sub_ops=2)
    # Step 0 is dense in both; step 1 doubles.
    s1 = record_bops(single.steps[1])
    d1 = record_bops(double.steps[1])
    assert d1 == pytest.approx(2 * s1)


def test_dense_reference_ignores_sub_ops():
    trace = make_trace(ExecutionMode.TEMPORAL, steps=2, sub_ops=2)
    assert dense_bops_reference(trace) == 2 * 10_000 * 64


def test_per_step_relative_bops_keys():
    trace = make_trace(ExecutionMode.TEMPORAL, steps=5)
    per_step = per_step_relative_bops(trace)
    assert set(per_step) == {0, 1, 2, 3, 4}
    # First step is dense -> highest relative BOPs.
    assert per_step[0] == max(per_step.values())


def test_empty_trace_relative_bops():
    assert relative_bops(Trace()) == 0.0
