"""Unit tests for hardware report dataclasses."""

import pytest

from repro.hw.report import LayerCycles

from oracles import report_from_layers


def layer(name="l", step=0, compute=10.0, memory=5.0, encode=1.0, vpu=2.0,
          energy=None, bytes_moved=100):
    return LayerCycles(
        layer_name=name,
        step_index=step,
        mode="temporal",
        compute_cycles=compute,
        memory_cycles=memory,
        encode_cycles=encode,
        vpu_cycles=vpu,
        energy_pj=energy or {"compute": 3.0, "sram": 1.0},
        bytes_moved=bytes_moved,
    )


def test_layer_cycles_is_stage_max():
    assert layer(compute=10, memory=25).cycles == 25.0
    assert layer(compute=10, memory=5).cycles == 10.0


def test_stall_only_when_memory_bound():
    assert layer(compute=10, memory=25).stall_cycles == 15.0
    assert layer(compute=10, memory=5).stall_cycles == 0.0


def test_layer_total_energy():
    assert layer().total_energy_pj == pytest.approx(4.0)


def test_report_totals():
    report = report_from_layers(
        "X", [layer(name="a", compute=10, memory=5), layer(name="b", compute=10, memory=30)]
    )
    assert report.total_cycles == 40.0
    assert report.stall_cycles == 20.0
    assert report.total_bytes == 200
    assert report.total_energy_pj == pytest.approx(8.0)


def test_report_compute_cycles_capped_by_layer_time():
    report = report_from_layers("X", [layer(compute=10, memory=30)])
    # The compute engine is busy at most the layer's wall time.
    assert report.compute_cycles == 10.0


def test_energy_breakdown_merges_components():
    report = report_from_layers(
        "X",
        [
            layer(energy={"compute": 1.0, "dram": 2.0}),
            layer(energy={"compute": 3.0, "vpu": 4.0}),
        ],
    )
    breakdown = report.energy_breakdown_pj()
    assert breakdown == {"compute": 4.0, "dram": 2.0, "vpu": 4.0}


def test_grouping_helpers():
    records = [layer(name="a", step=0), layer(name="a", step=1), layer(name="b", step=1)]
    report = report_from_layers("X", records)
    by_step = report.cycles_by_step()
    assert set(by_step) == {0, 1}
    assert by_step[1] == 2 * layer().cycles
    # The lazy record views round-trip the columns.
    assert report.layers == records
    assert len(report) == 3


def test_comparison_helpers():
    fast = report_from_layers("fast", [layer(compute=10, memory=0, encode=0, vpu=0)])
    slow = report_from_layers("slow", [layer(compute=40, memory=0, encode=0, vpu=0)])
    assert slow.total_cycles / fast.total_cycles == 4.0
    assert slow.total_energy_pj / fast.total_energy_pj == pytest.approx(1.0)
    assert fast.relative_memory_accesses(slow) == pytest.approx(1.0)


def test_empty_report_edge_cases():
    empty = report_from_layers("E", [])
    other = report_from_layers("O", [layer()])
    assert len(empty) == 0
    assert empty.total_cycles == 0.0
    assert empty.relative_memory_accesses(other) == 0.0
    assert other.relative_memory_accesses(empty) == float("inf")


def test_summary_format():
    report = report_from_layers("Ditto", [layer()])
    text = report.summary()
    assert "Ditto" in text and "cycles" in text and "bytes" in text
