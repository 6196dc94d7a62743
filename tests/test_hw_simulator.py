"""Integration tests: design points over a real engine trace."""

import pytest

from repro.hw import (
    FIG13_DESIGNS,
    FIG15_DESIGNS,
    FIG16_DESIGNS,
    FIG18_DESIGNS,
    DesignPoint,
    evaluate_design,
    evaluate_designs,
)


@pytest.fixture(scope="module")
def results(tiny_engine_result):
    return evaluate_designs(FIG13_DESIGNS, tiny_engine_result.rich_trace)


def test_all_fig13_designs_evaluate(results):
    assert set(results) == {"GPU", "ITC", "Diffy", "Cambricon-D", "Ditto", "Ditto+"}
    for result in results.values():
        assert result.report.total_cycles > 0
        assert result.report.total_energy_pj > 0


def test_defo_report_attached_only_for_defo_policies(results):
    assert results["Ditto"].defo is not None
    assert results["Ditto+"].defo is not None
    assert results["ITC"].defo is None
    assert results["Diffy"].defo is None


def test_accelerators_faster_than_gpu(results):
    gpu = results["GPU"].report.total_cycles
    for name in ("ITC", "Diffy", "Ditto", "Ditto+"):
        assert results[name].report.total_cycles < gpu


def test_ditto_beats_cambricon(results):
    assert (
        results["Ditto"].report.total_cycles
        < results["Cambricon-D"].report.total_cycles
    )


def test_temporal_designs_move_more_bytes(results):
    itc = results["ITC"].report.total_bytes
    assert results["Cambricon-D"].report.total_bytes > itc
    assert results["Ditto"].report.total_bytes >= itc
    # Defo keeps Ditto's traffic below naive Cambricon-D.
    assert (
        results["Ditto"].report.total_bytes
        <= results["Cambricon-D"].report.total_bytes
    )


def test_report_helpers(results):
    itc = results["ITC"].report
    ditto = results["Ditto"].report
    assert ditto.total_cycles == pytest.approx(
        sum(layer.cycles for layer in ditto.layers)
    )
    assert ditto.relative_memory_accesses(itc) == pytest.approx(
        ditto.total_bytes / itc.total_bytes
    )
    breakdown = ditto.energy_breakdown_pj()
    assert sum(breakdown.values()) == pytest.approx(ditto.total_energy_pj)
    assert "Ditto" in ditto.summary()


def test_cycles_by_step_covers_all_steps(results, tiny_engine_result):
    per_step = results["Ditto"].report.cycles_by_step()
    assert set(per_step) == set(range(tiny_engine_result.rich_trace.num_steps()))


def test_fig16_ablation_designs(tiny_engine_result):
    results = evaluate_designs(FIG16_DESIGNS, tiny_engine_result.rich_trace)
    assert set(results) == {
        "ITC", "DS", "DB", "DB&DS", "DB&DS&Attn", "Ditto", "Ditto+",
    }
    # DB&DS (both mechanisms) must out-compute DS and DB alone.
    for weaker in ("DS", "DB"):
        assert (
            results["DB&DS"].report.compute_cycles
            <= results[weaker].report.compute_cycles + 1e-6
        )
    # Defo reduces stalls relative to the naive all-temporal schedule.
    assert (
        results["Ditto"].report.stall_cycles
        <= results["DB&DS&Attn"].report.stall_cycles + 1e-6
    )


def test_fig18_ideal_upper_bounds_defo(tiny_engine_result):
    results = evaluate_designs(FIG18_DESIGNS, tiny_engine_result.rich_trace)
    assert (
        results["Ideal-Ditto"].report.total_cycles
        <= results["Ditto"].report.total_cycles + 1e-6
    )
    assert (
        results["Ideal-Ditto+"].report.total_cycles
        <= results["Ditto+"].report.total_cycles + 1e-6
    )


def test_fig15_software_techniques(tiny_engine_result):
    results = evaluate_designs(FIG15_DESIGNS, tiny_engine_result.rich_trace)
    # Attention difference processing must not hurt Cambricon-D.
    org = results["Org. Cam-D"].report.total_cycles
    attn = results["Cam-D & Attn. Diff."].report.total_cycles
    assert attn <= org * 1.05
    # Defo keeps Cambricon-D in the same regime (it may trade memory
    # savings for outlier-PE dense compute, per the paper's Fig. 15 text).
    defo = results["Cam-D & Attn. Diff. & Defo"].report.total_cycles
    assert defo <= attn * 1.2
    # Every Cambricon-D variant stays behind Ditto (paper Fig. 15 claim).
    ditto = results["Ditto"].report.total_cycles
    assert ditto < defo


def test_unknown_policy_rejected(tiny_engine_result):
    bad = DesignPoint("X", "Ditto", "mystery")
    with pytest.raises(ValueError):
        evaluate_design(bad, tiny_engine_result.rich_trace)


def test_dynamic_policy_runs(tiny_engine_result):
    point = DesignPoint("Dyn", "Ditto", "dynamic")
    result = evaluate_design(point, tiny_engine_result.rich_trace)
    assert result.defo is not None
    assert result.defo.dynamic
