"""Naive record-at-a-time reference implementations of the cost models.

The product code prices traces only as numpy columns
(:meth:`RichTrace.lower_modes`, :mod:`repro.core.bops`, the accelerators'
``*_array`` stage models).  The formulas below restate each model one
record at a time in plain Python, straight from the paper's description, so
the vectorized == scalar tests compare two independent formulations.
"""

from typing import Dict, Sequence

import numpy as np

from repro.core import ExecutionMode
from repro.core.bitwidth import FULL_BITS, LOW_BITS, BitWidthStats
from repro.core.trace import ACT_BYTES, SIGN_MASK_KINDS, STATE_BYTES, LayerStep
from repro.hw import CambriconDAccelerator, GPUModel
from repro.hw.report import HardwareReport, LayerCycles

__all__ = [
    "derive_layer_step",
    "bops_per_mac",
    "layer_bops",
    "layer_cycles",
    "report_from_layers",
]


# -- lowering ----------------------------------------------------------------

def _bypasses_prev_input(rich, bypass_style: str) -> bool:
    if bypass_style == "chained":
        return rich.chained_input
    if bypass_style == "sign_mask":
        return rich.producer_kind in SIGN_MASK_KINDS
    if bypass_style == "both":
        return rich.chained_input or rich.producer_kind in SIGN_MASK_KINDS
    if bypass_style == "none":
        return False
    raise ValueError(f"unknown bypass style {bypass_style!r}")


def derive_layer_step(rich, mode: ExecutionMode, bypass_style: str = "chained") -> LayerStep:
    """Lower one rich record to the hardware-facing view for ``mode``."""
    if mode is ExecutionMode.TEMPORAL and not rich.has_temporal:
        mode = ExecutionMode.DENSE
    bytes_extra = 0
    sub_ops = 1
    if mode is ExecutionMode.TEMPORAL:
        stats = rich.stats_temporal
        sub_ops = rich.sub_ops_temporal
        prev_in = 0 if _bypasses_prev_input(rich, bypass_style) else rich.in_elems * ACT_BYTES
        bytes_extra = (
            prev_in
            + rich.in_elems * ACT_BYTES  # store current input for next step
            + 2 * rich.out_elems * STATE_BYTES  # load + store partial state
        )
    elif mode is ExecutionMode.SPATIAL:
        stats = rich.stats_spatial
    else:
        stats = rich.stats_dense
    return LayerStep(
        step_index=rich.step_index,
        layer_name=rich.layer_name,
        kind=rich.kind,
        mode=mode,
        macs=rich.macs,
        data_elems=rich.data_elems,
        stats=stats,
        bytes_in=rich.in_elems * ACT_BYTES,
        bytes_weight=rich.weight_elems * ACT_BYTES,
        bytes_out=rich.out_elems * ACT_BYTES,
        bytes_extra=bytes_extra,
        vpu_elems=rich.vpu_elems,
        sub_ops=sub_ops,
        nonlinear_after=rich.nonlinear_after,
        chained_input=rich.chained_input,
    )


# -- BOPs ----------------------------------------------------------------------

_DENSE_COST = FULL_BITS * FULL_BITS
_LOW_COST = LOW_BITS * FULL_BITS


def bops_per_mac(stats: BitWidthStats, zero_skipping: bool = True) -> float:
    """Average bit-operations per MAC given operand composition."""
    zero_cost = 0.0 if zero_skipping else float(_LOW_COST)
    return (
        stats.zero_frac * zero_cost
        + stats.low_frac * _LOW_COST
        + stats.high_frac * _DENSE_COST
    )


def layer_bops(step: LayerStep, zero_skipping: bool = True) -> float:
    """BOPs of one record; dense costs exactly ``macs * sub_ops * 64``."""
    if step.mode is ExecutionMode.DENSE:
        return float(step.macs * step.sub_ops * _DENSE_COST)
    return step.macs * step.sub_ops * bops_per_mac(step.stats, zero_skipping)


# -- accelerator cycles and energy ------------------------------------------

def _lane_ops(cfg, step: LayerStep) -> Dict[str, float]:
    total = step.macs * step.sub_ops
    if step.mode is ExecutionMode.DENSE:
        return {"low": 0.0, "high": float(total)}
    stats = step.stats
    zero_cost = 0.0 if cfg.supports_zero_skip else 1.0
    return {
        "low": total * (stats.low_frac + stats.zero_frac * zero_cost),
        "high": total * stats.high_frac,
    }


def _compute_cycles(accel, step: LayerStep) -> float:
    cfg = accel.config
    ops = _lane_ops(cfg, step)
    if isinstance(accel, CambriconDAccelerator):
        if step.mode is ExecutionMode.DENSE:
            return (step.macs * step.sub_ops) / cfg.outlier_mults
        return max(ops["low"] / cfg.num_mults, ops["high"] / cfg.outlier_mults)
    if cfg.mult_bits >= 8:
        return (ops["low"] + ops["high"]) / cfg.num_mults
    return (ops["low"] + 2.0 * ops["high"]) / cfg.num_mults


def _energy(accel, step: LayerStep, cycles: float) -> Dict[str, float]:
    cfg = accel.config
    e = cfg.energy
    ops = _lane_ops(cfg, step)
    if isinstance(accel, CambriconDAccelerator) and step.mode is ExecutionMode.DENSE:
        compute = step.macs * step.sub_ops * e.mult8_pj
    elif cfg.mult_bits >= 8:
        compute = (ops["low"] + ops["high"]) * e.mult8_pj
    else:
        compute = ops["low"] * e.mult4_pj + ops["high"] * e.mult8_pj
    dense = step.mode is ExecutionMode.DENSE
    return {
        "compute": compute,
        "encode": 0.0 if dense else step.data_elems * e.encode_pj,
        "vpu": step.vpu_elems * e.vpu_pj,
        "defo": e.defo_pj,
        "sram": step.bytes_total * e.sram_byte_pj,
        "dram": step.bytes_total * e.dram_byte_pj,
        "leak": cycles * cfg.num_mults * e.leak_per_mult_cycle_pj,
    }


def _gpu_layer_cycles(gpu: GPUModel, step: LayerStep) -> LayerCycles:
    compute = step.macs / (gpu.peak_macs_per_cycle * gpu.utilization) + gpu.launch_cycles
    seconds = compute / (gpu.freq_ghz * 1e9)
    return LayerCycles(
        layer_name=step.layer_name,
        step_index=step.step_index,
        mode="dense",
        compute_cycles=compute,
        memory_cycles=0.0,
        energy_pj={"gpu": gpu.power_w * seconds * 1e12},
        bytes_moved=step.bytes_in + step.bytes_weight + step.bytes_out,
    )


def layer_cycles(accel, step: LayerStep) -> LayerCycles:
    """One record on one hardware model: the slowest pipelined stage wins."""
    if isinstance(accel, GPUModel):
        return _gpu_layer_cycles(accel, step)
    cfg = accel.config
    compute = _compute_cycles(accel, step)
    memory = step.bytes_total / cfg.dram_bw_bytes_per_cycle
    encode = 0.0 if step.mode is ExecutionMode.DENSE else step.data_elems / cfg.num_mults
    vpu = step.vpu_elems / max(cfg.num_mults / 8.0, 1.0)
    return LayerCycles(
        layer_name=step.layer_name,
        step_index=step.step_index,
        mode=str(step.mode),
        compute_cycles=compute,
        memory_cycles=memory,
        encode_cycles=encode,
        vpu_cycles=vpu,
        energy_pj=_energy(accel, step, max(compute, memory, encode, vpu)),
        bytes_moved=step.bytes_total,
    )


# -- reports -------------------------------------------------------------------

def report_from_layers(hardware: str, layers: Sequence[LayerCycles]) -> HardwareReport:
    """A columnar report holding hand-made records (missing energy -> 0 pJ)."""
    names = list(dict.fromkeys(layer.layer_name for layer in layers))
    modes = list(dict.fromkeys(layer.mode for layer in layers))
    components = list(dict.fromkeys(k for layer in layers for k in layer.energy_pj))

    def column(attr):
        return np.array([getattr(layer, attr) for layer in layers], dtype=np.float64)

    return HardwareReport.from_arrays(
        hardware=hardware,
        layer_names=names,
        layer_ids=np.array([names.index(x.layer_name) for x in layers], dtype=np.int64),
        step_index=np.array([x.step_index for x in layers], dtype=np.int64),
        modes=modes,
        mode_ids=np.array([modes.index(x.mode) for x in layers], dtype=np.int64),
        compute=column("compute_cycles"),
        memory=column("memory_cycles"),
        encode=column("encode_cycles"),
        vpu=column("vpu_cycles"),
        energy={
            k: np.array([x.energy_pj.get(k, 0.0) for x in layers], dtype=np.float64)
            for k in components
        },
        bytes_moved=np.array([x.bytes_moved for x in layers], dtype=np.int64),
    )
