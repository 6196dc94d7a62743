"""Result containers produced by the hardware models.

:class:`HardwareReport` is columnar: the accelerator models hand over flat
numpy columns (one per stage, one per energy component) via
:meth:`HardwareReport.from_arrays`, aggregate metrics run as column
reductions, and per-record :class:`LayerCycles` views are only materialized
if somebody iterates ``report.layers``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

__all__ = ["LayerCycles", "HardwareReport"]


@dataclass
class LayerCycles:
    """Cycle/energy outcome of one layer-step on one hardware model."""

    layer_name: str
    step_index: int
    mode: str
    compute_cycles: float
    memory_cycles: float
    encode_cycles: float = 0.0
    vpu_cycles: float = 0.0
    energy_pj: Dict[str, float] = field(default_factory=dict)
    bytes_moved: int = 0

    @property
    def cycles(self) -> float:
        """Pipelined execution: the slowest stage bounds the layer."""
        return max(
            self.compute_cycles,
            self.memory_cycles,
            self.encode_cycles,
            self.vpu_cycles,
        )

    @property
    def stall_cycles(self) -> float:
        """Cycles the Compute Unit waits on memory."""
        return max(0.0, self.memory_cycles - self.compute_cycles)

    @property
    def total_energy_pj(self) -> float:
        return sum(self.energy_pj.values())


class HardwareReport:
    """Aggregate outcome of running a full trace on one hardware model.

    Built by :meth:`from_arrays`; ``arrays`` holds the per-record columns.
    """

    def __init__(self, hardware: str, arrays: dict) -> None:
        self.hardware = hardware
        self._arrays = arrays
        self._layers: Optional[List[LayerCycles]] = None

    @classmethod
    def from_arrays(
        cls,
        hardware: str,
        layer_names: List[str],
        layer_ids: np.ndarray,
        step_index: np.ndarray,
        modes: List[str],
        mode_ids: np.ndarray,
        compute: np.ndarray,
        memory: np.ndarray,
        encode: np.ndarray,
        vpu: np.ndarray,
        energy: Dict[str, np.ndarray],
        bytes_moved: np.ndarray,
    ) -> "HardwareReport":
        """Columnar constructor: one entry per record in every array."""
        cycles = np.maximum(np.maximum(compute, memory), np.maximum(encode, vpu))
        return cls(
            hardware,
            {
                "layer_names": layer_names,
                "layer_ids": np.asarray(layer_ids),
                "step_index": np.asarray(step_index),
                "modes": modes,
                "mode_ids": np.asarray(mode_ids),
                "compute": np.asarray(compute, dtype=np.float64),
                "memory": np.asarray(memory, dtype=np.float64),
                "encode": np.asarray(encode, dtype=np.float64),
                "vpu": np.asarray(vpu, dtype=np.float64),
                "cycles": cycles,
                "energy": {
                    k: np.asarray(v, dtype=np.float64) for k, v in energy.items()
                },
                "bytes_moved": np.asarray(bytes_moved),
            },
        )

    # -- record access -----------------------------------------------------
    @property
    def layers(self) -> List[LayerCycles]:
        """Per-record :class:`LayerCycles` views, materialized on first use."""
        if self._layers is None:
            a = self._arrays
            energy_items = list(a["energy"].items())
            self._layers = [
                LayerCycles(
                    layer_name=a["layer_names"][a["layer_ids"][i]],
                    step_index=int(a["step_index"][i]),
                    mode=a["modes"][a["mode_ids"][i]],
                    compute_cycles=float(a["compute"][i]),
                    memory_cycles=float(a["memory"][i]),
                    encode_cycles=float(a["encode"][i]),
                    vpu_cycles=float(a["vpu"][i]),
                    energy_pj={k: float(v[i]) for k, v in energy_items},
                    bytes_moved=int(a["bytes_moved"][i]),
                )
                for i in range(len(self))
            ]
        return self._layers

    def __len__(self) -> int:
        return len(self._arrays["step_index"])

    # -- cycles ----------------------------------------------------------
    @property
    def total_cycles(self) -> float:
        return float(self._arrays["cycles"].sum())

    @property
    def compute_cycles(self) -> float:
        """Compute Unit busy cycles, capped by each record's wall time."""
        a = self._arrays
        return float(np.minimum(a["compute"], a["cycles"]).sum())

    @property
    def stall_cycles(self) -> float:
        a = self._arrays
        return float(np.maximum(a["memory"] - a["compute"], 0.0).sum())

    # -- energy / traffic -------------------------------------------------
    @property
    def total_energy_pj(self) -> float:
        return float(sum(arr.sum() for arr in self._arrays["energy"].values()))

    def energy_breakdown_pj(self) -> Dict[str, float]:
        return {
            component: float(arr.sum())
            for component, arr in self._arrays["energy"].items()
        }

    @property
    def total_bytes(self) -> int:
        return int(self._arrays["bytes_moved"].sum())

    def relative_memory_accesses(self, other: "HardwareReport") -> float:
        if other.total_bytes == 0:
            return float("inf")
        return self.total_bytes / other.total_bytes

    # -- per-step view -----------------------------------------------------
    def cycles_by_step(self) -> Dict[int, float]:
        a = self._arrays
        steps, inverse = np.unique(a["step_index"], return_inverse=True)
        sums = np.bincount(inverse, weights=a["cycles"])
        return {int(step): float(sums[i]) for i, step in enumerate(steps)}

    def summary(self) -> str:
        energy_uj = self.total_energy_pj / 1e6
        return (
            f"{self.hardware}: {self.total_cycles:,.0f} cycles "
            f"(compute {self.compute_cycles:,.0f}, stall {self.stall_cycles:,.0f}), "
            f"{energy_uj:,.2f} uJ, {self.total_bytes:,} bytes"
        )
