"""Host-speed probe: a fixed numpy kernel timed between the measured tasks.

The host shares its cores with other tenants, and its speed drifts by
15-30% over minutes while staying steady within a run (see README.md).
Every timing metric is therefore reported at a *reference host speed*:
multiplied by ``REFERENCE_S / median probe time of the run``.  The probe
is benchmark-owned code in two parts, so it slows down with the host much
as the program does, while a change to the program leaves it untouched:

* an array part shaped like one quantized UNet block at batch 2
  (quantize, im2col, f32 GEMM, GroupNorm, SiLU, attention softmax), which
  tracks plan replay and the transformer steps;
* a dispatch part of many tiny-array numpy calls, which tracks the
  interpreter-bound batch-1 serving steps of small UNets.  The array part
  alone over-corrects those: on the development host the batch-1 DDPM
  step and the array part drift apart by up to 25%.
"""

from __future__ import annotations

import time
from typing import List

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import stats

# The probe's median time on the 2-CPU container the bounds were set on.
REFERENCE_S = 0.035


class HostProbe:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal((2, 64, 16, 16))
        self._w = (rng.standard_normal((64, 576)) * 0.05).astype(np.float32)
        self._tiny = [rng.standard_normal((8, 32)) for _ in range(8)]
        self.samples: List[float] = []
        self._kernel()  # first-call set-up stays out of the samples

    def _kernel(self) -> float:
        x0, w = self._x, self._w
        t0 = time.perf_counter()
        x = x0
        for _ in range(8):
            q = np.clip(np.rint(x * 20.0), -127, 127).astype(np.float32)
            padded = np.pad(q, ((0, 0), (0, 0), (1, 1), (1, 1)))
            cols = np.ascontiguousarray(
                sliding_window_view(padded, (3, 3), axis=(2, 3)).transpose(0, 1, 4, 5, 2, 3)
            ).reshape(2, 576, 256)
            y = np.matmul(w, cols).astype(np.float64) * 0.05
            g = y.reshape(2, 8, -1)
            g = (g - g.mean(-1, keepdims=True)) / np.sqrt(g.var(-1, keepdims=True) + 1e-5)
            y = g.reshape(2, 64, 256)
            y = y / (1.0 + np.exp(-y))
            s = np.matmul(y.transpose(0, 2, 1), y) * 0.125
            s = np.exp(s - s.max(-1, keepdims=True))
            s /= s.sum(-1, keepdims=True)
            x = np.matmul(y, s).reshape(x0.shape) * 0.5 + x0 * 0.5
        for _ in range(200):
            for t in self._tiny:
                q = np.clip(np.rint(t * 3.0), -8, 7)
                float((q - t).sum())
        return time.perf_counter() - t0

    def sample(self) -> None:
        self.samples.append(self._kernel())

    def factor(self) -> float:
        """Multiply a time by this (divide a rate) for the reference host."""
        return REFERENCE_S / stats.median(self.samples)
