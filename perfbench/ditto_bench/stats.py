"""Order statistics shared by the end-to-end and per-layer metrics."""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence, Tuple

TAIL_BEYOND = 10


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def tail(
    values: Sequence[float], pct: Optional[float] = None, beyond: int = TAIL_BEYOND
) -> Tuple[float, float, int]:
    """A tail percentile with at least ``beyond`` samples above it.

    Returns ``(value, percentile, sample_count)``.  Without ``pct`` this is
    the highest such percentile: the ``beyond + 1``-th largest sample, so
    100 samples give the 90th percentile and 1000 the 99th.  With ``pct``
    it is the nearest-rank ``pct`` percentile, which must leave ``beyond``
    samples above it; a fixed percentile keeps a figure comparable between
    runs whose sample counts differ.
    """
    n = len(values)
    if pct is None:
        rank = n - beyond  # 1-based nearest rank
        pct = 100.0 * rank / n if n else 0.0
    else:
        rank = math.ceil(pct * n / 100.0 - 1e-9)
    if n - rank < beyond or rank < 1:
        raise ValueError(
            f"{n} samples leave fewer than {beyond} above the {pct:g}th percentile"
        )
    return float(sorted(values)[rank - 1]), pct, n
