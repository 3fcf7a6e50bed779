"""Order statistics used by the benchmark report."""

from __future__ import annotations

import math
import statistics

# A tail percentile is only reported when this many samples lie beyond it.
TAIL_MIN_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values))


def tail(samples, min_beyond: int = TAIL_MIN_BEYOND):
    """Highest percentile that has at least ``min_beyond`` samples beyond it.

    Returns ``(percentile, value)``, or None when there are too few samples
    for any percentile to qualify. The percentile is k/N for the k-th
    smallest of N samples, so exactly ``min_beyond`` samples rank above it.
    Failed operations enter as ``math.inf``: they count as missing the tail.
    """
    ordered = sorted(samples)
    k = len(ordered) - min_beyond
    if k < 1:
        return None
    return 100.0 * k / len(ordered), ordered[k - 1]


def latency_summary(latencies_ms, failed: int = 0) -> dict:
    """Median of the completed operations and the tail of all attempted ones."""
    out = {"samples": len(latencies_ms),
           "p50": median(latencies_ms) if latencies_ms else math.nan,
           "tail_percentile": None, "tail": None}
    found = tail(list(latencies_ms) + [math.inf] * failed)
    if found is not None:
        out["tail_percentile"], out["tail"] = found
    return out
