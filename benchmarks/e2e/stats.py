"""Order statistics used by the e2e benchmark (no ``repro`` imports).

Everything here is plain python over lists of floats so the self-tests
can pin the arithmetic without numpy rounding in the way.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence

#: A tail percentile is reported only when at least this many samples
#: lie beyond it (the choosing-metrics rule).
MIN_SAMPLES_BEYOND = 10

#: The percentiles a tail may be read at, best first.  Nothing above p95:
#: p99 inter-token gaps swung +-25 % run to run on the landing box, so
#: they stay diagnostics.  Nothing between p50 and p90 either: a block of
#: a few dozen requests has a handful of distinct tick shapes, and a
#: percentile that lands between two of them flips with the seed.
TAIL_LADDER = (95.0, 90.0, 50.0)


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (numpy's default definition)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= pct <= 100.0:
        raise ValueError(f"pct must be in [0, 100], got {pct}")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def supported_tail(n_samples: int) -> float:
    """Highest rung of :data:`TAIL_LADDER` with enough samples beyond it.

    ``n`` samples leave ``n * (1 - p/100)`` of them above percentile
    ``p``; the rule wants at least :data:`MIN_SAMPLES_BEYOND` there.  A
    sample too small for p90 reports its median a second time rather
    than a tail nothing supports.
    """
    if n_samples <= 0:
        raise ValueError("no samples")
    for pct in TAIL_LADDER:
        if n_samples * (100.0 - pct) >= 100.0 * MIN_SAMPLES_BEYOND:
            return pct
    return TAIL_LADDER[-1]


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def spread(values: Sequence[float]) -> float:
    """Width of repeated values as a share of their median.

    The distance between the quartiles when there are at least four
    values (one slow set-up out of seven is an outlier, not the spread),
    the full range for two or three, 0 for a single value.
    """
    mid = median(values)
    if len(values) < 2 or mid == 0:
        return 0.0
    if len(values) >= 4:
        return (percentile(values, 75.0) - percentile(values, 25.0)) / abs(mid)
    return (max(values) - min(values)) / abs(mid)


def summarise_latency(samples_ms: Sequence[float], tail_pct: float) -> Dict[str, float]:
    """p50, the tail at ``tail_pct``, the diagnostic p99 and the sample count."""
    return {
        "n": len(samples_ms),
        "p50": percentile(samples_ms, 50.0),
        "tail": percentile(samples_ms, tail_pct),
        "tail_pct": tail_pct,
        "p99": percentile(samples_ms, 99.0),
    }


def median_or_none(values: Sequence[Optional[float]]) -> Optional[float]:
    """Median over repeats, ``None`` when any repeat lacks the value."""
    if not values or any(v is None for v in values):
        return None
    return median(values)
