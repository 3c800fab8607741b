"""Performance metrics used by the paper's evaluation."""

from __future__ import annotations

import math
from typing import Dict, Iterable, Mapping, Sequence


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean, used for the GMean bars of Figures 7 and 9."""
    values = list(values)
    if not values:
        raise ValueError("geometric mean of an empty sequence is undefined")
    if any(v <= 0 for v in values):
        raise ValueError("geometric mean requires strictly positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def normalize(values: Mapping[str, float], baseline_key: str) -> Dict[str, float]:
    """Normalise a mapping of measurements to one baseline entry."""
    if baseline_key not in values:
        raise KeyError(f"baseline {baseline_key!r} missing from {sorted(values)}")
    baseline = values[baseline_key]
    if baseline == 0:
        raise ValueError("cannot normalise to a zero baseline")
    return {key: value / baseline for key, value in values.items()}


def speedup(new: float, old: float) -> float:
    """Relative speedup of ``new`` over ``old``."""
    if old == 0:
        raise ValueError("cannot compute speedup over zero")
    return new / old


def percentile_key(p: float) -> str:
    """Canonical dict key for the ``p``-th percentile: ``p50``, ``p99.9``."""
    return f"p{int(p)}" if float(p).is_integer() else f"p{p:g}"


def tail_summary(
    histogram, percentiles: Sequence[float] = (50.0, 95.0, 99.0)
) -> Dict[str, float]:
    """Summarise a latency histogram as count/mean plus tail percentiles.

    Returns ``{"count", "mean", "p50", "p95", "p99"}`` (keys per
    ``percentiles``).  An empty histogram summarises to zero count/mean
    with *no* percentile keys — a missing key reads as "not measured",
    never as a fabricated 0.0 tail.  A non-empty histogram that discarded
    its samples (``keep_samples=False``) raises
    :class:`repro.sim.stats.StatError`, preserving the percentile
    contract.
    """
    summary: Dict[str, float] = {
        "count": float(histogram.count),
        "mean": float(histogram.mean),
    }
    if histogram.count:
        for p in percentiles:
            summary[percentile_key(p)] = float(histogram.percentile(p))
    return summary
