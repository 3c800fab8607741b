#!/usr/bin/env python3
"""CI smoke check: the tenancy co-location sweep runs end to end.

Runs the reduced co-location sweep (all three placements, bursty
arrivals, the top default load) on the 64-core mesh at the ambient
``REPRO_EXPERIMENT_SCALE`` (CI uses 0.1, the repo's smoke pattern)
against a throwaway result cache, then requires:

* every point simulated, delivered probe traffic, and produced a
  populated per-tenant latency pivot (p99 present for every tenant that
  owns cores);
* ``split_half`` reports *distinct* per-tenant tails — the
  whole point of the tenancy layer is that the two tenants' latency
  distributions are separable;
* a warm re-run against the same cache performs **zero** re-simulations
  while still reproducing the identical pivot — i.e. the per-tenant
  summaries survive the result round-trip, not just the live run;
* the report hook renders (so it cannot silently rot).

Violations raise (explicitly, not via ``assert``, so ``python -O``
cannot strip the checks) and exit non-zero.

Usage::

    PYTHONPATH=src REPRO_EXPERIMENT_SCALE=0.1 python scripts/check_colocation.py
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.experiments.colocation import (  # noqa: E402
    LOADS,
    PLACEMENTS,
    colocation_pivot,
    colocation_report,
    colocation_spec,
)
from repro.experiments.engine import ResultCache, SweepExecutor  # noqa: E402
from repro.scenarios import run_sweep  # noqa: E402


class CheckFailure(Exception):
    """A co-location invariant was violated."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def run_reduced(cache_dir: Path):
    executor = SweepExecutor(cache=ResultCache(cache_dir))
    spec = colocation_spec(arrivals=("bursty",), loads=(LOADS[-1],))
    results = run_sweep(spec, executor=executor)
    return results, executor.last_stats


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        cache_dir = Path(tmp) / "cache"

        results, stats = run_reduced(cache_dir)
        check(
            len(results) == len(PLACEMENTS),
            f"expected {len(PLACEMENTS)} points, got {len(results)}",
        )
        check(
            stats.simulations_run == len(PLACEMENTS),
            f"cold run should simulate every point, ran {stats.simulations_run}",
        )

        pivot = colocation_pivot(results)
        for placement in PLACEMENTS:
            check(placement in pivot, f"no per-tenant pivot for {placement!r}")
            for tenant, by_point in pivot[placement].items():
                check(
                    all(p99 > 0 for p99 in by_point.values()),
                    f"{placement}/{tenant} produced no probe latency",
                )

        split = pivot["split_half"]
        check(
            len(split) == 2,
            f"split_half should report two tenants, got {sorted(split)}",
        )
        tails = [next(iter(by_point.values())) for by_point in split.values()]
        check(
            tails[0] != tails[1],
            f"split_half tenants report identical p99 ({tails[0]}); "
            "per-tenant attribution is not separating them",
        )
        for tenant, by_point in split.items():
            print(f"split_half {tenant}: p99 {next(iter(by_point.values())):.1f} cycles")

        warm_results, warm_stats = run_reduced(cache_dir)
        check(
            warm_stats.simulations_run == 0,
            f"warm re-run re-simulated {warm_stats.simulations_run} points",
        )
        check(
            colocation_pivot(warm_results) == pivot,
            "warm per-tenant pivot diverged from the live run",
        )

        report = colocation_report(warm_results)
    check("split_half" in report.measured_table, "report table lost split_half rows")
    print(report.measured_table)
    print(f"colocation baseline check: {report.comparison.status}")
    print("colocation smoke check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
