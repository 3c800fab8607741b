#!/usr/bin/env python3
"""CI smoke check: the 1024-core chiplet design point runs end to end.

Runs the headline chiplet point of the scale-out sweep (MapReduce-W on
the 1024-core chiplet/NoI fabric) at the ambient
``REPRO_EXPERIMENT_SCALE`` (CI uses 0.1, the repo's smoke pattern)
against a throwaway result cache, then requires:

* the point simulated (cold run performs exactly one simulation),
  committed instructions and delivered messages across the interposer;
* the fabric's static description feeds the area pivot: the NoC area
  breakdown for the 1024-core chiplet chip reports non-zero link, buffer
  and crossbar area (i.e. ``describe()`` is populated, not a stub);
* a warm re-run against the same cache performs **zero** re-simulations
  while reproducing identical results — the chiplet results survive the
  result-store round-trip.

Violations raise (explicitly, not via ``assert``, so ``python -O``
cannot strip the checks) and exit non-zero.

Usage::

    PYTHONPATH=src REPRO_EXPERIMENT_SCALE=0.1 python scripts/check_chiplet.py
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.experiments.engine import ResultCache, SweepExecutor  # noqa: E402
from repro.experiments.scale_out import run_scale_out  # noqa: E402
from repro.fabrics import chiplet_system, describe_chiplet  # noqa: E402
from repro.power import noc_area  # noqa: E402

NUM_CORES = 1024


class CheckFailure(Exception):
    """A chiplet smoke invariant was violated."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def run_point(cache_dir: Path):
    executor = SweepExecutor(cache=ResultCache(cache_dir))
    results = run_scale_out(
        workload_names=("MapReduce-W",),
        core_counts=(NUM_CORES,),
        fabrics=("chiplet",),
        executor=executor,
    )
    return results, executor.last_stats


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        cache_dir = Path(tmp) / "cache"

        results, stats = run_point(cache_dir)
        check(len(results) == 1, f"expected 1 point, got {len(results)}")
        check(
            stats.simulations_run == 1,
            f"cold run should simulate the point, ran {stats.simulations_run}",
        )
        record = results[0]
        check(
            record.result.total_instructions > 0,
            "1024-core chiplet point committed no instructions",
        )
        check(
            record.result.messages_delivered > 0,
            "1024-core chiplet point delivered no messages",
        )
        print(
            f"chiplet @ {NUM_CORES} cores: "
            f"throughput {record.result.throughput_ipc:.3f} IPC, "
            f"{record.result.messages_delivered} messages"
        )

        config = chiplet_system(num_cores=NUM_CORES)
        descriptor = describe_chiplet(config)
        check(
            descriptor.num_routers > NUM_CORES,
            "chiplet descriptor is missing its interposer routers",
        )
        breakdown = noc_area(config)
        for component in ("links_mm2", "buffers_mm2", "crossbars_mm2"):
            check(
                breakdown.as_dict()[component] > 0,
                f"chiplet area breakdown reports zero {component}",
            )
        print(f"chiplet @ {NUM_CORES} cores NoC area: {breakdown.total_mm2:.2f} mm2")

        warm_results, warm_stats = run_point(cache_dir)
        check(
            warm_stats.simulations_run == 0,
            f"warm re-run re-simulated {warm_stats.simulations_run} points",
        )
        check(
            warm_results[0].result == record.result,
            "warm chiplet results diverged from the live run",
        )

    print("chiplet smoke check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
