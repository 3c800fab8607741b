#!/usr/bin/env python3
"""CI check: a sharded fill of one shared store serves the figure and a pivot warm.

Two concurrent processes split the Figure-1 spec with ``spec.shard(i, 2)``
and fill the *same* store directory, as two machines sharing a directory
would:

1. launch one process per shard (``REPRO_JOBS=1`` each), each running
   ``run_sweep(figure1_spec().shard(i, 2))`` against the shared store, and
   wait for both;
2. require the shards' simulated sets are disjoint and together cover
   every point of the sweep;
3. require the shared store to hold exactly one ``results/<hash>.json``
   per sweep point and nothing else;
4. serve one pivot per workload through ``python -m repro.reporting
   --store DIR pivot`` and require success — ``pivot`` cannot simulate by
   construction, so a warm answer proves zero re-simulations;
5. require each served pivot to equal the pivot ``run_sweep`` computes
   over the same store, with zero simulations;
6. regenerate the figure's report section through the reporting layer
   against the same store and require zero simulations.

Honours ``REPRO_EXPERIMENT_SCALE``; CI runs it at scale 0.1.  Violations
raise (explicitly, not via ``assert``, so ``python -O`` cannot strip the
checks) and exit non-zero.

Usage::

    PYTHONPATH=src REPRO_EXPERIMENT_SCALE=0.1 python scripts/check_store_shards.py
    # keep the filled store (e.g. for a CI artifact):
    ... python scripts/check_store_shards.py --store-dir shard-store
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.experiments.engine import ResultCache, SweepExecutor  # noqa: E402
from repro.experiments.fig1_scaling import figure1_spec  # noqa: E402
from repro.reporting.cli import generate  # noqa: E402
from repro.scenarios import run_sweep  # noqa: E402

SHARDS = 2
FIGURE = "fig1"


class CheckFailure(Exception):
    """A shard/store invariant was violated."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


class RecordingCache(ResultCache):
    """A :class:`ResultCache` that remembers which points it stored."""

    def __init__(self, root) -> None:
        super().__init__(root)
        self.stored = []

    def store(self, point, result):
        self.stored.append(point.content_hash())
        return super().store(point, result)


def fill_shard(index: int, store_dir: str) -> None:
    """Child process: fill one shard and print what it simulated as JSON."""
    cache = RecordingCache(store_dir)
    executor = SweepExecutor(cache=cache)
    shard = figure1_spec().shard(index, SHARDS)
    run_sweep(shard, executor=executor)
    stats = executor.last_stats
    print(
        json.dumps(
            {
                "shard": index,
                "simulations_run": stats.simulations_run,
                "cache_hits": stats.cache_hits,
                "simulated_hashes": cache.stored,
            }
        )
    )


def run_shards(store_dir: Path) -> list:
    """Launch one process per shard concurrently and return their summaries."""
    env = dict(os.environ, REPRO_JOBS="1")
    procs = [
        subprocess.Popen(
            [
                sys.executable, __file__,
                "--fill-shard", str(index),
                "--store-dir", str(store_dir),
            ],
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        )
        for index in range(SHARDS)
    ]
    summaries = []
    for proc in procs:
        out, _ = proc.communicate()
        check(proc.returncode == 0, f"shard process exited with {proc.returncode}")
        summaries.append(json.loads(out.strip().splitlines()[-1]))
    return summaries


def run_pivot(store_dir: Path, *args: str) -> str:
    result = subprocess.run(
        [
            sys.executable, "-m", "repro.reporting",
            "--store", str(store_dir), "pivot", *args,
        ],
        capture_output=True,
        text=True,
    )
    check(
        result.returncode == 0,
        f"pivot {' '.join(args)} exited with {result.returncode}: {result.stderr}",
    )
    return result.stdout


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--store-dir",
        default=None,
        help="fill this store directory (kept afterwards) instead of a temp dir",
    )
    parser.add_argument("--fill-shard", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.fill_shard is not None:
        fill_shard(args.fill_shard, args.store_dir)
        return 0

    spec = figure1_spec()
    all_hashes = {sp.content_hash() for sp in spec.expand()}
    print(f"Figure 1 spec: {len(all_hashes)} points, {SHARDS} shard processes")

    with tempfile.TemporaryDirectory(prefix="repro-shard-check-") as tmp:
        tmp = Path(tmp)
        store_dir = Path(args.store_dir) if args.store_dir else tmp / "store"

        simulated = []
        for summary in run_shards(store_dir):
            hashes = set(summary["simulated_hashes"])
            print(
                f"  shard {summary['shard']}: {summary['simulations_run']} simulated, "
                f"{summary['cache_hits']} already stored"
            )
            check(
                len(hashes) == summary["simulations_run"],
                f"shard {summary['shard']} stored {len(hashes)} distinct points "
                f"but ran {summary['simulations_run']} simulations",
            )
            simulated.append(hashes)

        union = set().union(*simulated)
        overlap = set.intersection(*simulated)
        check(not overlap, f"{len(overlap)} point(s) were simulated by both shards")
        check(
            union == all_hashes,
            f"shards covered {len(union)} of {len(all_hashes)} points",
        )

        expected_files = sorted(f"results/{digest}.json" for digest in all_hashes)
        stored_files = sorted(
            str(path.relative_to(store_dir))
            for path in store_dir.rglob("*")
            if path.is_file()
        )
        check(
            stored_files == expected_files,
            f"store holds {len(stored_files)} file(s) "
            f"({sorted(set(stored_files) - set(expected_files))[:3]} unexpected), "
            f"expected one results/<hash>.json per point ({len(expected_files)})",
        )
        print(f"  store: one result file per point ({len(stored_files)} files)")

        executor = SweepExecutor(jobs=1, cache=ResultCache(store_dir))
        results = run_sweep(spec, executor=executor)
        check(
            executor.last_stats.simulations_run == 0,
            "run_sweep over the shard-filled store simulated "
            f"{executor.last_stats.simulations_run} point(s)",
        )
        # One pivot per workload: a (num_cores, topology) cell holds one
        # point only once the workload is pinned.
        for workload in results.axis_values("workload"):
            pivot_text = run_pivot(
                store_dir,
                FIGURE,
                "--index", "num_cores",
                "--columns", "topology",
                "--metric", "per_core_ipc",
                "--where", f"workload={workload}",
            )
            table = results.filter(workload=workload).pivot(
                "num_cores", "topology", metric="per_core_ipc"
            )
            expected = json.dumps(table, indent=2, sort_keys=True, default=str)
            check(
                pivot_text == expected + "\n",
                f"served {workload} pivot differs from run_sweep's over the same store",
            )
        print("  pivots served warm, equal to run_sweep's")

        outcome = generate(
            figures=[FIGURE],
            out_dir=str(tmp / "report"),
            executor=SweepExecutor(jobs=1, cache=ResultCache(store_dir)),
        )
        stats = outcome["stats"]
        print(
            f"  report regeneration: {stats.cache_hits} hits, "
            f"{stats.simulations_run} simulated"
        )
        check(
            stats.simulations_run == 0 and stats.cache_misses == 0,
            "report regeneration against the shard-filled store re-simulated "
            f"{stats.simulations_run} point(s) ({stats.cache_misses} misses)",
        )

    print(
        "OK: 2-shard fill of one store serves the figure and a pivot "
        "with zero re-simulations"
    )
    return 0


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except CheckFailure as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        raise SystemExit(1)
