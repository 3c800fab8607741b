#!/usr/bin/env python3
"""Benchmark of the NOC-Out reproduction: end-to-end and per-layer numbers.

Run from the repository root::

    python3 benchmarks/perf/run.py                     # every workload, 3 runs + 1 traced run each
    python3 benchmarks/perf/run.py --workload noc_congested --seed 1042 --repeat 5
    python3 benchmarks/perf/run.py --workload report_cold --seed 7 --seconds 20 --trace 0
    python3 benchmarks/perf/run.py --profile report_cold
    python3 benchmarks/perf/run.py --record-expected
    python3 benchmarks/perf/run.py compare A/results.json B/results.json
    python3 benchmarks/perf/run.py full-report [--seed 42] [--write-fixture]

With ``--workload`` and no ``--repeat`` the command makes one run and
prints, as the last line of stdout, ``{"correct", "attempted", "failed",
"metrics"}`` with the end-to-end metrics of ``BENCHMARK.json`` (or, with
``--trace 1``, its per-layer metrics).  Otherwise it makes ``--repeat``
untraced runs and one traced run per workload, prints each metric's median
and quartiles, and writes ``<out>/results.json`` for ``compare``.

Each run is a fresh interpreter (``worker.py``) with ``REPRO_JOBS=1``, a
fresh ``REPRO_CACHE_DIR`` under ``--out`` and every other ``REPRO_*``
variable removed.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
BENCHMARK_PATH = ROOT / "BENCHMARK.json"
EXPECTED_PATH = HERE / "expected.json"
DEFAULT_OUT = ROOT / ".bench_build" / "perf"

#: Extra set-up-only processes per untraced run; ``setup_s`` is the median
#: over these and the measured run's own set-up.
SETUP_PROBES = 3
#: ``setup_s`` is scaled to a host whose reference kernel (worker.py,
#: ``HostReference``) takes this long, the median on the machine the
#: benchmark was defined on, so host drift cancels as it does in ``op_ref``.
REFERENCE_NOMINAL_S = 0.008
#: Seeds whose outputs ``--record-expected`` records: the committed
#: report's seed and a held-out one.
RECORD_SEEDS = (42, 1042)
#: A single run (set-up probes included) must end within this many seconds.
RUN_DEADLINE_S = 170.0


def load_benchmark() -> dict:
    return json.loads(BENCHMARK_PATH.read_text())


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    values = list(values)
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


# --------------------------------------------------------------------- #
# Machine fingerprint
# --------------------------------------------------------------------- #
def git_revision() -> str:
    """HEAD's commit id read from ``.git`` (``unknown`` outside a clone)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def fingerprint(removed: Sequence[str], model_version=None) -> dict:
    return {
        "git_revision": git_revision(),
        "model_version": model_version,
        "python": sys.version.split()[0],
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
        "removed_repro_env": list(removed),
    }


# --------------------------------------------------------------------- #
# One worker process
# --------------------------------------------------------------------- #
def child_env(scratch: Path) -> Dict[str, str]:
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env.update(
        REPRO_JOBS="1",
        REPRO_CACHE_DIR=str(scratch / "cache"),
        PYTHONPATH=str(SRC),
        PYTHONHASHSEED="0",
    )
    return env


def spawn(request: dict, out: Path, timeout: float) -> dict:
    """Run ``worker.py`` once; returns its result plus ``setup_s``."""
    (out / "tmp").mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=out / "tmp"))
    result_path = scratch / "result.json"
    request = dict(request, scratch=str(scratch), result=str(result_path))
    try:
        started = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(WORKER), json.dumps(request)],
            env=child_env(scratch),
            cwd=str(ROOT),
            stdin=subprocess.DEVNULL,
            stdout=sys.stderr,
            timeout=max(timeout, 1.0),
        )
        if proc.returncode != 0:
            raise RuntimeError(f"worker {request['mode']} exited with {proc.returncode}")
        result = json.loads(result_path.read_text())
        if "ready" in result:
            result["setup_raw_s"] = result["ready"] - started
            result["setup_s"] = (
                result["setup_raw_s"] * REFERENCE_NOMINAL_S / result["setup_ref_s"]
            )
        return result
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def removed_env() -> List[str]:
    return sorted(key for key in os.environ if key.startswith("REPRO_"))


def run_once(workload: str, seed: int, seconds: float, trace: bool, out: Path) -> dict:
    """One benchmark run: a record with metrics, counts and fingerprint."""
    benchmark = load_benchmark()
    deadline = time.monotonic() + RUN_DEADLINE_S
    request = {"workload": workload, "seed": seed, "seconds": seconds}
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            setups.append(spawn(dict(request, mode="setup"), out, deadline - time.monotonic()))
    main = spawn(
        dict(request, mode="trace" if trace else "run"), out, deadline - time.monotonic()
    )
    setups.append(main)

    if trace:
        metrics = {
            m["name"]: {"value": main["layers"][m["name"]], "unit": m["unit"]}
            for m in benchmark["per_layer"]
        }
    else:
        values = {
            "setup_s": statistics.median(setup["setup_s"] for setup in setups),
            "op_ref": statistics.median(op["ref"] for op in main["ops"]),
            "peak_rss_mb": main["peak_rss_mb"],
        }
        metrics = {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in benchmark["end_to_end"]
        }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": main["failed"] == 0,
        "attempted": main["attempted"],
        "failed": main["failed"],
        "failures": main["failures"],
        "verified": main["verified"],
        "unverified_reason": main["unverified_reason"],
        "metrics": metrics,
        "ops": main["ops"],
        "setups_raw_s": [setup["setup_raw_s"] for setup in setups],
        "fingerprint": fingerprint(removed_env(), main["model_version"]),
    }
    if trace:
        record["traced_ops"] = main["traced_ops"]
        (out / f"trace_{workload}.json").write_text(
            json.dumps(
                {
                    "workload": workload,
                    "seed": seed,
                    "fingerprint": record["fingerprint"],
                    "layers": main["layers"],
                    "spans": main["spans"],
                },
                indent=1,
            )
        )
    return record


def announce(record: dict) -> None:
    """Human-readable lines on stderr, loud about anything unverified."""
    tag = f"{record['workload']} seed={record['seed']} trace={int(record['trace'])}"
    print(f"[{tag}] {len(record['ops'])} timed ops, "
          f"{record['failed']}/{record['attempted']} outputs failed", file=sys.stderr)
    if record["failures"]:
        print(f"[{tag}] FAILED outputs: {', '.join(record['failures'])}", file=sys.stderr)
    if not record["verified"]:
        print(f"[{tag}] UNVERIFIED: {record['unverified_reason']}; checked invariants "
              "and run-to-run determinism only", file=sys.stderr)
    for name, metric in record["metrics"].items():
        print(f"[{tag}] {name} = {metric['value']:.6g} {metric['unit']}", file=sys.stderr)


# --------------------------------------------------------------------- #
# Batch mode and compare
# --------------------------------------------------------------------- #
def batch(workloads: Sequence[str], seed: int, seconds: float, repeat: int, out: Path) -> dict:
    benchmark = load_benchmark()
    results = {
        "fingerprint": fingerprint(removed_env()),
        "seed": seed,
        "seconds": seconds,
        "repeat": repeat,
        "workloads": {},
    }
    for workload in workloads:
        runs = []
        for _ in range(repeat):
            record = run_once(workload, seed, seconds, False, out)
            announce(record)
            runs.append(record)
        traced = run_once(workload, seed, seconds, True, out)
        announce(traced)
        summary = {
            m["name"]: dict(
                quartiles([run["metrics"][m["name"]]["value"] for run in runs]), unit=m["unit"]
            )
            for m in benchmark["end_to_end"]
        }
        results["fingerprint"]["model_version"] = traced["fingerprint"]["model_version"]
        results["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs + [traced]),
            "verified": all(r["verified"] for r in runs + [traced]),
            "runs": [{"metrics": r["metrics"], "correct": r["correct"]} for r in runs],
            "summary": summary,
            "layers": {name: m["value"] for name, m in traced["metrics"].items()},
        }
    return results


def print_summary(results: dict) -> None:
    print(f"{'workload':<14} {'metric':<12} {'median':>12} {'q1':>12} {'q3':>12}  unit")
    for workload, entry in results["workloads"].items():
        for name, s in entry["summary"].items():
            print(f"{workload:<14} {name:<12} {s['median']:>12.5g} {s['q1']:>12.5g} "
                  f"{s['q3']:>12.5g}  {s['unit']}")
        status = "correct" if entry["correct"] else "INCORRECT"
        if not entry["verified"]:
            status += ", UNVERIFIED"
        print(f"{workload:<14} outputs: {status}")


def verdict(a: Sequence[float], b: Sequence[float], better: str, bound: float) -> dict:
    """Compare run sets ``a`` (before) and ``b`` (after) of one metric."""
    qa, qb = quartiles(a), quartiles(b)
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (qb["median"] - qa["median"]) / qa["median"]  # > 0 is worse
    spread = (qa["q3"] - qa["q1"]) / qa["median"]
    pairs_won = sum(sign * (y - x) < 0 for x in a for y in b) / (len(a) * len(b))
    if spread > bound and pairs_won < 1.0:
        word = "unresolved"
    elif change > bound:
        word = "worse"
    elif pairs_won >= 0.9 and -change > spread:
        word = "improved"
    else:
        word = "unchanged"
    return {"a": qa, "b": qb, "change": change, "spread": spread, "verdict": word}


def compare(path_a: Path, path_b: Path) -> int:
    a = json.loads(path_a.read_text())
    b = json.loads(path_b.read_text())
    benchmark = load_benchmark()
    if a["fingerprint"]["cpu_model"] != b["fingerprint"]["cpu_model"]:
        print("warning: the two result files come from different CPU models", file=sys.stderr)
    print(f"{'workload':<14} {'metric':<12} {'A median':>11} {'B median':>11} "
          f"{'change':>8} {'A spread':>8} {'bound':>6}  verdict")
    worse = 0
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            continue
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            values = [
                [run["metrics"][name]["value"] for run in side["workloads"][workload]["runs"]]
                for side in (a, b)
            ]
            row = verdict(values[0], values[1], metric["better"], metric["bound"])
            worse += row["verdict"] == "worse"
            print(f"{workload:<14} {name:<12} {row['a']['median']:>11.5g} "
                  f"{row['b']['median']:>11.5g} {100 * row['change']:>7.2f}% "
                  f"{100 * row['spread']:>7.2f}% {100 * metric['bound']:>5.0f}%  {row['verdict']}")
    return 1 if worse else 0


# --------------------------------------------------------------------- #
# Expected outputs and the full-scale report
# --------------------------------------------------------------------- #
def record_expected(workloads: Sequence[str], out: Path) -> int:
    """Add digests for ``RECORD_SEEDS``; never change a recorded one."""
    expected = json.loads(EXPECTED_PATH.read_text()) if EXPECTED_PATH.exists() else {}
    conflicts = 0
    for workload in workloads:
        for seed in RECORD_SEEDS:
            result = spawn(
                {"workload": workload, "seed": seed, "seconds": 0, "mode": "record"},
                out,
                timeout=900,
            )
            key = str(result.get("expected_seed", seed))
            entries = expected.setdefault(str(result["model_version"]), {}).setdefault(workload, {})
            if key not in entries:
                entries[key] = result["items"]
                print(f"recorded {workload} seed {key}", file=sys.stderr)
            elif entries[key] != result["items"]:
                conflicts += 1
                print(f"CONFLICT: {workload} seed {key} differs from its recorded digests; "
                      "a model change must bump MODEL_VERSION", file=sys.stderr)
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 1 if conflicts else 0


def full_report(seed: int, write_fixture: bool, out: Path) -> int:
    result = spawn(
        {"mode": "full_report", "seed": seed, "write_fixture": write_fixture},
        out,
        timeout=1800,
    )
    print(json.dumps(result, indent=1))
    if seed == 42 and not result["identical_to_committed"]:
        print("MISMATCH: the seed-42 report differs from reports/REPRODUCTION.md",
              file=sys.stderr)
        return 1
    return 0


# --------------------------------------------------------------------- #
def parse_args(argv: Sequence[str]) -> argparse.Namespace:
    benchmark = load_benchmark()
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(prog="run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"],
                        help="length of the timed window of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="single-run mode: report per-layer metrics from a traced run")
    parser.add_argument("--repeat", type=int, help="untraced runs per workload (batch mode)")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    parser.add_argument("--profile", choices=names, metavar="WORKLOAD",
                        help="cProfile one operation and print self-time shares by package")
    parser.add_argument("--record-expected", action="store_true",
                        help=f"record output digests at seeds {RECORD_SEEDS}")
    return parser.parse_args(argv)


def main(argv: Sequence[str]) -> int:
    # subprocess.run kills its worker when an exception unwinds through it,
    # so turning SIGTERM into one stops the worker with this process.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "repro").is_dir():
        print(f"run.py: no simulator sources at {SRC / 'repro'}", file=sys.stderr)
        return 2
    argv = list(argv)
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare A.json B.json", file=sys.stderr)
            return 2
        return compare(Path(argv[1]), Path(argv[2]))
    if argv[:1] == ["full-report"]:
        parser = argparse.ArgumentParser(prog="run.py full-report")
        parser.add_argument("--seed", type=int, default=42)
        parser.add_argument("--write-fixture", action="store_true")
        parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
        args = parser.parse_args(argv[1:])
        return full_report(args.seed, args.write_fixture, args.out)

    args = parse_args(argv)
    out = args.out.resolve()
    out.mkdir(parents=True, exist_ok=True)
    names = [w["name"] for w in load_benchmark()["workloads"]]
    workloads = [args.workload] if args.workload else names
    removed = removed_env()
    print("removed from the worker environment: " + (", ".join(removed) or "(none)"),
          file=sys.stderr)

    if args.record_expected:
        return record_expected(workloads, out)
    if args.profile:
        result = spawn(
            {"workload": args.profile, "seed": args.seed, "seconds": 0, "mode": "profile"},
            out,
            timeout=900,
        )
        shares = dict(sorted(result["shares"].items(), key=lambda kv: -kv[1]))
        (out / f"profile_{args.profile}.json").write_text(json.dumps(shares, indent=1))
        for name, share in shares.items():
            print(f"{name:<28} {100 * share:6.1f}%")
        return 0
    if args.workload and args.repeat is None:
        record = run_once(args.workload, args.seed, args.seconds, bool(args.trace), out)
        announce(record)
        (out / f"run_{args.workload}_{args.seed}_{args.trace}.json").write_text(
            json.dumps(record, indent=1)
        )
        keys = ("correct", "attempted", "failed", "metrics")
        print(json.dumps({key: record[key] for key in keys}))
        return 0 if record["correct"] else 1

    results = batch(workloads, args.seed, args.seconds, args.repeat or 3, out)
    (out / "results.json").write_text(json.dumps(results, indent=1))
    print_summary(results)
    print(f"wrote {out / 'results.json'}")
    return 0 if all(entry["correct"] for entry in results["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
