"""``python -m repro.reporting`` — generate the paper-vs-measured report.

Resolves each requested figure's ``*_spec()`` sweep through the result
cache: on a warm cache the whole report is pure post-processing (zero new
simulations — the executor's cache-hit counters prove it and are printed
at the end); on a cold cache the missing points are simulated at the
requested scale first.

Usage::

    PYTHONPATH=src python -m repro.reporting                    # all figures
    PYTHONPATH=src python -m repro.reporting --figure fig1      # one figure
    PYTHONPATH=src python -m repro.reporting --scale 0.1 \\
        --workloads "Web Search" --cores 4,8,16                 # smoke scale

The report lands in ``reports/REPRODUCTION.md`` (``--out`` to change) and
its content is byte-stable for a given cache + parameters, so regenerating
without code or cache changes is a no-op diff.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.experiments.engine import SweepExecutor
from repro.experiments.harness import RunSettings
from repro.reporting.compare import FigureReport
from repro.reporting.figures import build_report, report_names
from repro.reporting.render import render_report

#: Default output directory (relative to the working directory).
DEFAULT_OUT_DIR = "reports"
#: Report file name inside the output directory.
REPORT_FILENAME = "REPRODUCTION.md"


#: Old name of :class:`SweepExecutor` (which sums every sweep into
#: ``total_stats``), kept only because the frozen benchmark harness
#: ``benchmarks/perf/worker.py`` imports it.  New code uses ``SweepExecutor``.
CountingExecutor = SweepExecutor


def generate(
    figures: Optional[Sequence[str]] = None,
    out_dir: str = DEFAULT_OUT_DIR,
    settings: Optional[RunSettings] = None,
    workload_names: Optional[Sequence[str]] = None,
    core_counts: Optional[Sequence[int]] = None,
    executor: Optional[SweepExecutor] = None,
) -> Dict[str, object]:
    """Build the reports and write ``REPRODUCTION.md``.

    Every figure's sweep runs through ``executor`` (default: a
    :class:`SweepExecutor` on ``REPRO_JOBS`` and the ``REPRO_CACHE_DIR``
    store).  Returns ``{"path", "text", "reports", "stats"}`` — the written
    path, the report text, the per-figure :class:`FigureReport`\\ s, and
    the executor's accumulated :class:`~repro.experiments.engine.SweepStats`.
    """
    names = list(figures) if figures else report_names()
    unknown = [name for name in names if name not in report_names()]
    if unknown:
        raise KeyError(f"unknown figure(s) {unknown}; available: {report_names()}")
    settings = settings or RunSettings.from_env()
    executor = executor if executor is not None else SweepExecutor()

    reports: List[FigureReport] = [
        build_report(
            name,
            settings=settings,
            executor=executor,
            workload_names=list(workload_names) if workload_names else None,
            core_counts=tuple(core_counts) if core_counts else None,
        )
        for name in names
    ]

    parameters: Dict[str, object] = {
        "figures": ", ".join(names),
        "run windows": (
            f"warmup_references={settings.warmup_references}, "
            f"detailed_warmup_cycles={settings.detailed_warmup_cycles}, "
            f"measure_cycles={settings.measure_cycles}, seed={settings.seed}"
        ),
        "workloads": ", ".join(workload_names) if workload_names else "paper default",
    }
    if core_counts:
        parameters["core counts (fig1)"] = ", ".join(str(c) for c in core_counts)

    text = render_report(reports, parameters)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / REPORT_FILENAME
    path.write_text(text)
    return {
        "path": path,
        "text": text,
        "reports": reports,
        "stats": executor.total_stats,
    }


def _parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.reporting",
        description="Generate the paper-vs-measured reproduction report.",
    )
    parser.add_argument(
        "--figure",
        action="append",
        dest="figures",
        metavar="NAME",
        help=f"figure to report (repeatable; default: all of {report_names()})",
    )
    parser.add_argument(
        "--out", default=DEFAULT_OUT_DIR, help="output directory (default: reports/)"
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=None,
        help=(
            "experiment scale for any points not in the cache (overrides "
            "REPRO_EXPERIMENT_SCALE; default: honour the environment)"
        ),
    )
    parser.add_argument(
        "--jobs", type=int, default=None, help="worker processes (default: REPRO_JOBS)"
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help=(
            "serve results from the result store at DIR (repro.store) "
            "instead of the REPRO_CACHE_DIR store; equivalent to "
            "REPRO_CACHE_DIR=DIR"
        ),
    )
    parser.add_argument(
        "--workloads",
        default=None,
        help="comma-separated workload subset (default: the paper's six)",
    )
    parser.add_argument(
        "--cores",
        default=None,
        help="comma-separated Figure-1 core counts (default: 1,2,...,64)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list reportable figures and exit"
    )
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _parse_args(argv)
    if args.list:
        for name in report_names():
            print(name)
        return 0
    try:
        settings = (
            RunSettings().scaled(args.scale)
            if args.scale is not None
            else RunSettings.from_env()
        )
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    if args.jobs is not None and args.jobs < 1:
        print("--jobs must be at least 1", file=sys.stderr)
        return 2
    try:
        core_counts = (
            [int(c) for c in args.cores.split(",") if c.strip()] if args.cores else None
        )
        if core_counts and min(core_counts) < 1:
            raise ValueError
    except ValueError:
        print(
            f"--cores must be comma-separated integers >= 1, got {args.cores!r}",
            file=sys.stderr,
        )
        return 2

    # Validate user-supplied names up front so typos exit cleanly with the
    # available options, while genuine programming errors deeper in the
    # figure hooks still surface as tracebacks.
    unknown_figures = [
        name for name in (args.figures or ()) if name not in report_names()
    ]
    if unknown_figures:
        print(
            f"unknown figure(s) {unknown_figures}; available: {report_names()}",
            file=sys.stderr,
        )
        return 2
    workloads = (
        [w.strip() for w in args.workloads.split(",") if w.strip()]
        if args.workloads
        else None
    )
    if workloads:
        from repro.scenarios import workload_names

        unknown_workloads = [w for w in workloads if w not in workload_names()]
        if unknown_workloads:
            print(
                f"unknown workload(s) {unknown_workloads}; "
                f"available: {workload_names()}",
                file=sys.stderr,
            )
            return 2

    cache = None
    if args.store is not None:
        from repro.experiments.engine import ResultCache

        cache = ResultCache(args.store)

    outcome = generate(
        figures=args.figures,
        out_dir=args.out,
        settings=settings,
        executor=SweepExecutor(jobs=args.jobs, cache=cache),
        workload_names=workloads,
        core_counts=core_counts,
    )
    stats = outcome["stats"]
    print(f"wrote {outcome['path']}")
    print(
        f"cache hits: {stats.cache_hits}, misses: {stats.cache_misses}, "
        f"simulations run: {stats.simulations_run}"
    )
    return 0
