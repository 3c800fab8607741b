"""``python -m repro.reporting`` — the paper-vs-measured report, and pivots.

Resolves each requested figure's ``*_spec()`` sweep through the result
cache: on a warm cache the whole report is pure post-processing (zero new
simulations — the executor's cache-hit counters prove it and are printed
at the end); on a cold cache the missing points are simulated at the
requested scale first.

The ``pivot`` command serves one sweep's pivot table from the store and
**never simulates**: it reads each point of ``figure_spec(NAME)`` with
``ResultCache.load``, and a point missing from the store exits 3 with
the command that fills it.

Usage::

    PYTHONPATH=src python -m repro.reporting                    # all figures
    PYTHONPATH=src python -m repro.reporting --figure fig1      # one figure
    PYTHONPATH=src python -m repro.reporting --scale 0.1 \\
        --workloads "Web Search" --cores 4,8,16                 # smoke scale
    PYTHONPATH=src python -m repro.reporting --store DIR pivot fig7 \\
        --index workload --columns topology --metric throughput_ipc

The report lands in ``reports/REPRODUCTION.md`` (``--out`` to change) and
its content is byte-stable for a given cache + parameters, so regenerating
without code or cache changes is a no-op diff.
"""

from __future__ import annotations

import argparse
import json
import shlex
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.experiments.engine import ResultCache, SweepExecutor
from repro.experiments.harness import RunSettings
from repro.reporting.compare import FigureReport
from repro.reporting.figures import (
    build_report,
    figure_spec,
    report_names,
    spec_names,
)
from repro.reporting.render import render_report
from repro.scenarios import ResultSet, record_for

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
            "read and fill the result store at DIR instead of the "
            "REPRO_CACHE_DIR store; equivalent to REPRO_CACHE_DIR=DIR"
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
    sub = parser.add_subparsers(dest="command")
    pivot = sub.add_parser(
        "pivot",
        help="print one sweep's pivot table from the store (never simulates)",
    )
    pivot.add_argument("name", help=f"sweep name, one of {spec_names()}")
    pivot.add_argument("--index", required=True, help="coordinate for rows")
    pivot.add_argument("--columns", required=True, help="coordinate for columns")
    pivot.add_argument(
        "--metric", default="throughput_ipc", help="metric (default throughput_ipc)"
    )
    pivot.add_argument(
        "--where",
        action="append",
        metavar="NAME=VALUE",
        help="filter records before pivoting (repeatable)",
    )
    return parser.parse_args(argv)


def _fill_hint(root, name: str, scale: Optional[float]) -> str:
    """The command that fills sweep ``name`` into ``root`` at the query's scale.

    Reportable figures fill through the report; the on-demand sweeps
    (``scale_out``, ``colocation``) through ``run_sweep``.
    """
    store = shlex.quote(str(root))
    if name in report_names():
        # --out under the store: the default, ./reports/, may hold the committed report.
        scale_flag = f" --scale {scale}" if scale is not None else ""
        out = shlex.quote(str(Path(root) / "report"))
        return f"python -m repro.reporting --store {store}{scale_flag} --figure {name} --out {out}"
    scale_env = f" REPRO_EXPERIMENT_SCALE={scale}" if scale is not None else ""
    return (
        f"REPRO_CACHE_DIR={store}{scale_env} python -c 'from repro.scenarios "
        "import run_sweep; from repro.reporting.figures import figure_spec; "
        f"run_sweep(figure_spec(\"{name}\"))'"
    )


def _parse_selection(pairs: Optional[Sequence[str]]) -> dict:
    selection = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise ValueError(f"--where expects name=value, got {pair!r}")
        key, _, raw = pair.partition("=")
        try:
            selection[key] = json.loads(raw)
        except ValueError:
            selection[key] = raw  # bare strings are the common case
    return selection


def _json_key(value: object) -> object:
    """``value`` if JSON takes it as a key, else its ``str`` (e.g. a tuple)."""
    if isinstance(value, (str, int, float, bool, type(None))):
        return value
    return str(value)


def _pivot(args: argparse.Namespace, settings: RunSettings) -> int:
    """Print ``args.name``'s pivot from the store; exit 3 on any miss."""
    selection = _parse_selection(args.where)
    cache = ResultCache(args.store)
    sweep_points = figure_spec(args.name, settings).expand()
    loaded = [(sp, cache.load(sp.point)) for sp in sweep_points]
    missing = [sp for sp, result in loaded if result is None]
    if missing:
        print(
            f"cold store: {len(missing)} of {len(loaded)} point(s) missing (first: "
            f"{missing[0].point.describe()} = {missing[0].content_hash()}); fill it "
            f"with: {_fill_hint(cache.root, args.name, args.scale)}",
            file=sys.stderr,
        )
        return 3
    results = ResultSet([record_for(sp, result) for sp, result in loaded]).filter(**selection)
    table = results.pivot(args.index, args.columns, args.metric)
    table = {
        _json_key(row): {_json_key(column): value for column, value in cells.items()}
        for row, cells in table.items()
    }
    print(json.dumps(table, indent=2, sort_keys=True, default=str))
    return 0


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
    if args.command == "pivot":
        try:
            return _pivot(args, settings)
        except (ValueError, KeyError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except BrokenPipeError:
            # Piped into something that exited early (head, less): no traceback.
            sys.stderr.close()
            return 0
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

    cache = ResultCache(args.store) if args.store is not None else None

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
