"""Serving CLI: answer figure/pivot queries from a warm result store.

``python -m repro.store.query`` is the read side of the result store: it
**never simulates**.  Every query resolves through the store only; a
point missing from the store is a hard, explanatory error (exit code 3)
instead of a silent multi-minute simulation — exactly what a serving
fleet wants.

Commands::

    python -m repro.store.query --store DIR stats
    python -m repro.store.query --store DIR figure fig1
    python -m repro.store.query --store DIR pivot fig7 \\
        --index workload --columns topology --metric throughput_ipc

``figure`` renders the named figure's paper-vs-measured Markdown section
(the same bytes ``python -m repro.reporting`` would embed); ``pivot``
runs the named sweep and prints the pivot as JSON.  Both read through
:class:`WarmStoreExecutor`, i.e. the same ``ResultCache.load`` lookups
every sweep makes, so a served pivot equals the one ``run_sweep``
computes over the same store.  Sweep names come from
:mod:`repro.store.specs`; settings honour ``REPRO_EXPERIMENT_SCALE`` (or
``--scale``) so smoke-scale stores are queried with smoke-scale keys.
"""

from __future__ import annotations

import argparse
import json
import shlex
import sys
from typing import Iterator, Optional, Sequence, Tuple

from repro.experiments.engine import ResultCache, SweepExecutor, SweepStats
from repro.experiments.harness import RunSettings
from repro.scenarios import run_sweep
from repro.store.specs import figure_spec, spec_names


class ColdStoreError(LookupError):
    """A query needed points the store does not (yet) hold."""


class WarmStoreExecutor(SweepExecutor):
    """A :class:`SweepExecutor` that serves from the store and never simulates.

    Drop-in for the reporting layer's executor argument: cache hits stream
    out exactly like the parent's, but a miss raises :class:`ColdStoreError`
    naming the missing points instead of dispatching a simulation (the CLI
    adds the command that fills them, see :func:`_fill_hint`).
    ``total_stats`` accumulates across sweeps, so "zero simulations" is
    provable after the fact.
    """

    def __init__(self, cache: ResultCache) -> None:
        super().__init__(jobs=1, cache=cache)

    def _run_iter(self, points, stats: SweepStats) -> Iterator[Tuple[int, object]]:
        missing = []
        for index, point in enumerate(points):
            result = self.cache.load(point)
            if result is None:
                stats.cache_misses += 1
                missing.append(point)
                continue
            stats.cache_hits += 1
            yield index, result
        if missing:
            raise ColdStoreError(
                f"store is cold for {len(missing)} of {len(points)} point(s) "
                f"(first missing: {missing[0].describe()} = "
                f"{missing[0].content_hash()})"
            )


def _fill_hint(root, name: str) -> str:
    """How to fill the store at ``root`` with sweep ``name``.

    Reportable figures fill through ``python -m repro.reporting``; the
    on-demand sweeps (``scale_out``, ``colocation``) through ``run_sweep``.
    Either way, at the scale the query uses.
    """
    from repro.reporting.figures import report_names

    store = shlex.quote(str(root))
    if name in report_names():
        command = f"python -m repro.reporting --store {store} --figure {name}"
    else:
        command = (
            f"REPRO_CACHE_DIR={store} python -c 'from repro.scenarios import "
            "run_sweep; from repro.store.specs import figure_spec; "
            f"run_sweep(figure_spec(\"{name}\"))'"
        )
    return f"fill it (at the same scale) with: {command}"


def _settings(args: argparse.Namespace) -> RunSettings:
    if args.scale is not None:
        return RunSettings().scaled(args.scale)
    return RunSettings.from_env()


def _cmd_stats(cache: ResultCache, args: argparse.Namespace) -> int:
    rows = 0
    total_bytes = 0
    for path in cache.results_dir.glob("*.json"):
        try:
            total_bytes += path.stat().st_size
        except OSError:
            continue
        rows += 1
    print(
        json.dumps(
            {"store": str(cache.root), "rows": rows, "bytes": total_bytes},
            indent=2,
            sort_keys=True,
        )
    )
    return 0


def _cmd_figure(cache: ResultCache, args: argparse.Namespace) -> int:
    from repro.reporting.figures import build_report, report_names
    from repro.reporting.render import render_figure

    if args.name not in report_names():
        print(
            f"unknown figure {args.name!r}; available: {report_names()}",
            file=sys.stderr,
        )
        return 2
    executor = WarmStoreExecutor(cache)
    report = build_report(args.name, settings=_settings(args), executor=executor)
    print(render_figure(report))
    print(
        f"<!-- served from {cache.root}: {executor.total_stats.cache_hits} "
        "row(s), 0 simulations -->"
    )
    return 0


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


def _cmd_pivot(cache: ResultCache, args: argparse.Namespace) -> int:
    results = run_sweep(
        figure_spec(args.name, _settings(args)),
        executor=WarmStoreExecutor(cache),
    )
    selection = _parse_selection(args.where)
    if selection:
        results = results.filter(**selection)
    table = results.pivot(args.index, args.columns, metric=args.metric)
    print(json.dumps(table, indent=2, sort_keys=True, default=str))
    return 0


def _parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.store.query",
        description="Serve figure/pivot queries from a warm result store "
        "(never simulates).",
    )
    parser.add_argument("--store", required=True, help="result store directory")
    parser.add_argument(
        "--scale",
        type=float,
        default=None,
        help="settings scale for cache keys (default: REPRO_EXPERIMENT_SCALE)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("stats", help="result count and bytes for the store")

    figure = sub.add_parser(
        "figure", help="render one figure's paper-vs-measured section"
    )
    figure.add_argument("name", help="figure name (see python -m repro.reporting --list)")

    pivot = sub.add_parser("pivot", help="print a pivot table over a registered sweep")
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


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parse_args(argv)
    cache = ResultCache(args.store)
    commands = {"stats": _cmd_stats, "figure": _cmd_figure, "pivot": _cmd_pivot}
    try:
        return commands[args.command](cache, args)
    except ColdStoreError as exc:
        hint = _fill_hint(cache.root, args.name)
        print(f"cold store: {exc}; {hint}", file=sys.stderr)
        return 3
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output was piped into something that exited early (head, less, q);
        # that is not an error worth a traceback.
        sys.stderr.close()
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
