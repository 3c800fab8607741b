"""Importable helpers shared by the benchmark scripts.

These used to live in ``benchmarks/conftest.py``, but importing helpers
``from conftest`` is fragile: the bare name resolves to whichever collected
directory's ``conftest.py`` pytest put on ``sys.path`` first, and it once
shadowed ``tests/conftest.py`` badly enough to break collection of the main
suite.  A regular module with an unambiguous name has no such failure mode.

Each simulation benchmark runs a figure module's ``*_spec()`` sweep with
``repro.scenarios.run_sweep`` (timed by :func:`run_once`) and hands the
resulting ``ResultSet`` to the module's pivot (``normalise_figure1``,
``snoop_rates``, ``power_reports``, ...): repeated invocations are served
from the on-disk result cache and fresh points fan out over ``REPRO_JOBS``
worker processes; see ``docs/experiments.md``.
"""

from __future__ import annotations

from pathlib import Path


def run_once(benchmark, function, *args, **kwargs):
    """Run ``function`` exactly once under pytest-benchmark timing.

    The experiments are full chip simulations (seconds each), so repeating
    them for statistical timing would be wasteful; one round gives the
    wall-clock cost and the experiment's own output is deterministic.
    """
    return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)


#: All rendered tables are also appended here so results survive pytest's
#: output capturing; the file is truncated at the start of each session.
#: Lives under ``reports/`` (gitignored) with the other generated output —
#: never at the repo root, where it once ended up committed by accident.
RESULTS_FILE = Path(__file__).resolve().parent.parent / "reports" / "benchmark_results.txt"
_results_initialised = False


def emit(title: str, text: str) -> None:
    """Print a rendered table and append it to ``benchmark_results.txt``."""
    global _results_initialised
    block = f"\n==== {title} ====\n{text}\n"
    print(block)
    RESULTS_FILE.parent.mkdir(parents=True, exist_ok=True)
    mode = "a" if _results_initialised else "w"
    with open(RESULTS_FILE, mode) as handle:
        handle.write(block)
    _results_initialised = True
