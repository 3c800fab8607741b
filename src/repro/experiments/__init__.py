"""Experiment harnesses: one module per table / figure in the paper.

Each figure module declares its sweep as a
:class:`~repro.scenarios.spec.SweepSpec` (a ``*_spec`` function) and
reports on it with a ``*_report(results)`` hook, which turns the sweep's
:class:`~repro.scenarios.results.ResultSet` into the paper-vs-measured
:class:`~repro.reporting.compare.FigureReport` consumed by
``python -m repro.reporting`` (see :mod:`repro.reporting`).  Small pivot
functions of a ``ResultSet`` (``normalise_figure1``, ``snoop_rates``,
``normalise_to_mesh``, ``power_reports``, ...) give the figure's table
shape, and ``render_*`` helpers the text tables the benchmarks print.
:func:`repro.reporting.figures.build_report` is the one place that runs
a figure's spec; the benchmarks under ``benchmarks/`` and the scripts in
``examples/`` run specs with :func:`~repro.scenarios.run.run_sweep`.

All simulation sweeps execute through :mod:`repro.experiments.engine`: a
parallel, cache-aware executor that deduplicates identical points, serves
repeats from an on-disk result cache, and fans the remainder out over
worker processes (``REPRO_JOBS``).  See ``docs/experiments.md``.
"""

from repro.experiments.engine import (
    MODEL_VERSION,
    ExperimentPoint,
    ResultCache,
    SweepExecutor,
)
from repro.experiments.harness import RunSettings
from repro.experiments import (
    ablations,
    engine,
    fig1_scaling,
    fig4_snoops,
    fig7_performance,
    fig8_area,
    fig9_area_normalized,
    power_analysis,
    scale_out,
    table1,
)

__all__ = [
    "MODEL_VERSION",
    "ExperimentPoint",
    "ResultCache",
    "RunSettings",
    "SweepExecutor",
    "engine",
    "ablations",
    "fig1_scaling",
    "fig4_snoops",
    "fig7_performance",
    "fig8_area",
    "fig9_area_normalized",
    "power_analysis",
    "scale_out",
    "table1",
]
