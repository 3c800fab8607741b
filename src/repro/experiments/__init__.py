"""Experiment harnesses: one module per table / figure in the paper.

Each figure module declares its sweep as a
:class:`~repro.scenarios.spec.SweepSpec` (a ``*_spec`` function) and keeps
a ``run_*`` entry point that executes the spec with
:func:`~repro.scenarios.run.run_sweep` and pivots the resulting
:class:`~repro.scenarios.results.ResultSet` into the figure's table shape,
plus a ``render_*`` helper producing the text table the benchmarks print
and a ``*_report`` hook producing the paper-vs-measured
:class:`~repro.reporting.compare.FigureReport` consumed by
``python -m repro.reporting`` (see :mod:`repro.reporting`).
The benchmark suite under ``benchmarks/`` is a thin wrapper around these
functions, so the full evaluation can also be driven programmatically (see
``examples/`` and :mod:`repro.scenarios`).

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
    run_experiments,
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
    "run_experiments",
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
