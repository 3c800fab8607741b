"""Paper-vs-measured reporting: baselines, deltas, Markdown reports.

This package is the repo's answer to "how faithful is this reproduction?":

* :mod:`~repro.reporting.baselines` — the paper's published per-figure
  numbers digitized as data (one :class:`Baseline` table per reproduced
  figure/ablation, with units and digitization tolerances);
* :mod:`~repro.reporting.compare` — :func:`compare` pairs a baseline with
  measured values into a :class:`FigureComparison` (per-point
  absolute/relative error, within-tolerance verdicts, pass/fail summary);
* :mod:`~repro.reporting.render` — dependency-free Markdown rendering with
  ASCII bar charts, byte-stable for a given result cache;
* :mod:`~repro.reporting.figures` — name table over the per-figure
  ``*_report()`` hooks in :mod:`repro.experiments`;
* :mod:`~repro.reporting.tables` — the plain-text :class:`ReportTable`
  (canonical home);
* :mod:`~repro.reporting.cli` — ``python -m repro.reporting``, which
  resolves every figure's sweep through the result cache (zero simulations
  when warm) and writes ``reports/REPRODUCTION.md``.

Typical usage::

    from repro.reporting import build_report

    report = build_report("fig7")
    print(report.comparison.status, report.comparison.max_rel_error)

or, end to end::

    PYTHONPATH=src python -m repro.reporting --figure fig7

Import-order invariant: the figure modules under :mod:`repro.experiments`
import this package at module level (for baselines and
:class:`FigureReport`), so nothing here may import ``repro.experiments``
eagerly — the table in :mod:`~repro.reporting.figures` and the CLI
import the hooks lazily.
"""

from repro.reporting.baselines import BASELINES, Baseline, baseline, baseline_names
from repro.reporting.compare import (
    FigureComparison,
    FigureReport,
    PointDelta,
    compare,
)
from repro.reporting.figures import build_report, report_names
from repro.reporting.render import (
    ascii_bar_chart,
    delta_table,
    render_figure,
    render_report,
    status_table,
)
from repro.reporting.tables import ReportTable, format_float, markdown_table

__all__ = [
    "BASELINES",
    "Baseline",
    "FigureComparison",
    "FigureReport",
    "PointDelta",
    "ReportTable",
    "ascii_bar_chart",
    "baseline",
    "baseline_names",
    "build_report",
    "compare",
    "delta_table",
    "format_float",
    "markdown_table",
    "render_figure",
    "render_report",
    "report_names",
    "status_table",
]
