"""Figure 4: percentage of LLC accesses that trigger a snoop message.

The paper measures an average of roughly two snoop-triggering accesses per
100 LLC accesses across the six scale-out workloads, which is the empirical
basis for NOC-Out's decision to drop direct core-to-core connectivity.

Declared as a one-axis :class:`~repro.scenarios.spec.SweepSpec` (workloads
on the mesh baseline) and pivoted into the ``{workload: percent}`` shape.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.config import presets
from repro.experiments.harness import RunSettings
from repro.reporting import baselines
from repro.reporting.compare import FigureReport, compare
from repro.reporting.tables import ReportTable
from repro.scenarios import ResultSet, SweepSpec

#: Approximate per-workload values read off Figure 4 (percent), digitized
#: in :mod:`repro.reporting.baselines`.
PAPER_REFERENCE = dict(baselines.FIG4.values)


def figure4_spec(
    workload_names: Optional[Iterable[str]] = None,
    num_cores: int = 64,
    settings: Optional[RunSettings] = None,
) -> SweepSpec:
    """The Figure-4 sweep: every workload on the mesh baseline."""
    names = tuple(workload_names) if workload_names is not None else tuple(presets.WORKLOAD_NAMES)
    return SweepSpec(
        axes={"workload": names},
        settings=settings or RunSettings.from_env(),
        fixed={"topology": "mesh", "num_cores": num_cores},
    )


def snoop_rates(results: ResultSet) -> Dict[str, float]:
    """Snoop-triggering LLC access percentage per workload (plus the mean)."""
    names = results.axis_values("workload")
    rates: Dict[str, float] = {
        name: 100.0 * results.value("snoop_rate", workload=name) for name in names
    }
    rates["Mean"] = sum(rates[n] for n in names) / len(names)
    return rates


def figure4_report(results: ResultSet) -> FigureReport:
    """Paper-vs-measured report for Figure 4 (snoop rates per workload).

    The ``Mean`` baseline point is compared only when every baseline
    workload was measured, and is then computed over exactly the paper's
    six — a restricted or extended workload set would not be the paper's
    mean.
    """
    rates = snoop_rates(results)
    names = [name for name in rates if name != "Mean"]
    baseline_workloads = [k for k in baselines.FIG4.keys() if k != "Mean"]
    measured = {name: rates[name] for name in names if name in baselines.FIG4.values}
    notes = ""
    if set(baseline_workloads) <= set(names):
        measured["Mean"] = sum(rates[n] for n in baseline_workloads) / len(
            baseline_workloads
        )
    else:
        notes = (
            f"Mean not compared: only {sorted(names)} measured, the paper's "
            "mean covers all six workloads."
        )
    return FigureReport(
        comparison=compare(baselines.FIG4, measured),
        measured_table=render_figure4(rates).render(),
        notes=notes,
    )


def render_figure4(rates: Dict[str, float]) -> ReportTable:
    """Text rendition of Figure 4."""
    table = ReportTable(
        ["Workload", "% LLC accesses triggering a snoop", "Paper (approx.)"],
        title="Figure 4: snoop-triggering LLC accesses",
    )
    for name, value in rates.items():
        table.add_row(name, value, PAPER_REFERENCE.get(name, float("nan")))
    return table
