"""Figure 1: per-core performance vs. core count, ideal vs. mesh interconnect.

An 8 MB LLC is shared by all cores; growing the core count grows the die
and therefore the average core-to-LLC distance.  With an ideal (wire-only)
interconnect per-core performance degrades slowly; with a mesh the extra
router traversals cost ~22 % at 64 cores.

The sweep is declared as a :class:`~repro.scenarios.spec.SweepSpec`
(workload x fabric x core count); :func:`normalise_figure1` pivots its
records into the figure's ``{workload: {series: {cores: value}}}`` shape.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence

from repro.config import presets
from repro.experiments.harness import RunSettings
from repro.reporting import baselines
from repro.reporting.compare import FigureReport, compare
from repro.reporting.tables import ReportTable
from repro.scenarios import ResultSet, SweepSpec

#: Core counts swept in Figure 1.
CORE_COUNTS = (1, 2, 4, 8, 16, 32, 64)
#: The two workloads shown in Figure 1.
WORKLOADS = tuple(presets.FIGURE1_WORKLOADS)
#: The two fabric series of the figure (topology preset names).
SERIES = ("ideal", "mesh")
#: Paper reference: at 64 cores the mesh loses ~22 % vs. the ideal fabric
#: (digitized in :mod:`repro.reporting.baselines`).
PAPER_MESH_PENALTY_AT_64 = (
    baselines.FIG1.value("mesh penalty vs ideal @ 64 cores") / 100.0
)


def figure1_spec(
    workload_names: Optional[Iterable[str]] = None,
    core_counts: Sequence[int] = CORE_COUNTS,
    settings: Optional[RunSettings] = None,
) -> SweepSpec:
    """The Figure-1 sweep as declarative data."""
    names = tuple(workload_names) if workload_names is not None else WORKLOADS
    return SweepSpec(
        axes={
            "workload": names,
            "topology": SERIES,
            "num_cores": tuple(core_counts),
        },
        settings=settings or RunSettings.from_env(),
    )


def normalise_figure1(results: ResultSet) -> Dict[str, Dict[str, Dict[int, float]]]:
    """Pivot sweep records into the figure's normalised nested-dict shape."""
    curves: Dict[str, Dict[str, Dict[int, float]]] = {}
    core_counts = results.axis_values("num_cores")
    for name in results.axis_values("workload"):
        curves[name] = {}
        for label in results.axis_values("topology"):
            series = {
                count: results.value(
                    "per_core_ipc", workload=name, topology=label, num_cores=count
                )
                for count in core_counts
            }
            baseline = series[core_counts[0]]
            curves[name][label] = {
                count: (value / baseline if baseline else 0.0)
                for count, value in series.items()
            }
    return curves


def mesh_penalty(curves: Dict[str, Dict[str, Dict[int, float]]], core_count: int = 64) -> float:
    """Average performance loss of the mesh vs. ideal at ``core_count`` cores."""
    penalties = []
    for name, data in curves.items():
        ideal = data["ideal"].get(core_count)
        mesh = data["mesh"].get(core_count)
        if ideal and mesh:
            penalties.append(1.0 - mesh / ideal)
    return sum(penalties) / len(penalties) if penalties else 0.0


def figure1_report(results: ResultSet) -> FigureReport:
    """Paper-vs-measured report for Figure 1 over its sweep's records.

    Compares the measured mesh penalty at 64 cores against the paper's
    ~22 %.  The comparison only engages when 64 cores was swept **and**
    both figure workloads were measured (and then averages over exactly
    those two, like the sibling reports' mean gating); a reduced run still
    renders its curves but leaves the baseline point unmeasured rather
    than wrong.
    """
    names = results.axis_values("workload")
    core_counts = tuple(results.axis_values("num_cores"))
    curves = normalise_figure1(results)
    measured = {}
    notes = ""
    full_set = set(names) >= set(WORKLOADS)
    if 64 in core_counts and full_set:
        figure_curves = {name: curves[name] for name in WORKLOADS}
        measured["mesh penalty vs ideal @ 64 cores"] = 100.0 * mesh_penalty(
            figure_curves, 64
        )
    elif not full_set:
        notes = (
            "Penalty not compared: reduced workload set, the paper's figure "
            f"covers {list(WORKLOADS)}."
        )
    if core_counts != CORE_COUNTS or tuple(names) != WORKLOADS:
        notes = (notes + " " if notes else "") + (
            f"Reduced sweep: core counts {sorted(core_counts)}, workloads {names}."
        )
    return FigureReport(
        comparison=compare(baselines.FIG1, measured),
        measured_table=render_figure1(curves).render(),
        notes=notes,
    )


def render_figure1(curves: Dict[str, Dict[str, Dict[int, float]]]) -> ReportTable:
    """Text rendition of Figure 1."""
    core_counts = sorted(next(iter(curves.values()))["ideal"])
    table = ReportTable(
        ["Series"] + [str(c) for c in core_counts],
        title="Figure 1: per-core performance normalised to 1 core",
    )
    for name, data in curves.items():
        for label in SERIES:
            series = data[label]
            table.add_row(
                f"{name} ({label.capitalize()})",
                *[series[count] for count in core_counts],
            )
    return table
