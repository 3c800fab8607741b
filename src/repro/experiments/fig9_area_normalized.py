"""Figure 9: performance under a fixed NoC area budget.

The mesh and flattened-butterfly link widths are reduced until their total
NoC area matches NOC-Out's (~2.5 mm2).  The mesh degrades only slightly
(serialisation stays small relative to header latency) while the flattened
butterfly, whose links shrink by roughly 7x, loses heavily to serialisation.
The paper reports NOC-Out ahead of the area-normalised mesh by ~19 % and
ahead of the area-normalised flattened butterfly by ~65 %.

Because each fabric carries its own link width, the spec uses a *zipped*
``fabric`` axis whose values set ``topology`` and ``link_width_bits``
together (see :mod:`repro.scenarios.spec`).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from repro.analysis.metrics import geometric_mean
from repro.config import presets
from repro.config.noc import Topology
from repro.experiments.harness import RunSettings
from repro.experiments.fig7_performance import normalise_to_mesh
from repro.power import link_width_for_area_budget, noc_area
from repro.reporting import baselines
from repro.reporting.compare import FigureReport, compare
from repro.reporting.tables import ReportTable
from repro.scenarios import ResultSet, SweepSpec

#: Paper reference (geometric mean, normalised to the area-budgeted mesh),
#: digitized in :mod:`repro.reporting.baselines`.
PAPER_REFERENCE = dict(baselines.FIG9.values)

TOPOLOGIES = (Topology.MESH, Topology.FLATTENED_BUTTERFLY, Topology.NOC_OUT)


def nocout_area_budget(num_cores: int = 64) -> float:
    """The area budget: NOC-Out's total NoC area at ``num_cores`` cores, in mm2."""
    return noc_area(presets.nocout_system(num_cores=num_cores)).total_mm2


def area_budget_link_widths(num_cores: int = 64) -> Tuple[float, Dict[Topology, int]]:
    """NOC-Out's area budget and the link widths that fit the other NoCs in it.

    Raises :class:`ValueError` when even the narrowest links leave a
    fabric over the budget.
    """
    budget = nocout_area_budget(num_cores)
    widths = {Topology.NOC_OUT: 128}
    for topology in (Topology.MESH, Topology.FLATTENED_BUTTERFLY):
        config = presets.baseline_system(topology, num_cores=num_cores)
        widths[topology] = link_width_for_area_budget(config, budget)
    return budget, widths


def figure9_spec(
    workload_names: Optional[Iterable[str]] = None,
    num_cores: int = 64,
    settings: Optional[RunSettings] = None,
    link_widths: Optional[Dict[Topology, int]] = None,
) -> SweepSpec:
    """The Figure-9 sweep: workloads x area-budgeted fabrics.

    ``link_widths`` defaults to the widths that fit each fabric into
    NOC-Out's area budget (:func:`area_budget_link_widths`).
    """
    names = tuple(workload_names) if workload_names is not None else tuple(presets.WORKLOAD_NAMES)
    if link_widths is None:
        _, link_widths = area_budget_link_widths(num_cores=num_cores)
    fabrics = tuple(
        {"topology": topology.value, "link_width_bits": link_widths[topology]}
        for topology in TOPOLOGIES
    )
    return SweepSpec(
        axes={"workload": names, "fabric": fabrics},
        settings=settings or RunSettings.from_env(),
        fixed={"num_cores": num_cores},
    )


def figure9_outcome(results: ResultSet) -> Dict[str, object]:
    """The Figure-9 numbers of a sweep's records.

    Returns a dictionary with NOC-Out's area budget at the swept core
    count, each fabric's swept link width and per-workload performance
    normalised to the area-budgeted mesh.
    """
    (num_cores,) = results.axis_values("num_cores")
    return {
        "area_budget_mm2": nocout_area_budget(num_cores),
        "link_widths": {
            record.coords["topology"]: record.coords["link_width_bits"]
            for record in results
        },
        "normalised_performance": normalise_to_mesh(results),
    }


def figure9_report(results: ResultSet) -> FigureReport:
    """Paper-vs-measured report for Figure 9 (area-budgeted fabrics).

    The baseline digitizes the geometric-mean bars, so the comparison only
    engages when all six paper workloads were measured (and is then
    computed over exactly those six, ignoring extra workloads);
    a reduced run still renders its measured table but reads as
    ``no-data``.
    """
    outcome = figure9_outcome(results)
    normalised = outcome["normalised_performance"]
    paper_workloads = sorted(presets.WORKLOAD_NAMES)
    full_set = set(results.axis_values("workload")) >= set(paper_workloads)
    measured = (
        {
            topology: geometric_mean(
                [normalised[name][topology] for name in paper_workloads]
            )
            for topology in normalised["GMean"]
        }
        if full_set
        else {}
    )
    notes = "" if full_set else (
        "GMean not compared: reduced workload set, the paper's geometric "
        "mean covers all six workloads."
    )
    return FigureReport(
        comparison=compare(baselines.FIG9, measured),
        measured_table=render_figure9(outcome).render(),
        notes=notes,
    )


def render_figure9(outcome: Dict[str, object]) -> ReportTable:
    """Text rendition of Figure 9."""
    widths = outcome["link_widths"]
    table = ReportTable(
        ["Workload", "Mesh", "Flattened Butterfly", "NOC-Out"],
        title=(
            "Figure 9: performance under a "
            f"{outcome['area_budget_mm2']:.2f} mm2 NoC budget "
            f"(link widths: mesh={widths['mesh']}b, "
            f"fbfly={widths['flattened_butterfly']}b, noc_out={widths['noc_out']}b)"
        ),
    )
    for name, row in outcome["normalised_performance"].items():
        table.add_row(
            name,
            row[Topology.MESH.value],
            row[Topology.FLATTENED_BUTTERFLY.value],
            row[Topology.NOC_OUT.value],
        )
    return table
