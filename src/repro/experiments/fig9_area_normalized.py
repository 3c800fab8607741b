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
from repro.power.area_model import NocAreaModel, link_width_for_area_budget
from repro.reporting import baselines
from repro.reporting.compare import FigureReport, compare
from repro.reporting.tables import ReportTable
from repro.scenarios import SweepSpec, run_sweep

#: Paper reference (geometric mean, normalised to the area-budgeted mesh),
#: digitized in :mod:`repro.reporting.baselines`.
PAPER_REFERENCE = dict(baselines.FIG9.values)

TOPOLOGIES = (Topology.MESH, Topology.FLATTENED_BUTTERFLY, Topology.NOC_OUT)


def area_budget_link_widths(
    num_cores: int = 64, area_model: Optional[NocAreaModel] = None
) -> Tuple[float, Dict[Topology, int]]:
    """NOC-Out's area budget and the link widths that fit the other NoCs in it."""
    model = area_model or NocAreaModel()
    nocout_config = presets.nocout_system(num_cores=num_cores)
    budget = model.total_area_mm2(nocout_config)
    widths = {Topology.NOC_OUT: 128}
    for topology in (Topology.MESH, Topology.FLATTENED_BUTTERFLY):
        config = presets.baseline_system(topology, num_cores=num_cores)
        widths[topology] = link_width_for_area_budget(config, budget, area_model=model)
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


def run_figure9(
    workload_names: Optional[Iterable[str]] = None,
    num_cores: int = 64,
    settings: Optional[RunSettings] = None,
    jobs: Optional[int] = None,
    executor=None,
) -> Dict[str, object]:
    """Run the area-normalised comparison.

    Returns a dictionary with the area budget, the chosen link widths and
    per-workload performance normalised to the area-budgeted mesh.
    """
    budget, widths = area_budget_link_widths(num_cores=num_cores)
    spec = figure9_spec(workload_names, num_cores, settings, link_widths=widths)
    results = run_sweep(spec, jobs=jobs, executor=executor, keep_results=False)
    return {
        "area_budget_mm2": budget,
        "link_widths": {topology.value: width for topology, width in widths.items()},
        "normalised_performance": normalise_to_mesh(results),
    }


def figure9_report(
    workload_names: Optional[Iterable[str]] = None,
    num_cores: int = 64,
    settings: Optional[RunSettings] = None,
    jobs: Optional[int] = None,
    executor=None,
) -> FigureReport:
    """Paper-vs-measured report for Figure 9 (area-budgeted fabrics).

    The baseline digitizes the geometric-mean bars, so the comparison only
    engages when all six paper workloads were measured (and is then
    computed over exactly those six, ignoring extra workloads);
    a reduced run still renders its measured table but reads as
    ``no-data``.
    """
    # Materialise once: the argument may be a single-pass iterable.
    names = tuple(workload_names) if workload_names is not None else None
    outcome = run_figure9(names, num_cores, settings, jobs=jobs, executor=executor)
    normalised = outcome["normalised_performance"]
    paper_workloads = sorted(presets.WORKLOAD_NAMES)
    full_set = names is None or set(names) >= set(paper_workloads)
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
