"""Figure 7: system performance normalised to the mesh baseline.

The paper reports that the flattened butterfly outperforms the mesh by
7-31 % (geometric mean 17 %), and that NOC-Out matches the flattened
butterfly on average: slightly behind on Data Serving (bank contention),
slightly ahead on Web Search (shorter core-to-LLC distance).

Declared as a workload x topology :class:`~repro.scenarios.spec.SweepSpec`
and pivoted into the mesh-normalised ``{workload: {topology: value}}``
shape (plus the geometric-mean row).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.analysis.metrics import geometric_mean
from repro.config import presets
from repro.config.noc import Topology
from repro.experiments.harness import RunSettings
from repro.reporting import baselines
from repro.reporting.baselines import KEY_SEPARATOR
from repro.reporting.compare import FigureReport, compare
from repro.reporting.tables import ReportTable
from repro.scenarios import ResultSet, SweepSpec

#: Approximate values read off Figure 7 (normalised to mesh = 1.0),
#: digitized in :mod:`repro.reporting.baselines`.
PAPER_REFERENCE = baselines.FIG7.nested()

TOPOLOGIES = (Topology.MESH, Topology.FLATTENED_BUTTERFLY, Topology.NOC_OUT)
#: Topology preset names, in the figure's column order.
TOPOLOGY_NAMES = tuple(topology.value for topology in TOPOLOGIES)


def figure7_spec(
    workload_names: Optional[Iterable[str]] = None,
    num_cores: int = 64,
    settings: Optional[RunSettings] = None,
) -> SweepSpec:
    """The Figure-7 sweep: every workload on the three evaluated fabrics."""
    names = tuple(workload_names) if workload_names is not None else tuple(presets.WORKLOAD_NAMES)
    return SweepSpec(
        axes={"workload": names, "topology": TOPOLOGY_NAMES},
        settings=settings or RunSettings.from_env(),
        fixed={"num_cores": num_cores},
    )


def normalise_to_mesh(results: ResultSet) -> Dict[str, Dict[str, float]]:
    """Mesh-normalised throughput pivot, with a geometric-mean summary row."""
    names = results.axis_values("workload")
    topologies = results.axis_values("topology")
    normalised: Dict[str, Dict[str, float]] = {}
    for name in names:
        mesh = results.value("throughput_ipc", workload=name, topology="mesh")
        normalised[name] = {
            topology: (
                results.value("throughput_ipc", workload=name, topology=topology) / mesh
                if mesh
                else 0.0
            )
            for topology in topologies
        }
    normalised["GMean"] = {
        topology: geometric_mean([normalised[name][topology] for name in names])
        for topology in topologies
    }
    return normalised


def figure7_report(results: ResultSet) -> FigureReport:
    """Paper-vs-measured report for Figure 7 (throughput vs. the mesh).

    Each measured ``workload / fabric`` cell is compared against its
    digitized bar.  The ``GMean`` rows are only compared when all six
    baseline workloads were measured, and are then recomputed over exactly
    those six — a run with extra workloads would otherwise score
    a different mean against the paper's.
    """
    normalised = normalise_to_mesh(results)
    baseline_workloads = {
        key.split(KEY_SEPARATOR)[0] for key in baselines.FIG7.keys()
    } - {"GMean"}
    measured_workloads = set(normalised) - {"GMean"}
    measured: Dict[str, float] = {}
    for name, row in normalised.items():
        if name == "GMean":
            continue
        for topology, value in row.items():
            measured[f"{name}{KEY_SEPARATOR}{topology}"] = value
    notes = ""
    if baseline_workloads <= measured_workloads:
        for topology in normalised["GMean"]:
            measured[f"GMean{KEY_SEPARATOR}{topology}"] = geometric_mean(
                [normalised[name][topology] for name in sorted(baseline_workloads)]
            )
    else:
        notes = (
            f"GMean not compared: only {sorted(measured_workloads)} measured, "
            "the paper's geometric mean covers all six workloads."
        )
    return FigureReport(
        comparison=compare(baselines.FIG7, measured),
        measured_table=render_figure7(normalised).render(),
        notes=notes,
    )


def render_figure7(normalised: Dict[str, Dict[str, float]]) -> ReportTable:
    """Text rendition of Figure 7."""
    table = ReportTable(
        ["Workload", "Mesh", "Flattened Butterfly", "NOC-Out"],
        title="Figure 7: system performance normalised to mesh",
    )
    for name, row in normalised.items():
        table.add_row(
            name,
            row.get(Topology.MESH.value, 1.0),
            row.get(Topology.FLATTENED_BUTTERFLY.value, 0.0),
            row.get(Topology.NOC_OUT.value, 0.0),
        )
    return table
