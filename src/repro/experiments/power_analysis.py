"""Section 6.4: NoC power analysis.

The paper reports that the NoC consumes well under 2 W in all three
organizations (cores alone exceed 60 W), that most of the energy is spent
in the links, and that NOC-Out is the most efficient (~1.3 W) thanks to the
shorter average core-to-LLC distance, followed by the flattened butterfly
(~1.6 W) and the mesh (~1.8 W).

The sweep is the same workload x topology spec as Figure 7; the energy
model reads each record's full :class:`SimulationResults` (the
``network_activity`` switching counters), so the sweep runs with
``keep_results=True``.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.config import presets
from repro.config.noc import Topology
from repro.experiments.fig7_performance import TOPOLOGY_NAMES, figure7_spec
from repro.experiments.harness import RunSettings
from repro.power.energy_model import NocEnergyModel, NocPowerReport
from repro.reporting import baselines
from repro.reporting.compare import FigureReport, compare
from repro.reporting.tables import ReportTable
from repro.scenarios import run_sweep

#: NoC power reported by the paper (averaged over workloads) in watts,
#: digitized in :mod:`repro.reporting.baselines`.
PAPER_REFERENCE = dict(baselines.POWER.values)

TOPOLOGIES = (Topology.MESH, Topology.FLATTENED_BUTTERFLY, Topology.NOC_OUT)


def run_power_analysis(
    workload_names: Optional[Iterable[str]] = None,
    num_cores: int = 64,
    settings: Optional[RunSettings] = None,
    energy_model: Optional[NocEnergyModel] = None,
    jobs: Optional[int] = None,
    executor=None,
) -> Dict[str, Dict[str, NocPowerReport]]:
    """NoC power per (workload, topology) from recorded switching activity."""
    names = list(workload_names) if workload_names is not None else list(presets.WORKLOAD_NAMES)
    model = energy_model or NocEnergyModel()
    spec = figure7_spec(names, num_cores, settings)
    results = run_sweep(spec, jobs=jobs, executor=executor)
    reports: Dict[str, Dict[str, NocPowerReport]] = {}
    for name in names:
        reports[name] = {}
        for topology in TOPOLOGY_NAMES:
            record = results.filter(workload=name, topology=topology)[0]
            reports[name][topology] = model.report(
                record.result.network_activity, record.result.cycles
            )
    return reports


def average_power(reports: Dict[str, Dict[str, NocPowerReport]]) -> Dict[str, float]:
    """Average NoC power per topology across workloads (the paper's summary)."""
    averages: Dict[str, float] = {}
    for topology in TOPOLOGIES:
        values = [reports[name][topology.value].total_power_w for name in reports]
        averages[topology.value] = sum(values) / len(values) if values else 0.0
    return averages


def power_report(
    workload_names: Optional[Iterable[str]] = None,
    num_cores: int = 64,
    settings: Optional[RunSettings] = None,
    jobs: Optional[int] = None,
    executor=None,
) -> FigureReport:
    """Paper-vs-measured report for the Section 6.4 NoC power summary.

    The baseline is the per-fabric power *averaged over the six workloads*,
    so the comparison only engages on the full workload set and then
    averages over exactly those six (extra workloads are shown
    in the table but excluded from the compared average); reduced runs
    still render their measured table but read as ``no-data``.
    """
    # Materialise once: the argument may be a single-pass iterable.
    names = list(workload_names) if workload_names is not None else None
    reports = run_power_analysis(
        names, num_cores, settings, jobs=jobs, executor=executor
    )
    paper_workloads = list(presets.WORKLOAD_NAMES)
    full_set = names is None or set(names) >= set(paper_workloads)
    measured = (
        average_power({name: reports[name] for name in paper_workloads})
        if full_set
        else {}
    )
    notes = "" if full_set else (
        "Average not compared: reduced workload set, the paper averages "
        "over all six workloads."
    )
    return FigureReport(
        comparison=compare(baselines.POWER, measured),
        measured_table=render_power(reports).render(),
        notes=notes,
    )


def render_power(reports: Dict[str, Dict[str, NocPowerReport]]) -> ReportTable:
    """Text rendition of the Section 6.4 power summary."""
    table = ReportTable(
        ["Workload", "Mesh (W)", "Flattened Butterfly (W)", "NOC-Out (W)"],
        title="Section 6.4: NoC power",
    )
    for name, row in reports.items():
        table.add_row(
            name,
            row[Topology.MESH.value].total_power_w,
            row[Topology.FLATTENED_BUTTERFLY.value].total_power_w,
            row[Topology.NOC_OUT.value].total_power_w,
        )
    averages = average_power(reports)
    table.add_row(
        "Average",
        averages[Topology.MESH.value],
        averages[Topology.FLATTENED_BUTTERFLY.value],
        averages[Topology.NOC_OUT.value],
    )
    return table
