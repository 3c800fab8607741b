"""Section 6.4: NoC power analysis.

The paper reports that the NoC consumes well under 2 W in all three
organizations (cores alone exceed 60 W), that most of the energy is spent
in the links, and that NOC-Out is the most efficient (~1.3 W) thanks to the
shorter average core-to-LLC distance, followed by the flattened butterfly
(~1.6 W) and the mesh (~1.8 W).

The sweep is the same workload x topology spec as Figure 7;
:func:`repro.power.noc_power` reads each record's ``network_activity``
switching counters off its :class:`SimulationResults`.
"""

from __future__ import annotations

from typing import Dict

from repro.config import presets
from repro.config.noc import Topology
from repro.power import NocPowerReport, noc_power
from repro.reporting import baselines
from repro.reporting.compare import FigureReport, compare
from repro.reporting.tables import ReportTable
from repro.scenarios import ResultSet

#: NoC power reported by the paper (averaged over workloads) in watts,
#: digitized in :mod:`repro.reporting.baselines`.
PAPER_REFERENCE = dict(baselines.POWER.values)

TOPOLOGIES = (Topology.MESH, Topology.FLATTENED_BUTTERFLY, Topology.NOC_OUT)


def power_reports(results: ResultSet) -> Dict[str, Dict[str, NocPowerReport]]:
    """NoC power per (workload, topology) from recorded switching activity."""
    reports: Dict[str, Dict[str, NocPowerReport]] = {}
    for record in results:
        reports.setdefault(record.coords["workload"], {})[
            record.coords["topology"]
        ] = noc_power(record.result.network_activity, record.result.cycles)
    return reports


def average_power(reports: Dict[str, Dict[str, NocPowerReport]]) -> Dict[str, float]:
    """Average NoC power per topology across workloads (the paper's summary)."""
    averages: Dict[str, float] = {}
    for topology in TOPOLOGIES:
        values = [reports[name][topology.value].total_power_w for name in reports]
        averages[topology.value] = sum(values) / len(values) if values else 0.0
    return averages


def power_report(results: ResultSet) -> FigureReport:
    """Paper-vs-measured report for the Section 6.4 NoC power summary.

    The baseline is the per-fabric power *averaged over the six workloads*,
    so the comparison only engages on the full workload set and then
    averages over exactly those six (extra workloads are shown
    in the table but excluded from the compared average); reduced runs
    still render their measured table but read as ``no-data``.
    """
    reports = power_reports(results)
    paper_workloads = list(presets.WORKLOAD_NAMES)
    full_set = set(reports) >= set(paper_workloads)
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
