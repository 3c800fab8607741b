#!/usr/bin/env python3
"""Area and energy report for the three NoC organizations.

Regenerates Figure 8 (area breakdown) from the static topology descriptors
and Section 6.4 (NoC power) from the switching activity of a short Data
Serving run on each organization.  The power sweep is one ``SweepSpec``
over the topology axis; ``noc_power`` reads each record's full
``SimulationResults`` (``record.result.network_activity``).

Run with::

    python examples/area_energy_report.py
"""

from repro import SweepSpec, noc_area, noc_power, run_sweep
from repro.reporting.tables import ReportTable
from repro.experiments import RunSettings
from repro.scenarios import build_system

TOPOLOGY_NAMES = ("mesh", "flattened_butterfly", "noc_out")


def area_report() -> ReportTable:
    table = ReportTable(
        ["Organization", "Links", "Buffers", "Crossbars", "Total (mm2)"],
        title="Figure 8: NoC area breakdown",
    )
    for name in TOPOLOGY_NAMES:
        breakdown = noc_area(build_system(name))
        table.add_row(
            name,
            breakdown.links_mm2,
            breakdown.buffers_mm2,
            breakdown.crossbars_mm2,
            breakdown.total_mm2,
        )
    return table


def power_report() -> ReportTable:
    table = ReportTable(
        ["Organization", "NoC power (W)", "Link share"],
        title="Section 6.4: NoC power on Data Serving",
    )
    spec = SweepSpec(
        axes={"topology": TOPOLOGY_NAMES},
        settings=RunSettings(
            warmup_references=2000, detailed_warmup_cycles=800, measure_cycles=4000
        ),
        fixed={"workload": "Data Serving"},
    )
    # One engine batch: cached across invocations, parallel across topologies.
    results = run_sweep(spec)
    for name in TOPOLOGY_NAMES:
        record = results.filter(topology=name)[0]
        report = noc_power(record.result.network_activity, record.result.cycles)
        link_share = report.link_energy_j / report.total_energy_j if report.total_energy_j else 0.0
        table.add_row(name, report.total_power_w, f"{100 * link_share:.0f}%")
    return table


def main() -> None:
    print(area_report().render())
    print()
    print(power_report().render())


if __name__ == "__main__":
    main()
