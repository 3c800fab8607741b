"""Section 6.4: NoC power analysis."""

from repro.config.noc import Topology
from repro.experiments.fig7_performance import figure7_spec
from repro.experiments.power_analysis import average_power, power_reports, render_power
from repro.scenarios import run_sweep

from bench_common import emit, run_once


def test_noc_power_analysis(benchmark, run_settings):
    reports = power_reports(
        run_once(benchmark, run_sweep, figure7_spec(settings=run_settings.scaled(0.7)))
    )
    emit("Section 6.4: NoC power", render_power(reports).render())

    averages = average_power(reports)
    fbfly = averages[Topology.FLATTENED_BUTTERFLY.value]
    nocout = averages[Topology.NOC_OUT.value]
    # Paper: the NoC stays well under 2 W in every organization (cores alone
    # exceed 60 W), the links dominate the energy, and NOC-Out needs less
    # power than the richly connected flattened butterfly.  (Our mesh lands
    # below the paper's 1.8 W because its lower throughput injects fewer
    # flits per second - see EXPERIMENTS.md.)
    assert all(power < 4.0 for power in averages.values())
    assert nocout < fbfly
    # Links dominate the energy in every organization.
    for per_topology in reports.values():
        for report in per_topology.values():
            assert report.link_energy_j >= 0.4 * report.total_energy_j
