#!/usr/bin/env python3
"""Compare the mesh, flattened butterfly and NOC-Out on one workload.

This is a miniature version of Figure 7: it runs the same workload on the
three evaluated chip organizations, normalises throughput to the mesh and
also reports the NoC area of each design (Figure 8) so the
performance/area trade-off the paper argues for is visible in one table.

The study is one ``SweepSpec`` over the topology axis, executed with
``run_sweep``: the three runs execute in parallel on a multi-core machine
and are served from the on-disk result cache on a re-run (see
docs/experiments.md).

Run with::

    python examples/topology_comparison.py [workload-name]
"""

import sys

from repro import SweepSpec, noc_area, run_sweep
from repro.reporting.tables import ReportTable
from repro.experiments import RunSettings
from repro.scenarios import build_system, workload

TOPOLOGY_NAMES = ("mesh", "flattened_butterfly", "noc_out")
SETTINGS = RunSettings(
    warmup_references=2500, detailed_warmup_cycles=1000, measure_cycles=5000
)


def main() -> None:
    workload_name = sys.argv[1] if len(sys.argv) > 1 else "Data Serving"
    spec = SweepSpec(
        axes={"topology": TOPOLOGY_NAMES},
        settings=SETTINGS,
        fixed={"workload": workload_name},
    )
    results = run_sweep(spec)

    mesh_ipc = results.value("throughput_ipc", topology="mesh")
    table = ReportTable(
        ["Organization", "IPC", "vs. mesh", "NoC latency", "NoC area (mm2)"],
        title=f"Topology comparison on {workload_name} (64-core CMP)",
    )
    for name in TOPOLOGY_NAMES:
        record = results.filter(topology=name)[0]
        config = build_system(name).with_workload(workload(workload_name))
        table.add_row(
            name,
            record.metric("throughput_ipc"),
            record.metric("throughput_ipc") / mesh_ipc if mesh_ipc else 0.0,
            record.metric("network_mean_latency"),
            noc_area(config).total_mm2,
        )
    print(table.render())
    print()
    print(
        "The paper's claim: NOC-Out matches the flattened butterfly's performance "
        "at roughly the area cost of the much slower mesh."
    )


if __name__ == "__main__":
    main()
