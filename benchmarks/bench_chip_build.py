"""Chip + network construction time at 64-2048 cores.

Large grids shift the cost centre from simulation cycles to
*construction*: per-node interfaces, per-router ports and links all scale
with the grid.  Routing tables do not: each router resolves a destination's
output port on the first lookup, so a build fills no table.  This benchmark
tracks that build path for the four scale-out fabrics — up to the
1024/2048-core chiplet design points — so a superlinear regression (an
eager per-destination table fill, or a per-group position scan creeping
back into tree construction) shows up as a number, not an anecdote.

No simulation runs here: each chip is built and closed.  A build is timed
the way the experiment engine builds a point's chip (:func:`frozen_chip`:
automatic collection paused, graph frozen until close), so the table and
the linear-scaling tripwire measure the construction a sweep pays.

A second, untimed pass builds each fabric's 2048-core network alone under
``tracemalloc`` and prints the memory it holds per router; it only prints.
"""

from __future__ import annotations

import time
import tracemalloc

from repro.experiments.engine import frozen_chip
from repro.reporting.tables import ReportTable
from repro.scenarios import build_system, fabric_for, workload
from repro.sim.kernel import Simulator

from bench_common import emit

#: Grid sizes tracked (the paper's 64 plus the scale-out sizes).
CORE_COUNTS = (64, 128, 256, 512, 1024, 2048)
#: Fabrics whose construction differs structurally.
FABRICS = ("mesh", "cmesh", "noc_out", "chiplet")


def _build_all(fabric: str, core_counts=CORE_COUNTS):
    """Build one chip per core count; returns ``{core count: seconds}``."""
    wall = {}
    base_workload = workload("MapReduce-W")
    for num_cores in core_counts:
        config = build_system(fabric, num_cores=num_cores).with_workload(base_workload)
        start = time.perf_counter()
        with frozen_chip(config):
            wall[num_cores] = time.perf_counter() - start
    return wall


def test_chip_build_scaling(benchmark):
    results = benchmark.pedantic(
        lambda: {fabric: _build_all(fabric) for fabric in FABRICS},
        rounds=1,
        iterations=1,
    )

    table = ReportTable(
        ["Fabric"] + [f"{n} cores (s)" for n in CORE_COUNTS],
        title="Chip + network construction time",
    )
    for fabric, wall in results.items():
        table.add_row(fabric, *[wall[n] for n in CORE_COUNTS])
    emit("Chip construction time at 64-2048 cores", table.render())

    largest = CORE_COUNTS[-1]
    for fabric, wall in results.items():
        # Construction must stay linear in the grid: 32x the cores may cost
        # at most 2x that in time (17-26x measured on every fabric; eager
        # O(routers x nodes) routing tables made it 100-240x on mesh and
        # chiplet).  The floor on the 64-core time guards noisy runners.
        ratio = wall[largest] / max(wall[64], 1e-3)
        assert ratio < 2 * (largest // 64), (
            f"{fabric}: {largest}-core build is {ratio:.0f}x the 64-core build"
        )


def _traced_network(fabric: str, num_cores: int):
    """``(routers, traced bytes)`` of one network built under tracemalloc."""
    config = build_system(fabric, num_cores=num_cores).with_workload(workload("MapReduce-W"))
    row = fabric_for(config)
    system_map = row.build_system_map(config)
    sim = Simulator()
    tracemalloc.start()
    try:
        network = row.build_network(sim, config, system_map)
        traced, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    routers = len(network.routers)
    sim.close()
    return routers, traced


def test_network_memory_per_router():
    largest = CORE_COUNTS[-1]
    table = ReportTable(
        ["Fabric", "Routers", "Traced (MiB)", "Per router (KiB)"],
        title=f"Network memory at {largest} cores (tracemalloc, untimed)",
    )
    for fabric in FABRICS:
        routers, traced = _traced_network(fabric, largest)
        table.add_row(fabric, routers, traced / 2**20, traced / routers / 2**10)
    emit(f"Network memory per router at {largest} cores", table.render())
