"""Golden digests of seeded statistics trees.

Each scenario below runs a fixed, seeded simulation and reduces everything
it measured to one sha256: the kernel's ``events_processed``, the
network's ``stats.to_dict()``, every traffic generator's
``stats.to_dict()`` and, for full chips, ``SimulationResults.to_dict()``.
The digests in ``tests/data/stats_digests.json`` pin those trees bit for
bit, so any refactor of the kernel, the NoC or the chip that changes a
single counter, histogram bucket or event fails here.  The plain
``events_processed`` count is stored beside each digest so a mismatch says
at a glance whether event order changed.

A deliberate model change bumps ``MODEL_VERSION`` (see
``docs/experiments.md``) and then rewrites the golden file with::

    PYTHONPATH=src python -m tests.test_stats_digests
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Callable, Dict

import pytest

from repro.chip.chip import Chip
from repro.config.noc import NocConfig, Topology
from repro.config.system import SystemConfig
from repro.experiments.engine import MODEL_VERSION
from repro.fabrics import ChipletNetwork, ChipletSystemMap, chiplet_system, cmesh_system
from repro.noc.mesh import MeshNetwork
from repro.scenarios import build_system, fabric_for
from repro.sim.kernel import Simulator
from repro.tenancy import MatrixContext, build_placement, make_arrival, make_matrix
from repro.workloads.traffic import OpenLoopTrafficGenerator, UniformRandomTrafficGenerator

from tests._fixtures import small_system, small_workload

GOLDEN = Path(__file__).parent / "data" / "stats_digests.json"

#: Built-in fabrics, each simulated as one 64-core chip.
CHIP_FABRICS = (
    "mesh",
    "flattened_butterfly",
    "noc_out",
    "ideal",
    "cmesh",
    "chiplet",
)


def digest(tree: dict) -> str:
    blob = json.dumps(tree, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _traffic_tree(sim, network, generator) -> dict:
    return {
        "events_processed": sim.events_processed,
        "network": network.stats.to_dict(),
        "generator": generator.stats.to_dict(),
    }


def _chip_tree(chip: Chip) -> dict:
    results = chip.run_experiment(
        warmup_references=300, detailed_warmup_cycles=200, measure_cycles=600
    )
    return {
        "events_processed": chip.sim.events_processed,
        "network": chip.network.stats.to_dict(),
        "generators": {
            name: generator.stats.to_dict()
            for name, generator in chip.tenant_traffic.items()
        },
        "results": results.to_dict(),
    }


def congested_mesh() -> dict:
    """Heavy uniform traffic over 64-bit links on a bare 8x8 mesh."""
    sim = Simulator(seed=3)
    noc = NocConfig(topology=Topology.MESH, link_width_bits=64)
    config = SystemConfig(num_cores=64, noc=noc, seed=3)
    coords = {i: (i % 8, i // 8) for i in range(64)}
    network = MeshNetwork(sim, config, coords)
    generator = UniformRandomTrafficGenerator(sim, network, list(coords), 0.25, seed=5)
    generator.start()
    sim.run(6_000)
    return _traffic_tree(sim, network, generator)


def cmesh_network() -> dict:
    sim = Simulator(seed=3)
    config = cmesh_system(num_cores=64, link_width_bits=64)
    fabric = fabric_for(config)
    network = fabric.build_network(sim, config, fabric.build_system_map(config))
    generator = UniformRandomTrafficGenerator(sim, network, list(range(64)), 0.2, seed=5)
    generator.start()
    sim.run(2_000)
    return _traffic_tree(sim, network, generator)


def chiplet_uniform_1024() -> dict:
    sim = Simulator(seed=3)
    config = chiplet_system(num_cores=1024)
    network = ChipletNetwork(sim, config, ChipletSystemMap(config))
    generator = UniformRandomTrafficGenerator(
        sim, network, list(range(1024)), 0.005, seed=7
    )
    generator.start()
    sim.run(1500)
    return _traffic_tree(sim, network, generator)


def tenanted_split_half() -> dict:
    wmap = build_placement(
        "split_half", 16, ["Data Serving", "MapReduce-C"], arrival="bursty", rate=0.08
    )
    config = small_system(Topology.MESH, num_cores=16).with_workload_map(wmap)
    return _chip_tree(Chip(config))


#: Open-loop arrival processes and destination matrices, pinned pairwise.
#: With one tenant spanning all 16 cores, ``partitioned`` picks the same
#: destinations as ``uniform``, so those two digests coincide.
OPEN_LOOP_ARRIVALS = ("poisson", "bursty", "diurnal")
OPEN_LOOP_MATRICES = ("uniform", "hotspot", "partitioned")


def _open_loop(arrival: str, matrix: str) -> Callable[[], dict]:
    """Open-loop tenancy traffic on a bare 4x4 mesh."""

    def run() -> dict:
        sim = Simulator(seed=3)
        config = small_system(Topology.MESH)
        coords = {i: (i % 4, i // 4) for i in range(16)}
        network = MeshNetwork(sim, config, coords)
        generator = OpenLoopTrafficGenerator(
            sim,
            network,
            list(coords),
            arrival=make_arrival(arrival, 0.2),
            pick_destination=make_matrix(matrix, MatrixContext(tuple(range(16)))),
            seed=11,
        )
        generator.start()
        sim.run(2500)
        return _traffic_tree(sim, network, generator)

    return run


def _fabric_chip(name: str) -> Callable[[], dict]:
    def run() -> dict:
        config = build_system(name, num_cores=64, seed=3).with_workload(small_workload())
        return _chip_tree(Chip(config))

    return run


SCENARIOS: Dict[str, Callable[[], dict]] = {
    "congested_mesh_8x8": congested_mesh,
    "cmesh_network_64": cmesh_network,
    "chiplet_uniform_1024": chiplet_uniform_1024,
    "tenanted_split_half_16": tenanted_split_half,
    **{f"chip_64_{name}": _fabric_chip(name) for name in CHIP_FABRICS},
    **{
        f"open_loop_{arrival}_{matrix}_16": _open_loop(arrival, matrix)
        for arrival in OPEN_LOOP_ARRIVALS
        for matrix in OPEN_LOOP_MATRICES
    },
}


def entry_for(tree: dict) -> dict:
    return {"events_processed": tree["events_processed"], "sha256": digest(tree)}


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_file_matches_model_version():
    assert _golden()["model_version"] == MODEL_VERSION, (
        "MODEL_VERSION changed: regenerate the digests with "
        "`PYTHONPATH=src python -m tests.test_stats_digests`"
    )


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_stats_tree_matches_golden_digest(name):
    assert entry_for(SCENARIOS[name]()) == _golden()["scenarios"][name]


if __name__ == "__main__":
    scenarios = {name: entry_for(run()) for name, run in sorted(SCENARIOS.items())}
    payload = {"model_version": MODEL_VERSION, "scenarios": scenarios}
    GOLDEN.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(scenarios)} digests to {GOLDEN}")
