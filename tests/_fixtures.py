"""Importable helpers shared by the test suite.

These live in a regular module (not ``conftest.py``) so test modules can
import them by their package-qualified name::

    from tests._fixtures import small_system

Importing from ``conftest`` is banned: with several collected directories
each carrying a ``conftest.py``, the bare module name resolves to whichever
directory pytest inserted into ``sys.path`` first (historically
``benchmarks/conftest.py``, which broke collection of four test modules).
"""

from __future__ import annotations

from repro.config.noc import NocConfig, Topology
from repro.config.system import SystemConfig
from repro.config.workload import WorkloadConfig
from repro.experiments.harness import RunSettings
from repro.workloads.base import HOT_DATA_BYTES, PRIVATE_DATA_BASE

KB = 1024
MB = 1024 * KB

#: Tiny measurement windows for engine/sweep tests that only care about
#: plumbing, not statistical quality.
TINY_SETTINGS = RunSettings(
    warmup_references=300, detailed_warmup_cycles=200, measure_cycles=600
)


def small_workload() -> WorkloadConfig:
    """A fast synthetic workload for integration tests."""
    return WorkloadConfig(
        name="TestWorkload",
        instruction_footprint_bytes=256 * KB,
        hot_instruction_fraction=0.5,
        dataset_bytes=8 * MB,
        data_reuse_fraction=0.9,
        shared_fraction=0.02,
        shared_region_bytes=16 * KB,
        write_fraction=0.3,
        loads_per_instruction=0.3,
        mean_block_instructions=12.0,
        jump_probability=0.25,
        issue_width=3,
        mlp=2,
        max_cores=64,
    )


def private_region(config: WorkloadConfig, core_id: int, num_cores: int):
    """(base, size) of a synthetic stream's private dataset partition.

    Computed from the config the way ``SyntheticWorkloadStream`` lays out
    memory: every core owns an equal slice of the dataset, at least 16
    hot-data windows long, placed back to back from ``PRIVATE_DATA_BASE``.
    """
    size = max(config.dataset_bytes // num_cores, 16 * HOT_DATA_BYTES)
    return PRIVATE_DATA_BASE + core_id * size, size


def small_system(topology: Topology, num_cores: int = 16, **noc_kwargs) -> SystemConfig:
    """A 16-core chip configuration suitable for quick end-to-end tests."""
    noc = NocConfig(topology=topology, **noc_kwargs)
    return SystemConfig(num_cores=num_cores, noc=noc, seed=3)


def chiplet_hop_distance(system_map, a: int, b: int) -> int:
    """Routers a packet from ``a`` to ``b`` traverses on a chiplet fabric.

    The router-count oracle for :class:`~repro.fabrics.ChipletNetwork`
    (equal to ``packet.hops``), built only from the public
    :class:`~repro.fabrics.ChipletSystemMap` placement.  Every router on
    the path forwards the packet once (the last one into the ejection
    interface), so the count is link traversals plus one; same-node
    traffic never enters the network and scores 0.  Remote-bound traffic
    leaves a chiplet through the boundary router of group ``dst % groups``
    and enters the destination chiplet through the tile's own group.
    """
    if a == b:
        return 0
    p = system_map.params
    num_cores = system_map.num_cores

    def manhattan(u, v) -> int:
        return abs(u[0] - v[0]) + abs(u[1] - v[1])

    def local(x: int, y: int) -> int:
        return manhattan(system_map.local_coord(x), system_map.local_coord(y))

    def noi(chiplet_x: int, chiplet_y: int) -> int:
        return manhattan(
            system_map.chiplet_coord(chiplet_x), system_map.chiplet_coord(chiplet_y)
        )

    def ascend(tile: int, dst: int) -> int:
        """Routers from ``tile`` up to its chiplet's uplink toward ``dst``."""
        chiplet = system_map.chiplet_of(tile)
        return local(tile, system_map.boundary_node(chiplet, dst % p.groups)) + 1

    def descend(tile: int) -> int:
        """Routers from ``tile``'s boundary router down to ``tile``."""
        chiplet = system_map.chiplet_of(tile)
        entry = system_map.boundary_node(chiplet, system_map.boundary_group(tile))
        return local(entry, tile) + 1

    def host(mc_node: int) -> int:
        return system_map.mc_host_chiplet(mc_node - num_cores)

    if a < num_cores and b < num_cores:
        chiplet_a, chiplet_b = system_map.chiplet_of(a), system_map.chiplet_of(b)
        if chiplet_a == chiplet_b:
            return local(a, b) + 1
        return ascend(a, b) + noi(chiplet_a, chiplet_b) + 1 + descend(b)
    if a < num_cores:  # tile -> memory controller
        if p.io_die:
            return ascend(a, b) + 2  # NoI router, IO-die router
        return ascend(a, b) + noi(system_map.chiplet_of(a), host(b)) + 1
    if b < num_cores:  # memory controller -> tile
        if p.io_die:
            return 2 + descend(b)  # IO die, NoI router, then descend
        return noi(host(a), system_map.chiplet_of(b)) + 1 + descend(b)
    # MC -> MC: one IO-die hop, or across the NoI between host routers.
    if p.io_die:
        return 1
    return noi(host(a), host(b)) + 1
