"""Preset configurations reproducing Table 1 and the six CloudSuite workloads.

The workload parameters are calibrated so that the synthetic generators land
in the regimes the paper characterises (Section 2.1, Figure 4, Section 6):

* all workloads have multi-MB instruction footprints and vast datasets;
* Data Serving has the lowest ILP/MLP and is the most sensitive to LLC
  access latency (largest mesh -> flattened-butterfly gain in Figure 7);
* Web Frontend and Web Search only scale to 16 cores;
* the average fraction of LLC accesses that trigger a snoop is about 2 %
  (Figure 4), with per-workload values between roughly 0.5 % and 4.5 %.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from dataclasses import replace

from repro.config.noc import NocConfig, Topology
from repro.config.system import SystemConfig
from repro.config.workload import WorkloadConfig

MB = 1024 * 1024
GB = 1024 * MB

#: The two workloads used in Figure 1 (performance vs. core count).
FIGURE1_WORKLOADS: List[str] = ["Data Serving", "MapReduce-W"]


def data_serving() -> WorkloadConfig:
    """Cassandra-style key-value serving: lowest ILP/MLP, latency bound."""
    return WorkloadConfig(
        name="Data Serving",
        instruction_footprint_bytes=5 * MB,
        hot_instruction_fraction=0.22,
        dataset_bytes=2 * GB,
        data_reuse_fraction=0.97,
        shared_fraction=0.004,
        shared_region_bytes=32 * 1024,
        write_fraction=0.28,
        loads_per_instruction=0.34,
        mean_block_instructions=12.0,
        jump_probability=0.30,
        issue_width=2,
        mlp=1,
        max_cores=64,
    )


def mapreduce_c() -> WorkloadConfig:
    """MapReduce text classification: batch, modest locality."""
    return WorkloadConfig(
        name="MapReduce-C",
        instruction_footprint_bytes=3 * MB,
        hot_instruction_fraction=0.80,
        dataset_bytes=1 * GB,
        data_reuse_fraction=0.94,
        shared_fraction=0.010,
        shared_region_bytes=32 * 1024,
        write_fraction=0.26,
        loads_per_instruction=0.30,
        mean_block_instructions=15.0,
        jump_probability=0.22,
        issue_width=3,
        mlp=2,
        max_cores=64,
    )


def mapreduce_w() -> WorkloadConfig:
    """MapReduce word count: batch, slightly better instruction locality."""
    return WorkloadConfig(
        name="MapReduce-W",
        instruction_footprint_bytes=3 * MB,
        hot_instruction_fraction=0.82,
        dataset_bytes=1 * GB,
        data_reuse_fraction=0.95,
        shared_fraction=0.008,
        shared_region_bytes=32 * 1024,
        write_fraction=0.24,
        loads_per_instruction=0.28,
        mean_block_instructions=15.0,
        jump_probability=0.20,
        issue_width=3,
        mlp=2,
        max_cores=64,
    )


def sat_solver() -> WorkloadConfig:
    """Cloud9 SAT solver: batch, pointer chasing over a large working set."""
    return WorkloadConfig(
        name="SAT Solver",
        instruction_footprint_bytes=2 * MB,
        hot_instruction_fraction=0.80,
        dataset_bytes=4 * GB,
        data_reuse_fraction=0.90,
        shared_fraction=0.014,
        shared_region_bytes=48 * 1024,
        write_fraction=0.22,
        loads_per_instruction=0.36,
        mean_block_instructions=13.0,
        jump_probability=0.24,
        issue_width=3,
        mlp=2,
        max_cores=64,
    )


def web_frontend() -> WorkloadConfig:
    """SPECweb2009 e-banking front end: 16-core scalability limit."""
    return WorkloadConfig(
        name="Web Frontend",
        instruction_footprint_bytes=6 * MB,
        hot_instruction_fraction=0.50,
        dataset_bytes=1 * GB,
        data_reuse_fraction=0.95,
        shared_fraction=0.022,
        shared_region_bytes=32 * 1024,
        write_fraction=0.30,
        loads_per_instruction=0.32,
        mean_block_instructions=13.0,
        jump_probability=0.28,
        issue_width=2,
        mlp=2,
        max_cores=16,
    )


def web_search() -> WorkloadConfig:
    """Nutch/Lucene index serving: 16-core scalability limit."""
    return WorkloadConfig(
        name="Web Search",
        instruction_footprint_bytes=4 * MB,
        hot_instruction_fraction=0.80,
        dataset_bytes=2 * GB,
        data_reuse_fraction=0.96,
        shared_fraction=0.010,
        shared_region_bytes=32 * 1024,
        write_fraction=0.20,
        loads_per_instruction=0.30,
        mean_block_instructions=14.0,
        jump_probability=0.22,
        issue_width=3,
        mlp=2,
        max_cores=16,
    )


#: Workload name -> factory.
WORKLOADS: Dict[str, Callable[[], WorkloadConfig]] = {
    "Data Serving": data_serving,
    "MapReduce-C": mapreduce_c,
    "MapReduce-W": mapreduce_w,
    "SAT Solver": sat_solver,
    "Web Frontend": web_frontend,
    "Web Search": web_search,
}

#: Names of the six evaluated workloads, in the order used by the figures.
WORKLOAD_NAMES: List[str] = list(WORKLOADS)


def workload(name: str) -> WorkloadConfig:
    """Build the :class:`WorkloadConfig` named ``name`` (a fresh instance).

    Unknown names raise :class:`KeyError` listing the workloads in
    :data:`WORKLOADS`.
    """
    try:
        factory = WORKLOADS[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; available: {sorted(WORKLOADS)}"
        ) from None
    return factory()


def workload_names() -> List[str]:
    """Every workload name, in table order."""
    return list(WORKLOADS)


# --------------------------------------------------------------------------- #
# Chip configurations (Table 1)
#
# These are plain factories; the rows of ``repro.fabrics.FABRICS`` name
# them, so ``build_system("mesh", ...)`` and ``presets.mesh_system(...)``
# stay one implementation.
# --------------------------------------------------------------------------- #
def baseline_system(
    topology: Topology = Topology.MESH,
    num_cores: int = 64,
    link_width_bits: int = 128,
    seed: int = 42,
) -> SystemConfig:
    """The 64-core CMP of Table 1 with the requested NoC organization."""
    noc = NocConfig(topology=topology, link_width_bits=link_width_bits)
    return SystemConfig(num_cores=num_cores, noc=noc, seed=seed)


def mesh_system(num_cores: int = 64, **kwargs) -> SystemConfig:
    """Tiled mesh baseline (Figure 2)."""
    return baseline_system(Topology.MESH, num_cores=num_cores, **kwargs)


def flattened_butterfly_system(num_cores: int = 64, **kwargs) -> SystemConfig:
    """Tiled chip with a two-dimensional flattened butterfly (Figure 3)."""
    return baseline_system(Topology.FLATTENED_BUTTERFLY, num_cores=num_cores, **kwargs)


def nocout_system(num_cores: int = 64, **kwargs) -> SystemConfig:
    """The proposed NOC-Out organization (Figure 5).

    Up to 128 cores the LLC row keeps the paper's 8 tiles (Table 1 — and
    the cache keys of every published configuration).  Beyond that the row
    widens to 16 tiles so the per-column core count (tree depth) keeps
    scaling sublinearly on 256/512-core chips.
    """
    # Imported here: repro.config sits below the core layer it validates against.
    from repro.core.floorplan import NocOutFloorplan

    config = baseline_system(Topology.NOC_OUT, num_cores=num_cores, **kwargs)
    if num_cores > 128:
        config = config.with_noc(replace(config.noc, llc_tiles=16))
    NocOutFloorplan(config)  # validate the floorplan up front
    return config


def ideal_system(num_cores: int = 64, **kwargs) -> SystemConfig:
    """Idealized interconnect exposing only wire delay (Figure 1)."""
    return baseline_system(Topology.IDEAL, num_cores=num_cores, **kwargs)


def table1_summary() -> Dict[str, str]:
    """Human-readable rendition of Table 1 (evaluation parameters)."""
    config = baseline_system()
    tech = config.technology
    cache = config.caches
    noc = config.noc
    return {
        "Technology": f"{tech.node_nm}nm, {tech.voltage_v}V, {tech.frequency_ghz:g}GHz",
        "CMP features": (
            f"{config.num_cores} cores, "
            f"{cache.llc_total_bytes // MB}MB NUCA LLC, "
            f"{cache.dram_channels} DDR3-1667 memory channels"
        ),
        "Core": (
            f"ARM Cortex-A15-like: {config.core.issue_width}-way out-of-order, "
            f"{config.core.rob_entries}-entry ROB, {config.core.lsq_entries}-entry LSQ, "
            f"{config.core.area_mm2}mm2, ~{config.core.power_w}W"
        ),
        "Cache per MB": (
            f"{tech.cache_area_mm2_per_mb}mm2, "
            f"{int(tech.cache_power_w_per_mb * 1000)}mW"
        ),
        "Mesh": (
            f"Router: 5 ports, {noc.mesh_vcs_per_port} VCs/port, "
            f"{noc.mesh_vc_depth_flits} flits/VC, "
            f"{noc.mesh_router_pipeline}-stage speculative pipeline. "
            f"Link: {noc.mesh_link_latency} cycle"
        ),
        "Flattened Butterfly": (
            f"Router: 15 ports, {noc.fbfly_vcs_per_port} VCs/port, variable flits/VC, "
            f"{noc.fbfly_router_pipeline} stage pipeline. "
            f"Link: up to {noc.fbfly_tiles_per_cycle:g} tiles per cycle"
        ),
        "NOC-Out": (
            f"Reduction/Dispersion networks: 2 ports/router, "
            f"{noc.tree_vcs_per_port} VCs/port, {noc.tree_hop_latency} cycle/hop (inc. link). "
            f"LLC network: flattened butterfly over {noc.llc_tiles} tiles, "
            f"{noc.llc_banks_per_tile} banks/tile"
        ),
    }
