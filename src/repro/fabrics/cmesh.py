"""Concentrated mesh: four cores per router, a scale-out design point.

Section 2 of the paper observes that the baseline mesh's cost grows with
the *tile* count, not the core count; concentrating several cores onto one
router is the textbook way to keep router count (and average hop count)
in check as chips scale out to hundreds of cores.  This module models the
canonical concentrated mesh: ``concentration`` cores (default 4) share one
local router, routers form a near-square 2-D mesh over the concentrated
tiles, and everything else (XY routing, VC/buffer parameters, pipeline
depths) matches the baseline mesh.

The module defines the fabric's system preset, system map, network
builder and area descriptor; its row in :data:`repro.fabrics.FABRICS`
names them.

The concentration factor is carried by ``NocConfig.tree_concentration``
(the pre-existing generic concentration knob), so sweeps can put it on an
axis like any other NoC field.
"""

from __future__ import annotations

import math
from typing import Tuple

from repro.chip.system_map import TiledSystemMap
from repro.config.noc import NocConfig
from repro.config.system import SystemConfig, default_mesh_dimensions
from repro.noc.mesh import MeshNetwork
from repro.noc.topology import (
    GridGeometry,
    LinkSpec,
    RouterSpec,
    TopologyDescriptor,
)
from repro.sim.kernel import Simulator

#: Table name (and the string stored in ``NocConfig.topology``).
CMESH_NAME = "cmesh"
#: Cores sharing one router in the default preset.
DEFAULT_CONCENTRATION = 4


def _concentration(config: SystemConfig) -> int:
    """The validated concentration factor of a cmesh config."""
    concentration = config.noc.tree_concentration
    if concentration < 1:
        raise ValueError(f"{CMESH_NAME} concentration must be >= 1")
    if config.num_cores % concentration:
        raise ValueError(
            f"{CMESH_NAME} needs the core count to divide evenly over the "
            f"concentration: {config.num_cores} cores % {concentration} != 0"
        )
    return concentration


class ConcentratedSystemMap(TiledSystemMap):
    """Tiled layout where ``concentration`` consecutive nodes share a router.

    Logical node structure is identical to :class:`TiledSystemMap` (node
    ``i`` holds core ``i`` plus LLC slice ``i``); only the *placement*
    changes — the grid is the near-square factorisation of the router
    count, and ``tile_coord`` maps node ``i`` to the coordinate of router
    ``i // concentration``.  Memory controllers attach to edge routers of
    the concentrated grid.
    """

    def __init__(self, config: SystemConfig) -> None:
        self.concentration = _concentration(config)
        super().__init__(
            config,
            grid=default_mesh_dimensions(config.num_cores // self.concentration),
        )

    def tile_coord(self, node_id: int) -> Tuple[int, int]:
        self._check_core(node_id)
        router = node_id // self.concentration
        return (router % self.cols, router // self.cols)


def cmesh_grid_geometry(config: SystemConfig) -> GridGeometry:
    """Router-grid geometry: each concentrated tile holds ``c`` core tiles."""
    concentration = _concentration(config)
    cols, rows = default_mesh_dimensions(config.num_cores // concentration)
    tile_mm = config.tile_width_mm * math.sqrt(concentration)
    return GridGeometry(cols, rows, tile_mm)


def describe_cmesh(config: SystemConfig) -> TopologyDescriptor:
    """Static inventory: fewer, higher-radix routers; longer, fewer links."""
    noc = config.noc
    concentration = _concentration(config)
    geometry = cmesh_grid_geometry(config)
    cols, rows = geometry.cols, geometry.rows
    routers = [
        RouterSpec(
            count=cols * rows,
            ports=4 + concentration,  # N/S/E/W plus one local port per core
            vcs_per_port=noc.mesh_vcs_per_port,
            vc_depth_flits=noc.mesh_vc_depth_flits,
            flit_width_bits=noc.link_width_bits,
            uses_sram_buffers=False,
            label="concentrated mesh router",
        )
    ]
    horizontal = (cols - 1) * rows
    vertical = cols * (rows - 1)
    links = [
        LinkSpec(
            count=2 * (horizontal + vertical),
            length_mm=geometry.tile_width_mm,
            width_bits=noc.link_width_bits,
            label="concentrated mesh link",
        )
    ]
    return TopologyDescriptor(CMESH_NAME, routers, links)


def cmesh_system(
    num_cores: int = 64,
    link_width_bits: int = 128,
    seed: int = 42,
    concentration: int = DEFAULT_CONCENTRATION,
) -> SystemConfig:
    """Concentrated-mesh CMP preset (Table 1 chip, cmesh interconnect)."""
    noc = NocConfig(
        topology=CMESH_NAME,
        link_width_bits=link_width_bits,
        tree_concentration=concentration,
    )
    config = SystemConfig(num_cores=num_cores, noc=noc, seed=seed)
    _concentration(config)  # validate divisibility up front
    default_mesh_dimensions(num_cores // concentration)  # and the router grid
    return config


def cmesh_network(
    sim: Simulator, config: SystemConfig, system_map: ConcentratedSystemMap
) -> MeshNetwork:
    """The concentrated mesh: a baseline mesh over the map's router grid."""
    # The router grid comes from the map itself, so node coordinates
    # and network geometry cannot drift apart.
    geometry = GridGeometry(
        system_map.cols,
        system_map.rows,
        config.tile_width_mm * math.sqrt(system_map.concentration),
    )
    return MeshNetwork(
        sim,
        config,
        system_map.node_coords(),
        name=CMESH_NAME,
        geometry=geometry,
    )
