"""Tiled mesh interconnect (the paper's baseline, Figure 2).

Each grid coordinate has one 5-port router (N/S/E/W plus local); a hop
costs a two-stage router pipeline plus a single-cycle link, i.e. three
cycles at zero load, exactly as in Table 1.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Optional, Tuple

from repro.config.system import SystemConfig
from repro.sim.kernel import Simulator
from repro.noc.buffer import InputPort
from repro.noc.network import Network
from repro.noc.router import PacketSink, Router
from repro.noc.topology import GridGeometry, tiled_grid_geometry

Coordinate = Tuple[int, int]

DIRECTIONS = {
    "E": (1, 0),
    "W": (-1, 0),
    "S": (0, 1),
    "N": (0, -1),
}


def mesh_input_port(config: SystemConfig, label: str) -> InputPort:
    """An input port as used by every mesh router (tile, cmesh and NoI)."""
    noc = config.noc
    return InputPort(
        num_vcs=noc.mesh_vcs_per_port,
        vc_depth_flits=noc.mesh_vc_depth_flits,
        name=label,
    )


def join_mesh(
    config: SystemConfig,
    grid: Dict[Coordinate, Router],
    link_latency: int,
    link_length_mm: float,
) -> None:
    """Link every router of ``grid`` to its N/S/E/W neighbours in ``grid``.

    Routers are visited in dict order and directions in
    :data:`DIRECTIONS` order; that order is every router's port order.
    """
    for coord, router in grid.items():
        for direction in DIRECTIONS:
            neighbor = grid.get(step(coord, direction))
            if neighbor is None:
                continue
            router.connect(
                neighbor,
                mesh_input_port(config, f"{neighbor.name}.in_{opposite(direction)}"),
                direction,
                link_latency=link_latency,
                link_length_mm=link_length_mm,
            )


class MeshNetwork(Network):
    """2-D mesh with XY dimension-order routing.

    One router per grid coordinate, one local port per node.  A fabric on
    the same grid (the flattened butterfly) overrides only its port
    factory, router pipeline, links and route.
    """

    def __init__(
        self,
        sim: Simulator,
        config: SystemConfig,
        node_coords: Dict[int, Coordinate],
        name: str = "mesh",
        geometry: Optional[GridGeometry] = None,
    ) -> None:
        super().__init__(sim, config, name, node_coords.keys())
        self.node_coords = dict(node_coords)
        # Concentrated variants pass their own (smaller, coarser) router
        # grid; the plain mesh derives one router per core tile.
        self.geometry: GridGeometry = geometry or tiled_grid_geometry(config)
        self._router_at: Dict[Coordinate, Router] = {}
        for coord in self.geometry.all_coords():
            router = Router(
                sim,
                f"{name}.r{coord[0]}_{coord[1]}",
                pipeline_latency=self._router_pipeline(),
                route_fn=partial(self._next_hop, coord),
            )
            self._router_at[coord] = router
            self.routers.append(router)

        self._build_links()
        for node_id, coord in self.node_coords.items():
            router = self._router_at[coord]
            self.attach_interface(
                node_id, router, self._input_port(f"{router.name}.in_local{node_id}")
            )

    # ------------------------------------------------------------------ #
    def _input_port(self, label: str) -> InputPort:
        return mesh_input_port(self.system, label)

    def _router_pipeline(self) -> int:
        return self.noc.mesh_router_pipeline

    def _build_links(self) -> None:
        join_mesh(
            self.system,
            self._router_at,
            self.noc.mesh_link_latency,
            self.geometry.tile_width_mm,
        )

    def _next_hop(self, coord: Coordinate, node_id: int) -> PacketSink:
        """Route function of the router at ``coord``: XY toward ``node_id``."""
        dst_coord = self.node_coords[node_id]
        if coord == dst_coord:
            return self.interfaces[node_id]
        return self._router_at[step(coord, xy_direction(coord, dst_coord))]

    # ------------------------------------------------------------------ #
    def router_at(self, coord: Coordinate) -> Router:
        """The router at grid coordinate ``coord`` (used by tests)."""
        return self._router_at[coord]


def step(coord: Coordinate, direction: str) -> Coordinate:
    """The coordinate one hop from ``coord`` in ``direction``."""
    dx, dy = DIRECTIONS[direction]
    return (coord[0] + dx, coord[1] + dy)


def opposite(direction: str) -> str:
    return {"E": "W", "W": "E", "N": "S", "S": "N"}[direction]


def xy_direction(coord: Coordinate, target: Coordinate) -> str:
    """XY dimension order: the direction that corrects the column first, then the row."""
    if target[0] > coord[0]:
        return "E"
    if target[0] < coord[0]:
        return "W"
    if target[1] > coord[1]:
        return "S"
    return "N"
