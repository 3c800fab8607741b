"""Two-dimensional flattened butterfly interconnect (Figure 3).

Every router is fully connected to all routers in its row and in its
column, so any packet needs at most two network hops.  Routers use a
three-stage non-speculative pipeline and link latency grows with the
physical span of the link (up to two tiles per cycle, Table 1).
"""

from __future__ import annotations

import math
from functools import partial
from typing import Dict, Tuple

from repro.config.system import SystemConfig
from repro.sim.kernel import Simulator
from repro.noc.buffer import InputPort
from repro.noc.network import Network
from repro.noc.router import PacketSink, Router
from repro.noc.topology import GridGeometry, tiled_grid_geometry

Coordinate = Tuple[int, int]


class FlattenedButterflyNetwork(Network):
    """2-D flattened butterfly with dimension-order (X then Y) routing."""

    def __init__(
        self,
        sim: Simulator,
        config: SystemConfig,
        node_coords: Dict[int, Coordinate],
        name: str = "fbfly",
    ) -> None:
        super().__init__(sim, config, name, node_coords.keys())
        self.node_coords = dict(node_coords)
        self.geometry: GridGeometry = tiled_grid_geometry(config)
        self._router_at: Dict[Coordinate, Router] = {}

        self._build_routers()
        self._build_express_links()
        self._attach_interfaces()

    # ------------------------------------------------------------------ #
    def _new_input_port(self, label: str) -> InputPort:
        return InputPort(
            num_vcs=self.noc.fbfly_vcs_per_port,
            vc_depth_flits=self.noc.fbfly_vc_depth_flits,
            name=label,
        )

    def _build_routers(self) -> None:
        for coord in self.geometry.all_coords():
            router = Router(
                self.sim,
                f"{self.name}.r{coord[0]}_{coord[1]}",
                pipeline_latency=self.noc.fbfly_router_pipeline,
                route_fn=partial(self._next_hop, coord),
            )
            self._router_at[coord] = router
            self.routers.append(router)

    def link_latency_for_span(self, span_tiles: int) -> int:
        """Cycles needed to traverse a link spanning ``span_tiles`` tiles."""
        if span_tiles <= 0:
            return 1
        return max(1, math.ceil(span_tiles / self.noc.fbfly_tiles_per_cycle))

    def _build_express_links(self) -> None:
        tile_mm = self.geometry.tile_width_mm
        for coord, router in self._router_at.items():
            col, row = coord
            peers = [(c, row) for c in range(self.geometry.cols) if c != col]
            peers += [(col, r) for r in range(self.geometry.rows) if r != row]
            for peer_coord in peers:
                peer = self._router_at[peer_coord]
                span = self.geometry.manhattan_tiles(coord, peer_coord)
                router.connect(
                    peer,
                    self._new_input_port(f"{peer.name}.in_from{col}_{row}"),
                    f"to{peer_coord[0]}_{peer_coord[1]}",
                    link_latency=self.link_latency_for_span(span),
                    link_length_mm=span * tile_mm,
                )

    def _attach_interfaces(self) -> None:
        for node_id, coord in self.node_coords.items():
            router = self._router_at[coord]
            self.attach_interface(
                node_id, router, self._new_input_port(f"{router.name}.in_local{node_id}")
            )

    def _next_hop(self, coord: Coordinate, node_id: int) -> PacketSink:
        """Route function of the router at ``coord``: destination column, then row."""
        dst_coord = self.node_coords[node_id]
        if coord == dst_coord:
            return self.interfaces[node_id]
        if dst_coord[0] != coord[0]:
            return self._router_at[(dst_coord[0], coord[1])]
        return self._router_at[(coord[0], dst_coord[1])]

    # ------------------------------------------------------------------ #
    def router_at(self, coord: Coordinate) -> Router:
        """The router at grid coordinate ``coord`` (used by tests)."""
        return self._router_at[coord]
