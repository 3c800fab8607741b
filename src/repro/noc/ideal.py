"""Idealized interconnect that exposes only wire delay (Figure 1).

Packets travel between tiles at the repeated-wire speed of the technology
(125 ps/mm), with zero routing, arbitration, switching or buffering delay
and no contention.  This is the "Ideal" curve of Figure 1.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.config.system import SystemConfig
from repro.sim.kernel import Simulator
from repro.noc.message import Message, Packet
from repro.noc.network import Network
from repro.noc.topology import GridGeometry, tiled_grid_geometry

Coordinate = Tuple[int, int]


class IdealNetwork(Network):
    """Contention-free, wire-delay-only interconnect."""

    def __init__(
        self,
        sim: Simulator,
        config: SystemConfig,
        node_coords: Dict[int, Coordinate],
        name: str = "ideal",
    ) -> None:
        super().__init__(sim, config, name, node_coords.keys())
        self.node_coords = dict(node_coords)
        self.geometry: GridGeometry = tiled_grid_geometry(config)

    def _inject(self, message: Message) -> None:
        packet = Packet(message, self.noc.link_width_bits, injected_cycle=self.sim.cycle)
        src_coord = self.node_coords[message.src]
        dst_coord = self.node_coords[message.dst]
        distance_mm = self.geometry.manhattan_mm(src_coord, dst_coord)
        wire_cycles = self.tech.wire_cycles(distance_mm)
        serialization = max(0, packet.num_flits - 1)
        packet.hops = self.geometry.manhattan_tiles(src_coord, dst_coord)
        self.interfaces[message.src].flits_injected.add(packet.num_flits)
        self.sim.schedule(lambda p=packet: self._on_delivery(p), wire_cycles + serialization + 1)

    def drained(self) -> bool:
        """The ideal network buffers nothing."""
        return True
