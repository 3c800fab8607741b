"""The composed NOC-Out interconnect (Figure 5).

Cores inject into per-half-column reduction trees that terminate at the
centrally located LLC tiles; the LLC tiles are interconnected with a
one-dimensional flattened butterfly; responses and snoops leave the LLC
region through dispersion trees.  There is no direct core-to-core
connectivity — all traffic flows through the LLC region.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Tuple

from repro.config.system import SystemConfig
from repro.sim.kernel import Simulator
from repro.noc.network import Network
from repro.noc.router import PacketSink, Router
from repro.core.dispersion_tree import build_dispersion_tree
from repro.core.floorplan import CorePosition, NocOutFloorplan, tree_node_groups
from repro.core.llc_network import build_llc_network, llc_input_port
from repro.core.reduction_tree import build_reduction_tree, tree_input_port


class NocOutNetwork(Network):
    """Reduction trees + dispersion trees + LLC flattened butterfly."""

    def __init__(
        self,
        sim: Simulator,
        config: SystemConfig,
        core_nodes: Dict[int, CorePosition],
        llc_nodes: Dict[int, int],
        mc_nodes: Dict[int, int],
        name: str = "nocout",
    ) -> None:
        all_nodes = list(core_nodes) + list(llc_nodes) + list(mc_nodes)
        super().__init__(sim, config, name, all_nodes)
        self.core_nodes = dict(core_nodes)
        self.llc_nodes = dict(llc_nodes)
        self.mc_nodes = dict(mc_nodes)
        self.floorplan = NocOutFloorplan(config)

        self.llc_routers: List[Router] = build_llc_network(
            sim, config, self.floorplan, name=f"{name}.llcnet"
        )
        self.reduction_nodes: List[Router] = []
        self.dispersion_nodes: List[Router] = []
        #: (column, side) -> head node of that half-column's dispersion tree
        self._dispersion_head: Dict[Tuple[int, str], Router] = {}

        self._attach_llc_and_mc_interfaces()
        self._build_trees()
        for column, router in enumerate(self.llc_routers):
            router.route_fn = partial(self._llc_hop, column)

        self.routers.extend(self.llc_routers)
        self.routers.extend(self.reduction_nodes)
        self.routers.extend(self.dispersion_nodes)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def _attach_llc_and_mc_interfaces(self) -> None:
        for kind, nodes in (("llc", self.llc_nodes), ("mc", self.mc_nodes)):
            for node_id, column in nodes.items():
                router = self.llc_routers[column]
                self.attach_interface(
                    node_id,
                    router,
                    llc_input_port(self.system, f"{router.name}.in_{kind}{node_id}"),
                    f"eject_{kind}{node_id}",
                )

    def _cores_in_group(self, column: int, rows: Tuple[int, ...]) -> List[int]:
        """Core node ids at (column, row) for each row, in the given order."""
        by_position = self._core_by_position
        cores = []
        for row in rows:
            position = (column, row)
            if position in by_position:
                cores.append(by_position[position])
        return cores

    def _build_trees(self) -> None:
        concentration = self.noc.tree_concentration
        hop_mm = self.floorplan.tree_hop_length_mm()
        all_destinations = frozenset(self.interfaces)
        # Inverted once here: rebuilding it per tree group made chip
        # construction quadratic in the core count, which matters for the
        # 256/512-core sweeps the roadmap targets.
        self._core_by_position = {pos: node for node, pos in self.core_nodes.items()}

        for group in self.floorplan.tree_groups():
            cores = self._cores_in_group(group.column, group.core_rows)
            if not cores:
                continue
            llc_router = self.llc_routers[group.column]
            label = f"{self.name}.{group.side}{group.column}"

            # The cores each tree node serves, farthest from the LLC first.
            node_cores = tree_node_groups(cores, concentration)

            # Reduction tree: cores -> LLC router of this column.
            core_groups = [
                [self.interfaces[node_id] for node_id in members] for members in node_cores
            ]
            reduction = build_reduction_tree(
                self.sim,
                self.system,
                f"{label}.red",
                core_groups,
                llc_router,
                llc_input_port(self.system, f"{llc_router.name}.from_{group.side}_tree"),
                all_destinations,
                hop_mm,
            )
            self.reduction_nodes.extend(reduction)

            # Dispersion tree: LLC router of this column -> cores.
            bindings = [
                [(node_id, self.interfaces[node_id]) for node_id in members]
                for members in node_cores
            ]
            dispersion = build_dispersion_tree(
                self.sim, self.system, f"{label}.disp", bindings, hop_mm
            )
            self.dispersion_nodes.extend(dispersion)
            head = dispersion[0]
            llc_router.connect(
                head,
                tree_input_port(self.system, f"{head.name}.from_llc"),
                f"to_{group.side}_tree",
                link_latency=0,
                link_length_mm=hop_mm,
            )
            self._dispersion_head[(group.column, group.side)] = head

    def _llc_hop(self, column: int, node_id: int) -> PacketSink:
        """Route function of the LLC router in ``column``: eject an LLC or MC
        node it hosts, descend a dispersion tree to one of its column's
        cores, or cross the LLC butterfly to the destination's column."""
        if node_id in self.core_nodes:
            dst_column, row = self.core_nodes[node_id]
            if dst_column == column:
                return self._dispersion_head[(column, self.floorplan.side_of_row(row))]
        else:
            hosts = self.llc_nodes if node_id in self.llc_nodes else self.mc_nodes
            dst_column = hosts[node_id]
            if dst_column == column:
                return self.interfaces[node_id]
        return self.llc_routers[dst_column]
