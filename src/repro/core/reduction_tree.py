"""Reduction trees: routing-free many-to-one networks from cores to the LLC.

A reduction tree spans one half-column of cores and terminates at the LLC
tile of that column (Figure 6a).  A node is a buffered, flow-controlled
two-input multiplexer that merges packets from its local core(s) with
packets already in the network; there is no routing (all packets flow to
the same terminal) and arbitration is static-priority, preferring network
traffic over local traffic and responses over requests (Section 4.1).
"""

from __future__ import annotations

from functools import partial
from typing import FrozenSet, Iterable, List, Sequence

from repro.config.system import SystemConfig
from repro.sim.kernel import Simulator
from repro.noc.arbiter import RoundRobinArbiter, StaticPriorityArbiter
from repro.noc.buffer import InputPort
from repro.noc.interface import NetworkInterface
from repro.noc.message import MessageClass
from repro.noc.router import PacketSink, Router

#: Virtual-channel assignment for the two-VC tree ports: requests and snoops
#: never share a tree direction, so they can share VC 0 while responses get
#: their own VC for deadlock freedom.
TREE_VC_MAP = {
    MessageClass.REQUEST: 0,
    MessageClass.SNOOP: 0,
    MessageClass.RESPONSE: 1,
}


def tree_input_port(config: SystemConfig, label: str) -> InputPort:
    """A two-VC input port as used by reduction and dispersion tree nodes."""
    noc = config.noc
    return InputPort(
        num_vcs=noc.tree_vcs_per_port,
        vc_depth_flits=noc.tree_vc_depth_flits,
        name=label,
        vc_map={cls: min(TREE_VC_MAP[cls], noc.tree_vcs_per_port - 1) for cls in MessageClass},
    )


def tree_arbiter_factory(config: SystemConfig):
    """Arbiter used by tree nodes (static priority by default, Section 4.1)."""
    if config.noc.tree_arbitration == "round_robin":
        return RoundRobinArbiter
    return StaticPriorityArbiter


def build_reduction_tree(
    sim: Simulator,
    config: SystemConfig,
    name: str,
    core_groups: Sequence[Sequence[NetworkInterface]],
    terminal: PacketSink,
    terminal_port: int,
    destinations: Iterable[int],
    hop_length_mm: float,
) -> List[Router]:
    """Build one reduction tree.

    Parameters
    ----------
    core_groups:
        Core network interfaces grouped per tree node, ordered from the core
        farthest from the LLC to the closest.  A group holds more than one
        interface when concentration is enabled (Section 7.1).
    terminal / terminal_port:
        The LLC router (and the index of the input port on it) where the
        tree terminates.
    destinations:
        Every network node id; all of them route through the tree's single
        output since a reduction tree is a many-to-one network.
    hop_length_mm:
        Physical length of one node-to-node hop (used for link energy).
    """
    if not core_groups:
        raise ValueError("a reduction tree needs at least one core group")
    noc = config.noc
    destinations = frozenset(destinations)
    nodes: List[Router] = []

    arbiter_factory = tree_arbiter_factory(config)
    for index, group in enumerate(core_groups):
        node = Router(
            sim,
            f"{name}.n{index}",
            pipeline_latency=noc.tree_hop_latency,
            arbiter_factory=arbiter_factory,
        )
        local_port = node.add_input_port(
            tree_input_port(config, f"{name}.n{index}.local"), is_local=True
        )
        for interface in group:
            interface.attach_router(node, local_port)
        nodes.append(node)

    # Chain the nodes toward the LLC and terminate at the LLC router.
    for index, node in enumerate(nodes):
        if index + 1 < len(nodes):
            downstream = nodes[index + 1]
            in_port = downstream.add_input_port(
                tree_input_port(config, f"{downstream.name}.from_upstream")
            )
            node.add_output_port(
                "down", downstream, in_port, link_latency=0, link_length_mm=hop_length_mm
            )
        else:
            node.add_output_port(
                "terminal", terminal, terminal_port, link_latency=0, link_length_mm=hop_length_mm
            )

    # Optional express link: the farthest node bypasses the chain entirely
    # and feeds the terminal-adjacent node directly (Section 7.1).
    if noc.tree_express_links and len(nodes) >= 4:
        express_target = nodes[-1]
        in_port = express_target.add_input_port(
            tree_input_port(config, f"{express_target.name}.from_express")
        )
        express_length = hop_length_mm * (len(nodes) - 1)
        nodes[0].add_output_port(
            "express", express_target, in_port, link_latency=0, link_length_mm=express_length
        )
        express_port = len(nodes[0].output_ports) - 1
    else:
        express_port = None

    # Routing: every destination leaves through the downstream port (or the
    # express link for the farthest node when available).
    for index, node in enumerate(nodes):
        out_port = 0
        if index == 0 and express_port is not None:
            out_port = express_port
        node.route_fn = partial(_known_destination_port, destinations, out_port)

    return nodes


def _known_destination_port(destinations: FrozenSet[int], port: int, dst: int) -> int:
    """Route function of a reduction-tree node: one port for every known node."""
    if dst not in destinations:
        raise KeyError(dst)
    return port
