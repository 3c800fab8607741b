"""Reduction trees: routing-free many-to-one networks from cores to the LLC.

A reduction tree spans one half-column of cores and terminates at the LLC
tile of that column (Figure 6a).  A node is a buffered, flow-controlled
two-input multiplexer that merges packets from its local core(s) with
packets already in the network; there is no routing (all packets flow to
the same terminal) and arbitration is static-priority, preferring network
traffic over local traffic and responses over requests (Section 4.1).
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import Dict, FrozenSet, Iterable, List, Sequence

from repro.config.system import SystemConfig
from repro.core.floorplan import express_span
from repro.sim.kernel import Simulator
from repro.noc.arbiter import round_robin, static_priority
from repro.noc.buffer import InputPort
from repro.noc.interface import NetworkInterface
from repro.noc.message import MESSAGE_CLASSES, MessageClass
from repro.noc.router import Router

#: Virtual-channel assignment for the two-VC tree ports: requests and snoops
#: never share a tree direction, so they can share VC 0 while responses get
#: their own VC for deadlock freedom.
TREE_VC_MAP = {
    MessageClass.REQUEST: 0,
    MessageClass.SNOOP: 0,
    MessageClass.RESPONSE: 1,
}


@lru_cache(maxsize=None)
def tree_vc_map(num_vcs: int) -> Dict[MessageClass, int]:
    """:data:`TREE_VC_MAP` folded onto ``num_vcs`` VCs; one shared map per count."""
    return {cls: min(TREE_VC_MAP[cls], num_vcs - 1) for cls in MESSAGE_CLASSES}


def tree_input_port(config: SystemConfig, label: str) -> InputPort:
    """A two-VC input port as used by reduction and dispersion tree nodes."""
    noc = config.noc
    return InputPort(
        num_vcs=noc.tree_vcs_per_port,
        vc_depth_flits=noc.tree_vc_depth_flits,
        name=label,
        vc_map=tree_vc_map(noc.tree_vcs_per_port),
    )


def tree_arbitration(config: SystemConfig):
    """Arbitration policy of tree nodes (static priority by default, Section 4.1)."""
    if config.noc.tree_arbitration == "round_robin":
        return round_robin
    return static_priority


def build_reduction_tree(
    sim: Simulator,
    config: SystemConfig,
    name: str,
    core_groups: Sequence[Sequence[NetworkInterface]],
    terminal: Router,
    terminal_input: InputPort,
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
    terminal / terminal_input:
        The LLC router where the tree terminates, and the input port the
        tree's last node feeds on it.
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

    arbitrate = tree_arbitration(config)
    for index, group in enumerate(core_groups):
        node = Router(
            sim,
            f"{name}.n{index}",
            pipeline_latency=noc.tree_hop_latency,
            arbitrate=arbitrate,
        )
        local_port = node.add_input_port(
            tree_input_port(config, f"{name}.n{index}.local"), is_local=True
        )
        for interface in group:
            interface.attach_router(node, local_port)
        nodes.append(node)

    # Chain the nodes toward the LLC and terminate at the LLC router.
    for node, downstream in zip(nodes, nodes[1:]):
        node.connect(
            downstream,
            tree_input_port(config, f"{downstream.name}.from_upstream"),
            "down",
            link_latency=0,
            link_length_mm=hop_length_mm,
        )
    nodes[-1].connect(
        terminal, terminal_input, "terminal", link_latency=0, link_length_mm=hop_length_mm
    )
    hops: List[Router] = nodes[1:] + [terminal]

    # Optional express link: the farthest node bypasses the chain entirely
    # and feeds the terminal-adjacent node directly (Section 7.1).
    span = express_span(noc, len(nodes))
    if span:
        express_target = nodes[-1]
        nodes[0].connect(
            express_target,
            tree_input_port(config, f"{express_target.name}.from_express"),
            "express",
            link_latency=0,
            link_length_mm=hop_length_mm * span,
        )
        hops[0] = express_target

    # Routing: every destination leaves toward the next node (or, for the
    # farthest node, over the express link when there is one).
    for node, hop in zip(nodes, hops):
        node.route_fn = partial(_known_destination_hop, destinations, hop)

    return nodes


def _known_destination_hop(destinations: FrozenSet[int], hop: Router, dst: int) -> Router:
    """Route function of a reduction-tree node: one next hop for every known node."""
    if dst not in destinations:
        raise KeyError(dst)
    return hop
