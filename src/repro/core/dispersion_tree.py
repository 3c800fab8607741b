"""Dispersion trees: one-to-many networks from an LLC bank out to the cores.

A dispersion tree is the logical opposite of a reduction tree (Figure 6b):
a single source (the LLC tile) and multiple destinations (the cores of one
half-column).  Each node is a buffered, flow-controlled demultiplexer that
either ejects a packet to its local core or forwards it farther up the
tree.  Responses are statically prioritised over snoop requests.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Sequence, Tuple

from repro.config.system import SystemConfig
from repro.core.floorplan import express_span
from repro.sim.kernel import Simulator
from repro.noc.interface import NetworkInterface
from repro.noc.router import PacketSink, Router
from repro.core.reduction_tree import tree_arbitration, tree_input_port

#: (core node id, core network interface) pairs.
CoreBinding = Tuple[int, NetworkInterface]


def build_dispersion_tree(
    sim: Simulator,
    config: SystemConfig,
    name: str,
    core_groups: Sequence[Sequence[CoreBinding]],
    hop_length_mm: float,
) -> List[Router]:
    """Build one dispersion tree.

    ``core_groups`` is ordered from the core farthest from the LLC to the
    closest, mirroring :func:`repro.core.reduction_tree.build_reduction_tree`.
    Returns the tree's nodes from the LLC outward: ``nodes[0]`` is the head,
    the node adjacent to the LLC tile, which the LLC router connects to.
    """
    if not core_groups:
        raise ValueError("a dispersion tree needs at least one core group")
    noc = config.noc

    # Build nodes from the LLC outward: the head serves the closest group.
    ordered_groups = list(core_groups)[::-1]
    nodes: List[Router] = []
    #: core node id -> (index of the node that ejects it, its interface)
    home: Dict[int, Tuple[int, NetworkInterface]] = {}

    arbitrate = tree_arbitration(config)
    for index, group in enumerate(ordered_groups):
        node = Router(
            sim,
            f"{name}.n{index}",
            pipeline_latency=noc.tree_hop_latency,
            arbitrate=arbitrate,
        )
        for node_id, interface in group:
            node.add_output_port(f"eject{node_id}", interface, 0, link_latency=0)
            home[node_id] = (index, interface)
        nodes.append(node)

    # Chain the nodes outward (away from the LLC).
    for node, downstream in zip(nodes, nodes[1:]):
        node.connect(
            downstream,
            tree_input_port(config, f"{downstream.name}.from_llc_side"),
            "up",
            link_latency=0,
            link_length_mm=hop_length_mm,
        )

    # Optional express link from the head directly to the farthest node.
    span = express_span(noc, len(nodes))
    if span:
        farthest = nodes[-1]
        nodes[0].connect(
            farthest,
            tree_input_port(config, f"{farthest.name}.from_express"),
            "express",
            link_latency=0,
            link_length_mm=hop_length_mm * span,
        )

    for index, node in enumerate(nodes):
        node.route_fn = partial(_dispersion_hop, nodes, home, span > 0, index)
    return nodes


def _dispersion_hop(
    nodes: List[Router],
    home: Dict[int, Tuple[int, NetworkInterface]],
    express: bool,
    index: int,
    dst: int,
) -> PacketSink:
    """Route function of dispersion node ``index``: eject its own cores,
    forward those farther out to the next node, except that the head takes
    the express link (when built) to the farthest node's cores."""
    target, interface = home[dst]
    if target < index:
        raise KeyError(dst)
    if target == index:
        return interface
    if express and index == 0 and target == len(nodes) - 1:
        return nodes[-1]
    return nodes[index + 1]
