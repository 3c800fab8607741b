"""The LLC network: a one-dimensional flattened butterfly across LLC tiles.

NOC-Out concentrates the LLC in a single row of tiles; the tiles are fully
connected with a flattened butterfly so that a request entering the LLC
region at the wrong tile reaches its home tile in one additional hop
(Section 4.3).  Memory controllers attach to the edge routers.
"""

from __future__ import annotations

from typing import List

from repro.config.system import SystemConfig
from repro.sim.kernel import Simulator
from repro.noc.buffer import InputPort
from repro.noc.router import Router
from repro.core.floorplan import NocOutFloorplan


def llc_input_port(config: SystemConfig, label: str) -> InputPort:
    """A three-VC input port as used by LLC network routers."""
    noc = config.noc
    return InputPort(
        num_vcs=noc.llc_vcs_per_port,
        vc_depth_flits=noc.llc_vc_depth_flits,
        name=label,
    )


def build_llc_network(
    sim: Simulator,
    config: SystemConfig,
    floorplan: NocOutFloorplan,
    name: str = "llcnet",
) -> List[Router]:
    """Create the LLC routers and their all-to-all row links.

    ``routers[column]`` is the router of the LLC tile in ``column``; it has
    one direct link to every other LLC router.
    """
    noc = config.noc
    tech = config.technology
    columns = noc.llc_tiles

    routers = [
        Router(
            sim,
            f"{name}.r{column}",
            pipeline_latency=noc.llc_router_pipeline,
        )
        for column in range(columns)
    ]

    for a in range(columns):
        for b in range(columns):
            if a == b:
                continue
            length_mm = floorplan.llc_link_length_mm(a, b)
            routers[a].connect(
                routers[b],
                llc_input_port(config, f"{routers[b].name}.from{a}"),
                f"to{b}",
                link_latency=max(1, tech.wire_cycles(length_mm)),
                link_length_mm=length_mm,
            )

    return routers
