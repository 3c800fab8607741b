"""NOC-Out die floorplan (Figure 5).

The LLC is a single row of tiles in the centre of the die; core tiles fill
the columns above and below it.  Each column of cores on one side of the
LLC row is served by one reduction tree and one dispersion tree, both
terminating at the LLC tile of that column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

from repro.config.system import SystemConfig
from repro.noc.topology import LinkSpec, RouterSpec, TopologyDescriptor, ordered_link_spans

CorePosition = Tuple[int, int]  # (column, core-row); the LLC row is not counted


@dataclass(frozen=True)
class TreeGroup:
    """One reduction/dispersion tree pair: a half-column of cores and its LLC tile."""

    column: int
    side: str  # "top" (above the LLC row) or "bottom" (below it)
    core_rows: Tuple[int, ...]  # ordered from farthest to closest to the LLC


class NocOutFloorplan:
    """Geometry and grouping of the NOC-Out organization."""

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        noc = config.noc
        self.columns = noc.llc_tiles
        if config.num_cores % self.columns:
            raise ValueError(
                f"{config.num_cores} cores cannot be split over {self.columns} columns"
            )
        self.core_rows = config.num_cores // self.columns
        if self.core_rows % 2:
            raise ValueError("NOC-Out needs an even number of core rows (cores above and below the LLC)")
        self.rows_per_side = self.core_rows // 2

        tech = config.technology
        self.core_tile_width_mm = math.sqrt(config.core.area_mm2)
        self.core_tile_height_mm = self.core_tile_width_mm
        llc_tile_mb = (config.caches.llc_total_bytes / (1024 * 1024)) / noc.llc_tiles
        llc_tile_area = llc_tile_mb * tech.cache_area_mm2_per_mb
        # The paper matches the LLC tile aspect ratio to the core tiles so the
        # layout stays regular: keep the width equal to a core tile.
        self.llc_tile_width_mm = self.core_tile_width_mm
        self.llc_tile_height_mm = llc_tile_area / self.llc_tile_width_mm

    # ------------------------------------------------------------------ #
    # Grouping
    # ------------------------------------------------------------------ #
    def tree_groups(self) -> List[TreeGroup]:
        """All reduction/dispersion tree groups, top side first per column."""
        groups: List[TreeGroup] = []
        for column in range(self.columns):
            top_rows = tuple(range(0, self.rows_per_side))
            bottom_rows = tuple(
                range(self.core_rows - 1, self.rows_per_side - 1, -1)
            )
            groups.append(TreeGroup(column=column, side="top", core_rows=top_rows))
            groups.append(TreeGroup(column=column, side="bottom", core_rows=bottom_rows))
        return groups

    def side_of_row(self, core_row: int) -> str:
        """Which side of the LLC row a core row sits on."""
        if not 0 <= core_row < self.core_rows:
            raise ValueError(f"core row {core_row} out of range")
        return "top" if core_row < self.rows_per_side else "bottom"

    def core_positions(self) -> List[CorePosition]:
        """Positions of all cores in (column, core-row) order."""
        return [
            (column, row)
            for row in range(self.core_rows)
            for column in range(self.columns)
        ]

    # ------------------------------------------------------------------ #
    # Geometry
    # ------------------------------------------------------------------ #
    def llc_link_length_mm(self, column_a: int, column_b: int) -> float:
        """Length of the LLC-network link between two LLC tiles."""
        return abs(column_a - column_b) * self.llc_tile_width_mm

    def tree_hop_length_mm(self) -> float:
        """Length of one hop in a reduction/dispersion tree."""
        return self.core_tile_height_mm


# --------------------------------------------------------------------------- #
# Static descriptor for the area model (Figure 8)
# --------------------------------------------------------------------------- #
def describe_nocout(config: SystemConfig) -> TopologyDescriptor:
    """Router/link inventory of NOC-Out for the area model."""
    noc = config.noc
    plan = NocOutFloorplan(config)
    width = noc.link_width_bits

    tree_nodes_per_network = config.num_cores // max(1, noc.tree_concentration)
    routers = [
        RouterSpec(
            count=tree_nodes_per_network,
            ports=2,
            vcs_per_port=noc.tree_vcs_per_port,
            vc_depth_flits=noc.tree_vc_depth_flits,
            flit_width_bits=width,
            uses_sram_buffers=False,
            label="reduction tree node",
        ),
        RouterSpec(
            count=tree_nodes_per_network,
            ports=2,
            vcs_per_port=noc.tree_vcs_per_port,
            vc_depth_flits=noc.tree_vc_depth_flits,
            flit_width_bits=width,
            uses_sram_buffers=False,
            label="dispersion tree node",
        ),
        RouterSpec(
            count=noc.llc_tiles,
            ports=(noc.llc_tiles - 1) + 4,  # inter-tile + 2 tree terminals + local + MC
            vcs_per_port=noc.llc_vcs_per_port,
            vc_depth_flits=noc.llc_vc_depth_flits,
            flit_width_bits=width,
            uses_sram_buffers=False,
            label="LLC network router",
        ),
    ]

    hop_mm = plan.tree_hop_length_mm()
    tree_links_per_network = 2 * plan.columns * plan.rows_per_side
    links = [
        LinkSpec(
            count=tree_links_per_network,
            length_mm=hop_mm,
            width_bits=width,
            label="reduction tree link",
        ),
        LinkSpec(
            count=tree_links_per_network,
            length_mm=hop_mm,
            width_bits=width,
            label="dispersion tree link",
        ),
    ]
    links += [
        LinkSpec(
            count=count,
            length_mm=span * plan.llc_tile_width_mm,
            width_bits=width,
            label=f"LLC network link ({span} tiles)",
        )
        for span, count in ordered_link_spans(plan.columns)
    ]
    return TopologyDescriptor("noc_out", routers, links)
