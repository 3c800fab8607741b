"""NOC-Out die floorplan (Figure 5).

The LLC is a single row of tiles in the centre of the die; core tiles fill
the columns above and below it.  Each column of cores on one side of the
LLC row is served by one reduction tree and one dispersion tree, both
terminating at the LLC tile of that column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple, TypeVar

from repro.config.noc import NocConfig
from repro.config.system import SystemConfig
from repro.noc.topology import LinkSpec, RouterSpec, TopologyDescriptor, ordered_link_spans

CorePosition = Tuple[int, int]  # (column, core-row); the LLC row is not counted
T = TypeVar("T")


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
# Tree shape: shared by the tree builders and the inventory
# --------------------------------------------------------------------------- #
def tree_node_groups(cores: Sequence[T], concentration: int) -> List[Sequence[T]]:
    """The cores each node of one tree serves, farthest from the LLC first.

    ``cores`` is the tree's half-column in that order; every run of
    ``concentration`` consecutive cores shares one node (Section 7.1).
    """
    return [cores[i : i + concentration] for i in range(0, len(cores), concentration)]


def express_span(noc: NocConfig, tree_nodes: int) -> int:
    """Hops spanned by the express link of a ``tree_nodes``-node tree; 0 if none.

    With ``tree_express_links``, a tree of four or more nodes links its
    LLC-adjacent node and its farthest node directly (Section 7.1).
    """
    return tree_nodes - 1 if noc.tree_express_links and tree_nodes >= 4 else 0


# --------------------------------------------------------------------------- #
# Static descriptor for the area model (Figure 8)
# --------------------------------------------------------------------------- #
def describe_nocout(config: SystemConfig) -> TopologyDescriptor:
    """Router/link inventory of NOC-Out for the area model."""
    noc = config.noc
    plan = NocOutFloorplan(config)
    width = noc.link_width_bits

    trees = plan.tree_groups()
    nodes_per_tree = len(tree_node_groups(trees[0].core_rows, noc.tree_concentration))
    tree_nodes = len(trees) * nodes_per_tree  # in each of the two tree networks
    routers = [
        RouterSpec(
            count=tree_nodes,
            ports=2,
            vcs_per_port=noc.tree_vcs_per_port,
            vc_depth_flits=noc.tree_vc_depth_flits,
            flit_width_bits=width,
            uses_sram_buffers=False,
            label=f"{kind} tree node",
        )
        for kind in ("reduction", "dispersion")
    ]
    routers.append(
        RouterSpec(
            count=noc.llc_tiles,
            ports=(noc.llc_tiles - 1) + 4,  # inter-tile + 2 tree terminals + local + MC
            vcs_per_port=noc.llc_vcs_per_port,
            vc_depth_flits=noc.llc_vc_depth_flits,
            flit_width_bits=width,
            uses_sram_buffers=False,
            label="LLC network router",
        )
    )

    # One link per tree node: the chain plus the link at the LLC end.
    hop_mm = plan.tree_hop_length_mm()
    links = [
        LinkSpec(count=tree_nodes, length_mm=hop_mm, width_bits=width, label=f"{kind} tree link")
        for kind in ("reduction", "dispersion")
    ]
    express_hops = express_span(noc, nodes_per_tree)
    if express_hops:
        links.append(
            LinkSpec(
                count=2 * len(trees),  # one per reduction and dispersion tree
                length_mm=express_hops * hop_mm,
                width_bits=width,
                label=f"tree express link ({express_hops} hops)",
            )
        )
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
