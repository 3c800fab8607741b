"""Topology descriptors and grid geometry.

The area and energy models (Figures 8 and 9) need a *static* description of
each interconnect: how many routers of which radix, how many virtual
channels and buffer slots, and how many millimetres of repeated link.  The
``describe_*`` functions build those descriptions without instantiating a
simulator, so the area study is instantaneous.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

from repro.config.system import SystemConfig


@dataclass(frozen=True)
class RouterSpec:
    """A group of identical routers."""

    count: int
    ports: int
    vcs_per_port: int
    vc_depth_flits: float
    flit_width_bits: int
    uses_sram_buffers: bool = False
    label: str = "router"

    @property
    def buffer_bits_per_router(self) -> float:
        return self.ports * self.vcs_per_port * self.vc_depth_flits * self.flit_width_bits

    @property
    def total_buffer_bits(self) -> float:
        return self.count * self.buffer_bits_per_router


@dataclass(frozen=True)
class LinkSpec:
    """A group of identical unidirectional links."""

    count: int
    length_mm: float
    width_bits: int
    label: str = "link"

    @property
    def total_wire_mm(self) -> float:
        return self.count * self.length_mm

    @property
    def total_bit_mm(self) -> float:
        return self.total_wire_mm * self.width_bits


@dataclass
class TopologyDescriptor:
    """Static inventory of a network: routers plus links."""

    name: str
    routers: List[RouterSpec] = field(default_factory=list)
    links: List[LinkSpec] = field(default_factory=list)

    @property
    def total_buffer_bits(self) -> float:
        return sum(spec.total_buffer_bits for spec in self.routers)

    @property
    def num_routers(self) -> int:
        return sum(spec.count for spec in self.routers)


class GridGeometry:
    """Physical geometry of a cols x rows tiled chip."""

    def __init__(self, cols: int, rows: int, tile_width_mm: float) -> None:
        if cols < 1 or rows < 1:
            raise ValueError("grid dimensions must be positive")
        if tile_width_mm <= 0:
            raise ValueError("tile width must be positive")
        self.cols = cols
        self.rows = rows
        self.tile_width_mm = tile_width_mm

    def position_mm(self, coord: Tuple[int, int]) -> Tuple[float, float]:
        """Centre of the tile at grid coordinate ``(col, row)``."""
        col, row = coord
        if not (0 <= col < self.cols and 0 <= row < self.rows):
            raise ValueError(f"coordinate {coord} outside {self.cols}x{self.rows} grid")
        return ((col + 0.5) * self.tile_width_mm, (row + 0.5) * self.tile_width_mm)

    def manhattan_mm(self, a: Tuple[int, int], b: Tuple[int, int]) -> float:
        ax, ay = self.position_mm(a)
        bx, by = self.position_mm(b)
        return abs(ax - bx) + abs(ay - by)

    def manhattan_tiles(self, a: Tuple[int, int], b: Tuple[int, int]) -> int:
        return abs(a[0] - b[0]) + abs(a[1] - b[1])

    def all_coords(self) -> Iterable[Tuple[int, int]]:
        for row in range(self.rows):
            for col in range(self.cols):
                yield (col, row)


def tiled_grid_geometry(config: SystemConfig) -> GridGeometry:
    """Geometry of the tiled (mesh / flattened-butterfly) organization."""
    cols, rows = config.mesh_dimensions
    return GridGeometry(cols, rows, config.tile_width_mm)


# --------------------------------------------------------------------------- #
# Static descriptors for the area model
# --------------------------------------------------------------------------- #
def describe_mesh(config: SystemConfig) -> TopologyDescriptor:
    """Mesh NoC inventory: 5-port routers plus nearest-neighbour links."""
    noc = config.noc
    geometry = tiled_grid_geometry(config)
    cols, rows = geometry.cols, geometry.rows
    routers = [
        RouterSpec(
            count=cols * rows,
            ports=5,
            vcs_per_port=noc.mesh_vcs_per_port,
            vc_depth_flits=noc.mesh_vc_depth_flits,
            flit_width_bits=noc.link_width_bits,
            uses_sram_buffers=False,
            label="mesh router",
        )
    ]
    horizontal = (cols - 1) * rows
    vertical = cols * (rows - 1)
    links = [
        LinkSpec(
            count=2 * (horizontal + vertical),
            length_mm=geometry.tile_width_mm,
            width_bits=noc.link_width_bits,
            label="mesh link",
        )
    ]
    return TopologyDescriptor("mesh", routers, links)


def describe_flattened_butterfly(config: SystemConfig) -> TopologyDescriptor:
    """2-D flattened butterfly inventory: 15-port routers, long links."""
    noc = config.noc
    geometry = tiled_grid_geometry(config)
    cols, rows = geometry.cols, geometry.rows
    ports = (cols - 1) + (rows - 1) + 1
    routers = [
        RouterSpec(
            count=cols * rows,
            ports=ports,
            vcs_per_port=noc.fbfly_vcs_per_port,
            vc_depth_flits=noc.fbfly_vc_depth_flits,
            flit_width_bits=noc.link_width_bits,
            uses_sram_buffers=True,
            label="flattened butterfly router",
        )
    ]
    links: List[LinkSpec] = []
    # Row links: for each row, one unidirectional link per ordered pair.
    span_counts: Dict[int, int] = {}
    for a in range(cols):
        for b in range(cols):
            if a != b:
                span_counts[abs(a - b)] = span_counts.get(abs(a - b), 0) + 1
    for span, count in sorted(span_counts.items()):
        links.append(
            LinkSpec(
                count=count * rows,
                length_mm=span * geometry.tile_width_mm,
                width_bits=noc.link_width_bits,
                label=f"row link ({span} tiles)",
            )
        )
    span_counts = {}
    for a in range(rows):
        for b in range(rows):
            if a != b:
                span_counts[abs(a - b)] = span_counts.get(abs(a - b), 0) + 1
    for span, count in sorted(span_counts.items()):
        links.append(
            LinkSpec(
                count=count * cols,
                length_mm=span * geometry.tile_width_mm,
                width_bits=noc.link_width_bits,
                label=f"column link ({span} tiles)",
            )
        )
    return TopologyDescriptor("flattened_butterfly", routers, links)


def describe_topology(config: SystemConfig) -> TopologyDescriptor:
    """Descriptor for ``config.noc.topology``, built by its row in
    :data:`repro.fabrics.FABRICS`."""
    from repro.fabrics import fabric_for  # the fabric modules import this one

    return fabric_for(config).describe(config)
