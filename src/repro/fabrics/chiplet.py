"""Chiplet / network-on-interposer fabric: the 1024-2048-core design point.

A flat mesh's diameter grows with the square root of the core count, so the
paper's scale-out argument (Sections 2 and 7.1) gets most interesting
exactly where a monolithic die stops being buildable.  This module models
the contemporary answer: several identical CPU chiplets, each with its own
small NoC mesh, bridged by a network-on-interposer (NoI).  The two gem5
exemplars in SNIPPETS.md are the direct models:

* ``SimpleChiplet`` — per-chiplet NoC routers concentrated onto NoI
  routers (the ``concentration`` knob here: how many tiles funnel through
  one boundary router's uplink);
* ``Mesh_IO_Center`` — AMD-Zen-3-style organisation where crossing links
  pay ``chiplet_latency_increase`` extra cycles and the memory controllers
  live on a central IO die instead of the CPU chiplets.

Structure built by :class:`ChipletNetwork`:

* one 5-port mesh router per tile (core + LLC slice), XY-routed inside the
  chiplet, exactly like the baseline mesh;
* every group of ``concentration`` consecutive tiles shares one *boundary
  router* (the group's first tile) holding an uplink to the chiplet's NoI
  router; remote-bound traffic is spread over the boundary routers by a
  destination-keyed hash so every router in a chiplet agrees on the exit
  (pure XY toward one coordinate — loop- and deadlock-free);
* the NoI routers form a near-square mesh over the chiplet grid; NoI links
  and up/down links are *crossing* links and pay the extra latency;
* with ``chiplet_io_die=True`` (the default) a central IO-die router is
  star-connected to every NoI router and hosts all memory controllers;
  otherwise MC ``i`` attaches to NoI router ``i % chiplet_count``.

Like :mod:`repro.fabrics.cmesh`, the module defines its preset, map,
network and area descriptor, and one row of :data:`repro.fabrics.FABRICS`
names them.  The four knobs live on :class:`~repro.config.noc.NocConfig` as
optional fields (``None`` means "fabric default" and is canonically
omitted, so adding the fabric invalidated no cache key), which also makes
each knob a sweepable axis for free.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Tuple

from repro.chip.system_map import TiledSystemMap
from repro.config.noc import NocConfig
from repro.config.system import SystemConfig, default_mesh_dimensions
from repro.noc.mesh import join_mesh, mesh_input_port, step, xy_direction
from repro.noc.network import Network
from repro.noc.router import PacketSink, Router
from repro.noc.topology import (
    LinkSpec,
    TopologyDescriptor,
    mesh_link_count,
    mesh_router_spec,
)
from repro.sim.kernel import Simulator

Coordinate = Tuple[int, int]

#: Table name (and the string stored in ``NocConfig.topology``).
CHIPLET_NAME = "chiplet"
#: Default number of CPU chiplets (a 2x2 NoI mesh).
DEFAULT_CHIPLET_COUNT = 4
#: Default tiles per boundary router (SimpleChiplet's ``conc_factor``).
DEFAULT_CONCENTRATION = 16
#: Default extra cycles on every chiplet-crossing link
#: (Mesh_IO_Center's ``chiplet_latency_increase``).
DEFAULT_LATENCY_INCREASE = 4

@dataclass(frozen=True)
class ChipletParams:
    """Validated geometry of one chiplet configuration."""

    count: int  #: number of CPU chiplets
    ccols: int  #: NoI (chiplet-grid) columns
    crows: int  #: NoI (chiplet-grid) rows
    cores_per_chiplet: int
    lcols: int  #: per-chiplet mesh columns
    lrows: int  #: per-chiplet mesh rows
    concentration: int  #: tiles per boundary router
    groups: int  #: boundary routers (uplinks) per chiplet
    latency_increase: int  #: extra cycles on crossing links
    io_die: bool  #: memory controllers on a central IO die


def chiplet_params(config: SystemConfig) -> ChipletParams:
    """Resolve and validate the chiplet knobs of ``config``.

    ``None`` knobs take the fabric defaults; every degenerate combination
    raises a one-line ``ValueError`` naming the offending numbers.
    """
    noc = config.noc
    count = noc.chiplet_count if noc.chiplet_count is not None else DEFAULT_CHIPLET_COUNT
    concentration = (
        noc.chiplet_concentration
        if noc.chiplet_concentration is not None
        else DEFAULT_CONCENTRATION
    )
    latency_increase = (
        noc.chiplet_latency_increase
        if noc.chiplet_latency_increase is not None
        else DEFAULT_LATENCY_INCREASE
    )
    io_die = noc.chiplet_io_die if noc.chiplet_io_die is not None else True
    if count < 1:
        raise ValueError(f"{CHIPLET_NAME}: chiplet count must be >= 1, got {count}")
    if config.num_cores % count:
        raise ValueError(
            f"{CHIPLET_NAME}: {config.num_cores} cores do not divide evenly "
            f"over {count} chiplets"
        )
    cores_per_chiplet = config.num_cores // count
    ccols, crows = default_mesh_dimensions(count)
    lcols, lrows = default_mesh_dimensions(cores_per_chiplet)
    if concentration < 1:
        raise ValueError(
            f"{CHIPLET_NAME}: concentration must be >= 1, got {concentration}"
        )
    if concentration > cores_per_chiplet:
        raise ValueError(
            f"{CHIPLET_NAME}: concentration {concentration} exceeds the "
            f"{cores_per_chiplet} cores per chiplet"
        )
    if cores_per_chiplet % concentration:
        raise ValueError(
            f"{CHIPLET_NAME}: {cores_per_chiplet} cores per chiplet do not "
            f"divide evenly over the concentration {concentration}"
        )
    if latency_increase < 0:
        raise ValueError(
            f"{CHIPLET_NAME}: latency increase must be >= 0, got {latency_increase}"
        )
    return ChipletParams(
        count=count,
        ccols=ccols,
        crows=crows,
        cores_per_chiplet=cores_per_chiplet,
        lcols=lcols,
        lrows=lrows,
        concentration=concentration,
        groups=cores_per_chiplet // concentration,
        latency_increase=latency_increase,
        io_die=io_die,
    )


class ChipletSystemMap(TiledSystemMap):
    """Two-level tiled layout: tile -> chiplet -> NoI.

    Logical node structure is identical to :class:`TiledSystemMap` (node
    ``i`` holds core ``i`` plus LLC slice ``i``; memory controllers follow
    the tiles) — only placement is chiplet-aware.
    Chiplets tile the global grid: chiplet ``k`` sits at chiplet-grid
    coordinate ``(k % ccols, k // ccols)`` and its tiles fill an
    ``lcols x lrows`` sub-grid.
    """

    def __init__(self, config: SystemConfig) -> None:
        self.params = chiplet_params(config)
        p = self.params
        super().__init__(config, grid=(p.ccols * p.lcols, p.crows * p.lrows))

    # --- two-level placement ------------------------------------------- #
    def chiplet_of(self, node_id: int) -> int:
        """Which chiplet a tile node lives on."""
        self._check_core(node_id)
        return node_id // self.params.cores_per_chiplet

    def chiplet_coord(self, chiplet: int) -> Coordinate:
        """Chiplet-grid (NoI) coordinate of chiplet ``chiplet``."""
        if not 0 <= chiplet < self.params.count:
            raise ValueError(f"chiplet index {chiplet} out of range")
        return (chiplet % self.params.ccols, chiplet // self.params.ccols)

    def local_index(self, node_id: int) -> int:
        self._check_core(node_id)
        return node_id % self.params.cores_per_chiplet

    def local_coord(self, node_id: int) -> Coordinate:
        """Coordinate of a tile inside its own chiplet's mesh."""
        local = self.local_index(node_id)
        return (local % self.params.lcols, local // self.params.lcols)

    def tile_coord(self, node_id: int) -> Coordinate:
        cx, cy = self.chiplet_coord(self.chiplet_of(node_id))
        lx, ly = self.local_coord(node_id)
        return (cx * self.params.lcols + lx, cy * self.params.lrows + ly)

    # --- boundary routers ---------------------------------------------- #
    def boundary_group(self, node_id: int) -> int:
        """Which boundary-router group a tile belongs to (for descending)."""
        return self.local_index(node_id) // self.params.concentration

    def boundary_node(self, chiplet: int, group: int) -> int:
        """The tile whose router holds group ``group``'s uplink."""
        if not 0 <= group < self.params.groups:
            raise ValueError(f"boundary group {group} out of range")
        return (
            chiplet * self.params.cores_per_chiplet
            + group * self.params.concentration
        )

    def mc_host_chiplet(self, index: int) -> int:
        """NoI router hosting MC ``index`` when there is no IO die."""
        if not 0 <= index < self.num_memory_controllers:
            raise ValueError(f"memory controller index {index} out of range")
        return index % self.params.count


class ChipletNetwork(Network):
    """Per-chiplet XY meshes bridged by an interposer mesh (plus IO die)."""

    def __init__(
        self,
        sim: Simulator,
        config: SystemConfig,
        system_map: ChipletSystemMap,
        name: str = CHIPLET_NAME,
    ) -> None:
        self.map = system_map
        p = system_map.params
        super().__init__(
            sim,
            config,
            name,
            list(range(config.num_cores)) + system_map.mc_node_ids,
        )
        self.params = p
        self.tile_mm = config.tile_width_mm
        #: Interposer hop length: the width of one chiplet die.
        self.chiplet_mm = p.lcols * self.tile_mm
        self.crossing_latency = self.noc.mesh_link_latency + p.latency_increase

        self._tile_router: List[Router] = []
        #: per chiplet: local coordinate -> tile router
        self._tile_grid: List[Dict[Coordinate, Router]] = [{} for _ in range(p.count)]
        self._noi_router: List[Router] = []
        #: chiplet-grid coordinate -> NoI router
        self._noi_grid: Dict[Coordinate, Router] = {}
        self.io_router: Router = None

        self._build_tile_routers()
        self._build_noi_routers()
        self._build_uplinks()
        self._build_io_die()
        self._attach_interfaces()

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def _build_tile_routers(self) -> None:
        p = self.params
        for node in range(self.system.num_cores):
            chiplet = node // p.cores_per_chiplet
            lx, ly = self.map.local_coord(node)
            router = Router(
                self.sim,
                f"{self.name}.c{chiplet}.r{lx}_{ly}",
                pipeline_latency=self.noc.mesh_router_pipeline,
                route_fn=partial(self._tile_hop, node),
            )
            self._tile_grid[chiplet][(lx, ly)] = router
            self._tile_router.append(router)
            self.routers.append(router)
        # Intra-chiplet mesh links (never crossing).
        for grid in self._tile_grid:
            join_mesh(self.system, grid, self.noc.mesh_link_latency, self.tile_mm)

    def _build_noi_routers(self) -> None:
        for chiplet in range(self.params.count):
            cx, cy = self.map.chiplet_coord(chiplet)
            router = Router(
                self.sim,
                f"{self.name}.noi{cx}_{cy}",
                pipeline_latency=self.noc.mesh_router_pipeline,
                route_fn=partial(self._noi_hop, chiplet),
            )
            self._noi_grid[(cx, cy)] = router
            self._noi_router.append(router)
            self.routers.append(router)
        # NoI mesh links: chiplet-to-chiplet across the interposer.
        join_mesh(self.system, self._noi_grid, self.crossing_latency, self.chiplet_mm)

    def _build_uplinks(self) -> None:
        p = self.params
        for chiplet in range(p.count):
            noi = self._noi_router[chiplet]
            for group in range(p.groups):
                boundary = self._tile_router[self.map.boundary_node(chiplet, group)]
                boundary.connect(
                    noi,
                    mesh_input_port(self.system, f"{noi.name}.in_up{group}"),
                    "up",
                    link_latency=self.crossing_latency,
                    link_length_mm=self.tile_mm,
                )
                noi.connect(
                    boundary,
                    mesh_input_port(self.system, f"{boundary.name}.in_down"),
                    f"down{group}",
                    link_latency=self.crossing_latency,
                    link_length_mm=self.tile_mm,
                )

    def _build_io_die(self) -> None:
        p = self.params
        if not p.io_die:
            return
        self.io_router = Router(
            self.sim,
            f"{self.name}.io",
            pipeline_latency=self.noc.mesh_router_pipeline,
            route_fn=self._io_hop,
        )
        self.routers.append(self.io_router)
        for chiplet in range(p.count):
            noi = self._noi_router[chiplet]
            self.io_router.connect(
                noi,
                mesh_input_port(self.system, f"{noi.name}.in_io"),
                f"to_c{chiplet}",
                link_latency=self.crossing_latency,
                link_length_mm=self.chiplet_mm,
            )
            noi.connect(
                self.io_router,
                mesh_input_port(self.system, f"{self.name}.io.in_c{chiplet}"),
                "io",
                link_latency=self.crossing_latency,
                link_length_mm=self.chiplet_mm,
            )

    def _attach_interfaces(self) -> None:
        p = self.params
        for node in range(self.system.num_cores):
            router = self._tile_router[node]
            self.attach_interface(
                node, router, mesh_input_port(self.system, f"{router.name}.in_local{node}")
            )
        for index in range(self.map.num_memory_controllers):
            host = (
                self.io_router
                if p.io_die
                else self._noi_router[self.map.mc_host_chiplet(index)]
            )
            self.attach_interface(
                self.map.mc_node(index),
                host,
                mesh_input_port(self.system, f"{host.name}.in_mc{index}"),
            )

    # ------------------------------------------------------------------ #
    # Route functions (one per router kind, resolved on first lookup)
    # ------------------------------------------------------------------ #
    def _tile_hop(self, node: int, dst: int) -> PacketSink:
        """Tile router of ``node``: every destination reduces to one local
        target coordinate (the destination's own tile, or the exit boundary
        router) plus the hop once there (eject, or up to the NoI router)."""
        p = self.params
        if dst not in self.interfaces:
            raise KeyError(dst)
        chiplet = node // p.cores_per_chiplet
        if dst < self.system.num_cores and dst // p.cores_per_chiplet == chiplet:
            target = self.map.local_coord(dst)
            terminal = self.interfaces[dst]
        else:
            target = self.map.local_coord(self.map.boundary_node(chiplet, dst % p.groups))
            terminal = self._noi_router[chiplet]
        coord = self.map.local_coord(node)
        if coord == target:
            return terminal
        return self._tile_grid[chiplet][step(coord, xy_direction(coord, target))]

    def _noi_hop(self, chiplet: int, dst: int) -> PacketSink:
        """NoI router of ``chiplet``: descend into the home chiplet, traverse
        the interposer mesh, or hand off to the IO die / host router."""
        p = self.params
        num_cores = self.system.num_cores
        if dst not in self.interfaces:
            raise KeyError(dst)
        if dst < num_cores:
            target_chiplet = dst // p.cores_per_chiplet
            if target_chiplet == chiplet:
                group = self.map.boundary_group(dst)
                return self._tile_router[self.map.boundary_node(chiplet, group)]
        elif p.io_die:
            return self.io_router
        else:
            target_chiplet = self.map.mc_host_chiplet(dst - num_cores)
            if target_chiplet == chiplet:
                return self.interfaces[dst]
        coord = self.map.chiplet_coord(chiplet)
        target = self.map.chiplet_coord(target_chiplet)
        return self._noi_grid[step(coord, xy_direction(coord, target))]

    def _io_hop(self, dst: int) -> PacketSink:
        """IO die: every chiplet one hop away, MCs eject locally."""
        if dst < self.system.num_cores and dst in self.interfaces:
            return self._noi_router[dst // self.params.cores_per_chiplet]
        return self.interfaces[dst]


# --------------------------------------------------------------------------- #
# Static description for the area/power models
# --------------------------------------------------------------------------- #
def describe_chiplet(config: SystemConfig) -> TopologyDescriptor:
    """Static inventory: tile meshes, boundary uplinks, NoI mesh, IO die."""
    noc = config.noc
    p = chiplet_params(config)
    tile_mm = config.tile_width_mm
    chiplet_mm = p.lcols * tile_mm
    boundary_count = p.count * p.groups
    tile_routers = p.count * p.cores_per_chiplet - boundary_count
    routers = [
        # N/S/E/W + local; boundary routers add an uplink
        mesh_router_spec(config, tile_routers, 5, "chiplet tile router"),
        mesh_router_spec(config, boundary_count, 6, "chiplet boundary router"),
        # NoI mesh + downlinks + IO/MC side
        mesh_router_spec(
            config, p.count, 4 + p.groups + 1, "interposer (NoI) router",
            uses_sram_buffers=True,
        ),
    ]
    if p.io_die:
        routers.append(
            mesh_router_spec(
                config, 1, p.count + config.num_memory_controllers, "IO-die router",
                uses_sram_buffers=True,
            )
        )
    routers = [spec for spec in routers if spec.count > 0]
    links = [
        LinkSpec(
            count=p.count * mesh_link_count(p.lcols, p.lrows),
            length_mm=tile_mm,
            width_bits=noc.link_width_bits,
            label="chiplet mesh link",
        ),
        LinkSpec(
            count=2 * boundary_count,
            length_mm=tile_mm,
            width_bits=noc.link_width_bits,
            label="interposer via (up/down) link",
        ),
    ]
    noi_links = mesh_link_count(p.ccols, p.crows)
    if noi_links:
        links.append(
            LinkSpec(
                count=noi_links,
                length_mm=chiplet_mm,
                width_bits=noc.link_width_bits,
                label="interposer (NoI) link",
            )
        )
    if p.io_die:
        links.append(
            LinkSpec(
                count=2 * p.count,
                length_mm=chiplet_mm,
                width_bits=noc.link_width_bits,
                label="IO-die link",
            )
        )
    return TopologyDescriptor(CHIPLET_NAME, routers, links)


# --------------------------------------------------------------------------- #
# System preset
# --------------------------------------------------------------------------- #
def chiplet_system(
    num_cores: int = 1024,
    link_width_bits: int = 128,
    seed: int = 42,
    chiplet_count: int = DEFAULT_CHIPLET_COUNT,
    concentration: int = DEFAULT_CONCENTRATION,
    latency_increase: int = DEFAULT_LATENCY_INCREASE,
    io_die: bool = True,
) -> SystemConfig:
    """Chiplet CMP preset (Table 1 chip, chiplet/NoI interconnect)."""
    noc = NocConfig(
        topology=CHIPLET_NAME,
        link_width_bits=link_width_bits,
        chiplet_count=chiplet_count,
        chiplet_concentration=concentration,
        chiplet_latency_increase=latency_increase,
        chiplet_io_die=io_die,
    )
    config = SystemConfig(num_cores=num_cores, noc=noc, seed=seed)
    chiplet_params(config)  # validate the whole geometry up front
    return config

