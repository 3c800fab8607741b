"""System maps: node-id assignment, placement, and address interleaving.

A system map answers the questions the rest of the chip needs:

* which network node does core ``c`` live on?
* which network node is the home of address ``a`` (and which internal bank)?
* which memory controller services address ``a``?
* where does every node sit physically (for the network builders)?

Two layouts exist: the tiled layout shared by the mesh, flattened-butterfly
and ideal organizations (core + LLC slice + directory per tile), and the
segregated NOC-Out layout (core tiles plus a central row of LLC tiles).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.cache.address import AddressMapper
from repro.config.cache import CacheConfig
from repro.config.system import SystemConfig
from repro.core.floorplan import CorePosition, NocOutFloorplan


class SystemMap:
    """Interface shared by the tiled and NOC-Out layouts."""

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self.num_cores = config.num_cores
        self.num_memory_controllers = config.num_memory_controllers

    # --- node identity -------------------------------------------------- #
    def core_node(self, core_id: int) -> int:
        raise NotImplementedError

    def llc_node(self, index: int) -> int:
        raise NotImplementedError

    def mc_node(self, index: int) -> int:
        raise NotImplementedError

    @property
    def llc_node_ids(self) -> List[int]:
        raise NotImplementedError

    @property
    def mc_node_ids(self) -> List[int]:
        return [self.mc_node(i) for i in range(self.num_memory_controllers)]

    @property
    def core_node_ids(self) -> List[int]:
        return [self.core_node(c) for c in range(self.num_cores)]

    # --- address mapping -------------------------------------------------- #
    def home_node(self, addr: int) -> int:
        raise NotImplementedError

    def mc_node_for(self, addr: int) -> int:
        raise NotImplementedError

    def llc_bank_configs(self) -> List[CacheConfig]:
        """Bank configurations of one LLC node."""
        raise NotImplementedError

    def active_core_ids(self, count: int) -> List[int]:
        """Which cores run a workload that only scales to ``count`` cores."""
        raise NotImplementedError


class TiledSystemMap(SystemMap):
    """Tiled layout: node ``i`` holds core ``i`` plus LLC slice ``i``.

    ``grid`` overrides the ``(columns, rows)`` placement grid; fabrics
    whose router grid differs from the per-core grid (e.g. the
    concentrated mesh, where several tiles share a coordinate) pass their
    own instead of deriving it from the core count.
    """

    def __init__(
        self, config: SystemConfig, grid: Optional[Tuple[int, int]] = None
    ) -> None:
        super().__init__(config)
        self.cols, self.rows = grid if grid is not None else config.mesh_dimensions
        self.mapper = AddressMapper(
            block_size=config.caches.block_size,
            num_llc_banks=config.num_cores,
            num_memory_channels=config.num_memory_controllers,
        )

    # --- node identity -------------------------------------------------- #
    def core_node(self, core_id: int) -> int:
        self._check_core(core_id)
        return core_id

    def llc_node(self, index: int) -> int:
        self._check_core(index)
        return index

    def mc_node(self, index: int) -> int:
        if not 0 <= index < self.num_memory_controllers:
            raise ValueError(f"memory controller index {index} out of range")
        return self.num_cores + index

    @property
    def llc_node_ids(self) -> List[int]:
        return list(range(self.num_cores))

    # --- address mapping -------------------------------------------------- #
    def home_node(self, addr: int) -> int:
        return self.mapper.home_bank(addr)

    def mc_node_for(self, addr: int) -> int:
        return self.mc_node(self.mapper.memory_channel(addr))

    def llc_bank_configs(self) -> List[CacheConfig]:
        return [self.config.caches.llc_bank_config(self.num_cores)]

    # --- placement -------------------------------------------------- #
    def tile_coord(self, node_id: int) -> Tuple[int, int]:
        """Grid coordinate of a tile node."""
        self._check_core(node_id)
        return (node_id % self.cols, node_id // self.cols)

    def mc_coords(self) -> List[Tuple[int, int]]:
        """Edge positions where the memory controllers attach."""
        candidates = [
            (0, self.rows // 2),
            (self.cols - 1, self.rows // 2),
            (self.cols // 2, 0),
            (self.cols // 2, self.rows - 1),
        ]
        coords = []
        for index in range(self.num_memory_controllers):
            col, row = candidates[index % len(candidates)]
            coords.append((min(col, self.cols - 1), min(row, self.rows - 1)))
        return coords

    def node_coords(self) -> Dict[int, Tuple[int, int]]:
        """Placement of every network node for the network builders."""
        coords = {node: self.tile_coord(node) for node in range(self.num_cores)}
        for index, coord in enumerate(self.mc_coords()):
            coords[self.mc_node(index)] = coord
        return coords

    def active_core_ids(self, count: int) -> List[int]:
        """The ``count`` tiles closest to the centre of the die (Section 5.3)."""
        count = min(count, self.num_cores)
        center = ((self.cols - 1) / 2.0, (self.rows - 1) / 2.0)
        by_distance = sorted(
            range(self.num_cores),
            key=lambda core: (
                abs(self.tile_coord(core)[0] - center[0])
                + abs(self.tile_coord(core)[1] - center[1]),
                core,
            ),
        )
        return sorted(by_distance[:count])

    def _check_core(self, core_id: int) -> None:
        if not 0 <= core_id < self.num_cores:
            raise ValueError(f"core id {core_id} out of range")


class NocOutSystemMap(SystemMap):
    """NOC-Out layout: core nodes plus a central row of LLC tiles.

    Columns, core rows and core positions are the :class:`NocOutFloorplan`'s,
    so a config the floorplan rejects cannot build a map either.
    """

    def __init__(self, config: SystemConfig) -> None:
        super().__init__(config)
        noc = config.noc
        self.floorplan = NocOutFloorplan(config)
        self._positions = self.floorplan.core_positions()
        self.banks_per_tile = noc.llc_banks_per_tile
        self.total_banks = noc.llc_banks
        self.mapper = AddressMapper(
            block_size=config.caches.block_size,
            num_llc_banks=self.total_banks,
            num_memory_channels=config.num_memory_controllers,
        )

    # --- node identity -------------------------------------------------- #
    def core_node(self, core_id: int) -> int:
        if not 0 <= core_id < self.num_cores:
            raise ValueError(f"core id {core_id} out of range")
        return core_id

    def llc_node(self, index: int) -> int:
        if not 0 <= index < self.floorplan.columns:
            raise ValueError(f"LLC tile index {index} out of range")
        return self.num_cores + index

    def mc_node(self, index: int) -> int:
        if not 0 <= index < self.num_memory_controllers:
            raise ValueError(f"memory controller index {index} out of range")
        return self.num_cores + self.floorplan.columns + index

    @property
    def llc_node_ids(self) -> List[int]:
        return [self.llc_node(i) for i in range(self.floorplan.columns)]

    # --- address mapping -------------------------------------------------- #
    def home_node(self, addr: int) -> int:
        bank = self.mapper.home_bank(addr)
        return self.llc_node(bank // self.banks_per_tile)

    def mc_node_for(self, addr: int) -> int:
        return self.mc_node(self.mapper.memory_channel(addr))

    def llc_bank_configs(self) -> List[CacheConfig]:
        bank_config = self.config.caches.llc_bank_config(self.total_banks)
        return [bank_config for _ in range(self.banks_per_tile)]

    # --- placement -------------------------------------------------- #
    def core_position(self, core_id: int) -> CorePosition:
        """(column, core-row) of a core; rows count across both sides of the LLC."""
        return self._positions[self.core_node(core_id)]

    def core_positions(self) -> Dict[int, CorePosition]:
        return dict(enumerate(self._positions))

    def llc_columns(self) -> Dict[int, int]:
        return {self.llc_node(i): i for i in range(self.floorplan.columns)}

    def mc_columns(self) -> Dict[int, int]:
        """Memory controllers split between the two edge LLC tiles."""
        columns = {}
        last = self.floorplan.columns - 1
        for index in range(self.num_memory_controllers):
            column = 0 if index < self.num_memory_controllers // 2 else last
            columns[self.mc_node(index)] = column
        return columns

    def cores_adjacent_to_llc(self, count: int) -> List[int]:
        """The ``count`` cores physically closest to the LLC row (Section 5.3).

        Used to place workloads that do not scale to the full core count.
        """
        middle = (self.floorplan.core_rows - 1) / 2.0
        positions = self._positions
        by_distance = sorted(
            range(self.num_cores),
            key=lambda core: (abs(positions[core][1] - middle), positions[core][0]),
        )
        return sorted(by_distance[:count])

    def active_core_ids(self, count: int) -> List[int]:
        """Core tiles adjacent to the LLC get the workload first (Section 5.3)."""
        return self.cores_adjacent_to_llc(min(count, self.num_cores))


def build_system_map(config: SystemConfig) -> SystemMap:
    """The layout of ``config``, built by its row in :data:`repro.fabrics.FABRICS`."""
    from repro.fabrics import fabric_for  # the fabric modules import this one

    return fabric_for(config).build_system_map(config)
