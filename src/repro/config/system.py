"""Top-level system configuration tying cores, caches, NoC and workload."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from repro.config.cache import CacheHierarchyConfig
from repro.config.core import CoreConfig
from repro.config.noc import NocConfig, Topology
from repro.config.technology import TechnologyConfig
from repro.config.workload import WorkloadConfig
from repro.tenancy.placement import WorkloadMap


#: Historical grid table, kept verbatim as exact overrides: these sizes
#: predate the general factorisation below and must keep producing the
#: same grids forever (the factorisation happens to agree, but the table
#: pins the contract independently of the algorithm).
KNOWN_GRIDS = {
    1: (1, 1),
    2: (2, 1),
    4: (2, 2),
    8: (4, 2),
    16: (4, 4),
    32: (8, 4),
    64: (8, 8),
    128: (16, 8),
    256: (16, 16),
    512: (32, 16),
    1024: (32, 32),
    2048: (64, 32),
}

#: Widest columns:rows ratio a derived grid may have before it is rejected
#: as degenerate (a 17x1 "grid" is a chain, not a tiled die).
MAX_GRID_ASPECT_RATIO = 4.0


def default_mesh_dimensions(
    num_cores: int,
    max_aspect_ratio: Optional[float] = MAX_GRID_ASPECT_RATIO,
) -> Tuple[int, int]:
    """Grid dimensions used for tiled (mesh / flattened butterfly) chips.

    Returns ``(columns, rows)`` with ``columns * rows == num_cores`` and
    ``columns >= rows``.  Core counts in :data:`KNOWN_GRIDS` use the table
    verbatim; any other count is factorised as near-square as its divisors
    allow (``rows`` is the largest divisor not above ``sqrt(num_cores)``).
    Factorisations wider than ``max_aspect_ratio`` raise — pass
    ``max_aspect_ratio=None`` to accept a skewed grid anyway.
    """
    if num_cores < 1:
        raise ValueError(
            f"cannot build a tiled grid for {num_cores} cores: the core count "
            "must be a positive integer"
        )
    if num_cores in KNOWN_GRIDS:
        return KNOWN_GRIDS[num_cores]
    rows = 1
    divisor = 1
    while divisor * divisor <= num_cores:
        if num_cores % divisor == 0:
            rows = divisor
        divisor += 1
    cols = num_cores // rows
    if max_aspect_ratio is not None and cols > max_aspect_ratio * rows:
        raise ValueError(
            f"no near-square grid for {num_cores} cores: the best factorisation "
            f"is {cols}x{rows} (aspect ratio {cols / rows:g} exceeds the limit "
            f"{max_aspect_ratio:g}).  Choose a core count with a balanced "
            f"factorisation (e.g. a power of two), or call "
            f"default_mesh_dimensions({num_cores}, max_aspect_ratio=None) to "
            f"accept the skewed {cols}x{rows} grid"
        )
    return (cols, rows)


@dataclass(frozen=True)
class SystemConfig:
    """Complete description of one evaluated chip configuration."""

    num_cores: int = 64
    technology: TechnologyConfig = field(default_factory=TechnologyConfig)
    core: CoreConfig = field(default_factory=CoreConfig)
    caches: CacheHierarchyConfig = field(default_factory=CacheHierarchyConfig)
    noc: NocConfig = field(default_factory=NocConfig)
    workload: Optional[WorkloadConfig] = None
    num_memory_controllers: int = 4
    seed: int = 42
    #: Multi-tenant core placement; ``None`` (the default, and the
    #: homogeneous case) is omitted from cache-key canonicalisation via
    #: the metadata flag, so every pre-tenancy cache key is unchanged.
    workload_map: Optional[WorkloadMap] = field(
        default=None, metadata={"canonical_omit_none": True}
    )

    def __post_init__(self) -> None:
        if self.num_cores < 1:
            raise ValueError("num_cores must be >= 1")
        if self.num_memory_controllers < 1:
            raise ValueError("num_memory_controllers must be >= 1")
        if self.noc.topology in (Topology.MESH, Topology.FLATTENED_BUTTERFLY, Topology.IDEAL):
            default_mesh_dimensions(self.num_cores)  # validates the grid exists
        if self.workload_map is not None:
            self.workload_map.validate_for(self.num_cores)

    # ------------------------------------------------------------------ #
    @property
    def mesh_dimensions(self) -> Tuple[int, int]:
        """(columns, rows) of the tiled grid for mesh/FBfly/ideal chips."""
        return default_mesh_dimensions(self.num_cores)

    @property
    def active_cores(self) -> int:
        """Cores actually running the workload (scalability limited)."""
        if self.workload is None:
            return self.num_cores
        return self.workload.scaled_cores(self.num_cores)

    @property
    def tile_width_mm(self) -> float:
        """Approximate width of one core tile, derived from area estimates."""
        llc_slice_mb = self.caches.llc_total_bytes / (1024 * 1024) / self.num_cores
        tile_area = (
            self.core.area_mm2
            + llc_slice_mb * self.technology.cache_area_mm2_per_mb
        )
        return tile_area ** 0.5

    def with_workload(self, workload: WorkloadConfig) -> "SystemConfig":
        return replace(self, workload=workload)

    def with_noc(self, noc: NocConfig) -> "SystemConfig":
        return replace(self, noc=noc)

    def with_topology(self, topology: Topology) -> "SystemConfig":
        return replace(self, noc=self.noc.with_topology(topology))

    def with_workload_map(self, workload_map: Optional[WorkloadMap]) -> "SystemConfig":
        return replace(self, workload_map=workload_map)
