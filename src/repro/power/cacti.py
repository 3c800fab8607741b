"""Cache area/power model (CACTI-6.5-style, Section 5.2)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.config.technology import TechnologyConfig


@dataclass
class CacheAreaModel:
    """Area and (leakage-dominated) power of LLC storage.

    The paper reports 3.2 mm2 and roughly 500 mW per megabyte of LLC at
    32 nm; those constants live in :class:`TechnologyConfig` and this model
    simply scales them by capacity.
    """

    technology: TechnologyConfig = None

    def __post_init__(self) -> None:
        if self.technology is None:
            self.technology = TechnologyConfig()

    def area_mm2(self, capacity_bytes: int) -> float:
        if capacity_bytes < 0:
            raise ValueError("capacity must be non-negative")
        megabytes = capacity_bytes / (1024 * 1024)
        return megabytes * self.technology.cache_area_mm2_per_mb

    def power_w(self, capacity_bytes: int) -> float:
        if capacity_bytes < 0:
            raise ValueError("capacity must be non-negative")
        megabytes = capacity_bytes / (1024 * 1024)
        return megabytes * self.technology.cache_power_w_per_mb
