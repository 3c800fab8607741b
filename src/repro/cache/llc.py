"""Last-level cache banks.

An LLC bank is a slice of the shared NUCA cache: a tag array plus a simple
bank-occupancy model (one access at a time, ``hit_latency`` cycles each)
that creates the bank contention the paper observes on Data Serving when
the LLC is concentrated into a few NOC-Out tiles.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.cache.set_assoc import CacheLineState, SetAssociativeCache
from repro.config.cache import CacheConfig


class LLCBank:
    """One internally banked slice of the shared last-level cache."""

    def __init__(self, config: CacheConfig, name: str, index_divisor: int = 1) -> None:
        self.config = config
        self.name = name
        self.array = SetAssociativeCache(config, name=name, index_divisor=index_divisor)
        self.access_latency = config.hit_latency
        self._busy_until = 0

    # ------------------------------------------------------------------ #
    def schedule_access(self, now: int) -> int:
        """Reserve the bank for one access starting at ``now``.

        Returns the cycle at which the access completes; back-to-back
        accesses serialize on the bank, modelling bank contention.
        """
        self._busy_until = max(now, self._busy_until) + self.access_latency
        return self._busy_until

    # ------------------------------------------------------------------ #
    def contains(self, addr: int) -> bool:
        """Whether the block is resident (an access: updates LRU order)."""
        return self.array.lookup(addr) is not None

    def probe(self, addr: int) -> bool:
        """Presence check without an LRU update."""
        return self.array.probe(addr) is not None

    def fill(self, addr: int) -> Optional[Tuple[int, CacheLineState]]:
        """Install a block fetched from memory; returns the victim, if any."""
        return self.array.insert(addr, CacheLineState.SHARED)

    def writeback(self, addr: int) -> None:
        """Absorb a dirty writeback from a core."""
        self.array.insert(addr, CacheLineState.MODIFIED)

    # ------------------------------------------------------------------ #
    @property
    def busy_until(self) -> int:
        return self._busy_until
