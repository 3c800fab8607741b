"""Private first-level caches (32 KB L1-I and L1-D, Table 1)."""

from __future__ import annotations

from typing import Optional, Tuple

from repro.cache.set_assoc import CacheLineState, SetAssociativeCache
from repro.config.cache import CacheConfig
from repro.sim.stats import StatGroup


class L1Cache:
    """A private L1 cache: a tag/state array plus access statistics.

    The L1 is a purely functional structure; its hit latency is charged by
    the core timing model and misses are turned into coherence requests by
    :class:`repro.cpu.core_node.CoreNode`.  Its hit/miss counters are
    registered in ``stats`` (the owning core node's ``l1i``/``l1d`` group).
    """

    def __init__(
        self, config: CacheConfig, name: str, stats: StatGroup, is_instruction: bool = False
    ) -> None:
        self.config = config
        self.name = name
        self.is_instruction = is_instruction
        self.array = SetAssociativeCache(config, name=name)
        self.read_hits = stats.counter("read_hits")
        self.read_misses = stats.counter("read_misses")
        self.write_hits = stats.counter("write_hits")
        self.write_misses = stats.counter("write_misses")

    # ------------------------------------------------------------------ #
    # Core-side accesses
    # ------------------------------------------------------------------ #
    def read(self, addr: int) -> bool:
        """Look up ``addr`` for a read; returns ``True`` on a hit."""
        state = self.array.lookup(addr)
        if state is not None:
            self.read_hits.add()
            return True
        self.read_misses.add()
        return False

    def write(self, addr: int) -> bool:
        """Look up ``addr`` for a write; ``True`` on a hit, which needs an M line."""
        if self.is_instruction:
            raise RuntimeError(f"{self.name}: writes to the instruction cache are not allowed")
        if self.array.lookup(addr) is CacheLineState.MODIFIED:
            self.write_hits.add()
            return True
        self.write_misses.add()
        return False

    def fill(self, addr: int, writable: bool) -> Optional[Tuple[int, CacheLineState]]:
        """Install a block returned by the directory; returns the victim."""
        state = CacheLineState.MODIFIED if writable else CacheLineState.SHARED
        if self.is_instruction:
            state = CacheLineState.SHARED
        return self.array.insert(addr, state)

    # ------------------------------------------------------------------ #
    @property
    def accesses(self) -> int:
        return (
            self.read_hits.value
            + self.read_misses.value
            + self.write_hits.value
            + self.write_misses.value
        )

    @property
    def misses(self) -> int:
        return self.read_misses.value + self.write_misses.value
