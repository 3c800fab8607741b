"""Miss status holding registers (MSHRs) for the private caches."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class MshrEntry:
    """An outstanding miss for one cache block."""

    addr: int
    is_instruction: bool
    wants_exclusive: bool = False
    issue_cycle: int = 0
    merged_accesses: int = 1
    waiters: List[object] = field(default_factory=list)


class MshrFile:
    """A small fully-associative file of outstanding misses.

    Requests to a block that already has an outstanding miss are merged into
    the existing entry instead of generating duplicate network traffic.
    """

    def __init__(self, num_entries: int, name: str = "mshr") -> None:
        if num_entries < 1:
            raise ValueError("num_entries must be >= 1")
        self.name = name
        self.num_entries = num_entries
        self._entries: Dict[int, MshrEntry] = {}

    # ------------------------------------------------------------------ #
    def lookup(self, addr: int) -> Optional[MshrEntry]:
        return self._entries.get(addr)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.num_entries

    def allocate(
        self,
        addr: int,
        is_instruction: bool,
        wants_exclusive: bool,
        issue_cycle: int,
    ) -> MshrEntry:
        """Allocate a new entry (the caller must check :attr:`full` first)."""
        if addr in self._entries:
            raise RuntimeError(f"{self.name}: entry for {addr:#x} already exists")
        if self.full:
            raise RuntimeError(f"{self.name}: MSHR file full")
        entry = MshrEntry(
            addr=addr,
            is_instruction=is_instruction,
            wants_exclusive=wants_exclusive,
            issue_cycle=issue_cycle,
        )
        self._entries[addr] = entry
        return entry

    def merge(self, addr: int, wants_exclusive: bool = False) -> MshrEntry:
        """Merge another access into an existing outstanding miss."""
        entry = self._entries[addr]
        entry.merged_accesses += 1
        entry.wants_exclusive = entry.wants_exclusive or wants_exclusive
        return entry

    def release(self, addr: int) -> MshrEntry:
        """Retire the outstanding miss for ``addr``."""
        try:
            return self._entries.pop(addr)
        except KeyError:
            raise KeyError(f"{self.name}: no outstanding miss for {addr:#x}") from None

    # ------------------------------------------------------------------ #
    @property
    def outstanding(self) -> int:
        return len(self._entries)
