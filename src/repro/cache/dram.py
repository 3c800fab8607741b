"""A simple DDR3 channel timing model."""

from __future__ import annotations


class DramChannel:
    """One memory channel: fixed access latency plus bandwidth occupancy.

    Each block transfer occupies the channel for ``occupancy_cycles``
    (block size divided by channel bandwidth); requests that arrive while
    the channel is busy queue behind it.  The access latency models the
    DRAM core (row activation, CAS) and is not pipelined away.
    """

    def __init__(self, latency_cycles: int, occupancy_cycles: float, name: str = "dram") -> None:
        if latency_cycles < 1:
            raise ValueError("latency_cycles must be >= 1")
        if occupancy_cycles <= 0:
            raise ValueError("occupancy_cycles must be positive")
        self.name = name
        self.latency_cycles = latency_cycles
        self.occupancy_cycles = occupancy_cycles
        self._free_at = 0.0

    def schedule(self, now: int) -> int:
        """Admit a block transfer at cycle ``now``; returns its completion cycle."""
        start = max(float(now), self._free_at)
        self._free_at = start + self.occupancy_cycles
        return int(round(start + self.latency_cycles))

    @property
    def free_at(self) -> float:
        return self._free_at
