"""Physical address manipulation and NUCA interleaving."""

from __future__ import annotations

from typing import Iterator


class AddressMapper:
    """Block-granular address arithmetic and home-bank interleaving.

    Cache blocks are interleaved across the LLC banks/slices (block i lives
    in bank ``i mod num_banks``), and memory traffic is interleaved across
    the memory channels at a coarser 4 KB granularity, as is customary for
    DDR3 systems.
    """

    def __init__(self, block_size: int = 64, num_llc_banks: int = 16, num_memory_channels: int = 4) -> None:
        if block_size <= 0 or block_size & (block_size - 1):
            raise ValueError("block_size must be a positive power of two")
        if num_llc_banks < 1 or num_memory_channels < 1:
            raise ValueError("bank and channel counts must be >= 1")
        self.block_size = block_size
        self.num_llc_banks = num_llc_banks
        self.num_memory_channels = num_memory_channels
        self._block_shift = block_size.bit_length() - 1
        self._page_shift = 12  # 4 KB memory-channel interleaving

    # ------------------------------------------------------------------ #
    def block_address(self, addr: int) -> int:
        """Align ``addr`` down to its cache-block base address."""
        return (addr >> self._block_shift) << self._block_shift

    def block_number(self, addr: int) -> int:
        """Sequential index of the cache block containing ``addr``."""
        return addr >> self._block_shift

    def home_bank(self, addr: int) -> int:
        """LLC bank (or slice) index owning ``addr``."""
        return self.block_number(addr) % self.num_llc_banks

    def bank_stripes(self, base: int, size: int) -> Iterator[range]:
        """The blocks of ``[base, base + size)``, one increasing range per bank.

        Block ``i`` lives in bank ``i mod num_llc_banks``, so the blocks one
        bank owns are every ``num_llc_banks``-th block: each stripe starts
        at one of the first ``num_llc_banks`` blocks and steps by
        ``num_llc_banks`` blocks.
        """
        end = base + size
        stride = self.block_size * self.num_llc_banks
        for start in range(base, min(base + stride, end), self.block_size):
            yield range(start, end, stride)

    def memory_channel(self, addr: int) -> int:
        """Memory channel servicing ``addr``."""
        return (addr >> self._page_shift) % self.num_memory_channels
