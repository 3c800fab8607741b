"""Fetch-block streams: the unit of work consumed by the core model."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Tuple

from repro.config.workload import WorkloadConfig

#: (address, is_write) pairs attached to a fetch block.
DataAccess = Tuple[int, bool]

#: Address-space bases for the synthetic layout.  The regions are disjoint
#: so instruction and data blocks never alias.
INSTRUCTION_BASE = 0x1_0000_0000
PRIVATE_DATA_BASE = 0x10_0000_0000
SHARED_DATA_BASE = 0x80_0000_0000

#: Size of the per-core "hot" data region (stack, connection metadata) that
#: fits comfortably in the 32 KB L1-D.
HOT_DATA_BYTES = 16 * 1024
#: Size of the hot instruction region (tight loops) that fits in the L1-I.
HOT_INSTRUCTION_BYTES = 16 * 1024
#: Nominal instruction size used to advance the program counter.
INSTRUCTION_BYTES = 4


@dataclass
class FetchBlock:
    """A run of instructions between taken branches, plus its data accesses."""

    iaddr: int
    n_instructions: int
    data_accesses: List[DataAccess] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.n_instructions < 1:
            raise ValueError("a fetch block must contain at least one instruction")


class WorkloadStream:
    """Interface of per-core workload streams."""

    def next_block(self) -> FetchBlock:
        raise NotImplementedError

    def functional_references(self, count: int):
        """Yield ``(addr, is_instruction, is_write)`` tuples for warm-up."""
        raise NotImplementedError


class SyntheticWorkloadStream(WorkloadStream):
    """Parameterised synthetic stream modelling one core of a scale-out server.

    Instruction addresses walk a multi-megabyte footprint with a mixture of
    sequential fall-through, jumps into a small hot region (tight loops) and
    jumps into cold code; data accesses split between a small per-core hot
    region, a chip-wide shared region (the only source of coherence
    activity), and a vast per-core partition of the dataset with essentially
    no reuse.
    """

    def __init__(
        self,
        config: WorkloadConfig,
        core_id: int,
        num_cores: int,
        seed: int = 0,
        address_offset: int = 0,
    ) -> None:
        if num_cores < 1:
            raise ValueError("num_cores must be >= 1")
        if not 0 <= core_id < num_cores:
            raise ValueError(f"core_id {core_id} out of range for {num_cores} cores")
        if address_offset < 0:
            raise ValueError(f"address_offset must be >= 0, got {address_offset}")
        self.config = config
        self.core_id = core_id
        self.num_cores = num_cores
        self.rng = random.Random((seed * 1_000_003 + core_id * 7919) & 0xFFFFFFFF)

        # All three region bases shift together by ``address_offset``, so
        # co-located tenants (repro.tenancy) live in disjoint address
        # spaces instead of accidentally sharing instruction/shared lines.
        # Offset 0 reproduces the historical layout bit-for-bit.
        self._instruction_base = INSTRUCTION_BASE + address_offset
        self._shared_base = SHARED_DATA_BASE + address_offset
        self._hot_instr_bytes = min(HOT_INSTRUCTION_BYTES, config.instruction_footprint_bytes)
        self._hot_data_bytes = HOT_DATA_BYTES
        self._dataset_per_core = max(
            config.dataset_bytes // num_cores, 16 * self._hot_data_bytes
        )
        self._private_base = (
            PRIVATE_DATA_BASE + address_offset + core_id * self._dataset_per_core
        )
        self._pc = self._instruction_base + self._random_aligned(
            config.instruction_footprint_bytes
        )

    # ------------------------------------------------------------------ #
    # Address helpers
    # ------------------------------------------------------------------ #
    def _random_aligned(self, span: int, alignment: int = INSTRUCTION_BYTES) -> int:
        return (self.rng.randrange(span) // alignment) * alignment

    def _next_instruction_address(self, block_bytes: int) -> int:
        config = self.config
        instruction_base = self._instruction_base
        address = self._pc
        if self.rng.random() < config.jump_probability:
            if self.rng.random() < config.hot_instruction_fraction:
                target = instruction_base + self._random_aligned(self._hot_instr_bytes)
            else:
                target = instruction_base + self._random_aligned(
                    config.instruction_footprint_bytes
                )
            address = target
        self._pc = instruction_base + (
            (address - instruction_base + block_bytes) % config.instruction_footprint_bytes
        )
        return address

    def _next_data_access(self) -> DataAccess:
        config = self.config
        roll = self.rng.random()
        is_write = self.rng.random() < config.write_fraction
        if roll < config.shared_fraction:
            addr = self._shared_base + self.rng.randrange(config.shared_region_bytes)
            return addr, is_write
        if roll < config.shared_fraction + config.data_reuse_fraction:
            addr = self._private_base + self.rng.randrange(self._hot_data_bytes)
            return addr, is_write
        addr = self._private_base + self.rng.randrange(self._dataset_per_core)
        return addr, is_write

    # ------------------------------------------------------------------ #
    # Stream interface
    # ------------------------------------------------------------------ #
    def next_block(self) -> FetchBlock:
        config = self.config
        mean = config.mean_block_instructions
        n_instructions = max(1, int(round(self.rng.expovariate(1.0 / mean))))
        n_instructions = min(n_instructions, int(mean * 4))
        iaddr = self._next_instruction_address(n_instructions * INSTRUCTION_BYTES)

        expected_accesses = config.loads_per_instruction * n_instructions
        n_accesses = int(expected_accesses)
        if self.rng.random() < (expected_accesses - n_accesses):
            n_accesses += 1
        accesses = [self._next_data_access() for _ in range(n_accesses)]
        return FetchBlock(iaddr=iaddr, n_instructions=n_instructions, data_accesses=accesses)

    def functional_references(self, count: int):
        """Yield warm-up references without advancing simulated time."""
        produced = 0
        while produced < count:
            block = self.next_block()
            yield block.iaddr, True, False
            produced += 1
            for addr, is_write in block.data_accesses:
                yield addr, False, is_write
                produced += 1

    # ------------------------------------------------------------------ #
    @property
    def instruction_region(self) -> Tuple[int, int]:
        """(base, size) of the instruction footprint."""
        return self._instruction_base, self.config.instruction_footprint_bytes

    @property
    def shared_region(self) -> Tuple[int, int]:
        """(base, size) of the tenant-wide shared data region."""
        return self._shared_base, self.config.shared_region_bytes
