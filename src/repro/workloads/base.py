"""Fetch-block streams: the unit of work consumed by the core model."""

from __future__ import annotations

import hashlib
import random
from array import array
from dataclasses import dataclass, field
from math import log
from typing import List, Optional, Tuple

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
        # The inlined draws below would spin forever on an empty range and
        # build zero-instruction blocks from a sub-quarter mean, so refuse
        # both here rather than mid-stream.
        if config.shared_fraction > 0 and config.shared_region_bytes < 1:
            raise ValueError(
                "a stream with shared accesses needs shared_region_bytes >= 1, "
                f"got {config.shared_region_bytes}"
            )
        if config.mean_block_instructions < 0.25:
            raise ValueError(
                "mean_block_instructions must be >= 0.25 so a block holds an "
                f"instruction, got {config.mean_block_instructions}"
            )
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
        # The block draw below inlines ``randrange`` and ``expovariate``;
        # the per-stream constants they need are computed once here.
        self._lambd = 1.0 / config.mean_block_instructions
        self._max_block = int(config.mean_block_instructions * 4)
        self._reuse_cutoff = config.shared_fraction + config.data_reuse_fraction
        self._pc = self._instruction_base + (
            self.rng.randrange(config.instruction_footprint_bytes) // INSTRUCTION_BYTES
        ) * INSTRUCTION_BYTES

    # ------------------------------------------------------------------ #
    # Stream interface
    # ------------------------------------------------------------------ #
    def _draw_block(self) -> Tuple[int, int, List[DataAccess]]:
        """Draw one fetch block as ``(iaddr, n_instructions, accesses)``.

        Makes exactly the RNG calls, in the same order and with the same
        arithmetic, as ``expovariate(1 / mean)`` for the block length,
        ``random()`` for the jump rolls, ``randrange(span)`` for jump
        targets, ``random()`` for the access-count roll, and per access
        ``random()``, ``random()`` and ``randrange(span)``.  Each
        ``randrange(n)`` is CPython's own rejection loop over
        ``getrandbits(n.bit_length())``, and ``expovariate`` is
        ``-log(1 - random()) / lambd``, so every stream, and the final RNG
        state, is identical to the library calls.
        """
        config = self.config
        random = self.rng.random
        getrandbits = self.rng.getrandbits

        n_instructions = int(round(-log(1.0 - random()) / self._lambd))
        if n_instructions < 1:
            n_instructions = 1
        if n_instructions > self._max_block:
            n_instructions = self._max_block

        instruction_base = self._instruction_base
        footprint = config.instruction_footprint_bytes
        iaddr = self._pc
        if random() < config.jump_probability:
            span = (
                self._hot_instr_bytes
                if random() < config.hot_instruction_fraction
                else footprint
            )
            k = span.bit_length()
            r = getrandbits(k)
            while r >= span:
                r = getrandbits(k)
            iaddr = instruction_base + (r // INSTRUCTION_BYTES) * INSTRUCTION_BYTES
        self._pc = instruction_base + (
            (iaddr - instruction_base + n_instructions * INSTRUCTION_BYTES) % footprint
        )

        expected_accesses = config.loads_per_instruction * n_instructions
        n_accesses = int(expected_accesses)
        if random() < (expected_accesses - n_accesses):
            n_accesses += 1
        accesses = []
        shared_fraction = config.shared_fraction
        reuse_cutoff = self._reuse_cutoff
        write_fraction = config.write_fraction
        private_base = self._private_base
        for _ in range(n_accesses):
            roll = random()
            is_write = random() < write_fraction
            if roll < shared_fraction:
                base = self._shared_base
                span = config.shared_region_bytes
            elif roll < reuse_cutoff:
                base = private_base
                span = self._hot_data_bytes
            else:
                base = private_base
                span = self._dataset_per_core
            k = span.bit_length()
            r = getrandbits(k)
            while r >= span:
                r = getrandbits(k)
            accesses.append((base + r, is_write))
        return iaddr, n_instructions, accesses

    def next_block(self) -> FetchBlock:
        iaddr, n_instructions, accesses = self._draw_block()
        return FetchBlock(iaddr=iaddr, n_instructions=n_instructions, data_accesses=accesses)

    def functional_references(self, count: int):
        """Yield warm-up references without advancing simulated time."""
        draw_block = self._draw_block
        produced = 0
        while produced < count:
            iaddr, _n_instructions, accesses = draw_block()
            yield iaddr, True, False
            for addr, is_write in accesses:
                yield addr, False, is_write
            produced += 1 + len(accesses)

    # ------------------------------------------------------------------ #
    def identity(self) -> tuple:
        """Everything the stream's next draws depend on, as a hashable key.

        Two streams with equal identities draw identical blocks from here
        on: the key holds the config, rank, core count and region bases
        that fix the address layout, the program counter, and a 128-bit
        digest of the RNG state.
        """
        _version, words, gauss_next = self.rng.getstate()
        return (
            self.config,
            self.core_id,
            self.num_cores,
            self._instruction_base,
            self._shared_base,
            self._private_base,
            self._pc,
            gauss_next,
            hashlib.blake2b(array("I", words).tobytes(), digest_size=16).digest(),
        )

    def packed_state(self) -> tuple:
        """The stream's mutable state: ``(RNG words, gauss_next, pc)``.

        The 624 Mersenne-Twister words plus their index are packed in an
        ``array('I')``; :meth:`restore` puts the state back.
        """
        _version, words, gauss_next = self.rng.getstate()
        return array("I", words), gauss_next, self._pc

    def restore(self, words: array, gauss_next: Optional[float], pc: int) -> None:
        """Resume from a :meth:`packed_state`, exactly as the stream left it."""
        self.rng.setstate((self.rng.VERSION, tuple(words), gauss_next))
        self._pc = pc

    @property
    def instruction_region(self) -> Tuple[int, int]:
        """(base, size) of the instruction footprint."""
        return self._instruction_base, self.config.instruction_footprint_bytes

    @property
    def shared_region(self) -> Tuple[int, int]:
        """(base, size) of the tenant-wide shared data region."""
        return self._shared_base, self.config.shared_region_bytes
