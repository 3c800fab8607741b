"""Unit tests for the synthetic workload streams and traffic generators."""

import random

import pytest

from repro.config import presets
from repro.config.workload import WorkloadConfig
from repro.workloads.base import (
    HOT_DATA_BYTES,
    HOT_INSTRUCTION_BYTES,
    INSTRUCTION_BASE,
    INSTRUCTION_BYTES,
    SHARED_DATA_BASE,
    FetchBlock,
    SyntheticWorkloadStream,
)
from repro.workloads.cloudsuite import make_stream, workload_streams
from tests._fixtures import private_region


def small_workload(**overrides):
    params = dict(
        name="w",
        instruction_footprint_bytes=256 * 1024,
        dataset_bytes=64 * 1024 * 1024,
        shared_region_bytes=16 * 1024,
        shared_fraction=0.05,
        data_reuse_fraction=0.8,
        loads_per_instruction=0.3,
    )
    params.update(overrides)
    return WorkloadConfig(**params)


class TestFetchBlock:
    def test_requires_at_least_one_instruction(self):
        with pytest.raises(ValueError):
            FetchBlock(iaddr=0x1000, n_instructions=0)


class TestSyntheticWorkloadStream:
    def test_deterministic_for_same_seed(self):
        a = SyntheticWorkloadStream(small_workload(), 0, 4, seed=9)
        b = SyntheticWorkloadStream(small_workload(), 0, 4, seed=9)
        for _ in range(50):
            block_a, block_b = a.next_block(), b.next_block()
            assert block_a.iaddr == block_b.iaddr
            assert block_a.data_accesses == block_b.data_accesses

    def test_different_cores_produce_different_streams(self):
        a = SyntheticWorkloadStream(small_workload(), 0, 4, seed=9)
        b = SyntheticWorkloadStream(small_workload(), 1, 4, seed=9)
        assert [blk.iaddr for blk in (a.next_block() for _ in range(20))] != [
            blk.iaddr for blk in (b.next_block() for _ in range(20))
        ]

    def test_instruction_addresses_stay_in_footprint(self):
        stream = SyntheticWorkloadStream(small_workload(), 0, 4, seed=1)
        base, size = stream.instruction_region
        for _ in range(500):
            block = stream.next_block()
            assert base <= block.iaddr < base + size

    def test_data_addresses_stay_in_declared_regions(self):
        stream = SyntheticWorkloadStream(small_workload(), 2, 4, seed=1)
        private_base, private_size = private_region(stream.config, 2, 4)
        shared_base, shared_size = stream.shared_region
        for _ in range(500):
            for addr, _write in stream.next_block().data_accesses:
                in_private = private_base <= addr < private_base + private_size
                in_shared = shared_base <= addr < shared_base + shared_size
                assert in_private or in_shared

    def test_private_regions_do_not_overlap_between_cores(self):
        config = small_workload()
        regions = [private_region(config, c, 4) for c in range(4)]
        for (base, size), (next_base, _size) in zip(regions, regions[1:]):
            assert base + size <= next_base
        for core, (base, size) in enumerate(regions):
            stream = SyntheticWorkloadStream(config, core, 4, seed=1)
            shared_base, shared_size = stream.shared_region
            for _ in range(300):
                for addr, _write in stream.next_block().data_accesses:
                    if not shared_base <= addr < shared_base + shared_size:
                        assert base <= addr < base + size

    def test_block_sizes_are_positive_and_bounded(self):
        stream = SyntheticWorkloadStream(small_workload(), 0, 4, seed=3)
        for _ in range(300):
            block = stream.next_block()
            assert 1 <= block.n_instructions <= 4 * small_workload().mean_block_instructions

    def test_mean_data_accesses_matches_load_rate(self):
        stream = SyntheticWorkloadStream(small_workload(), 0, 4, seed=3)
        instructions = 0
        accesses = 0
        for _ in range(2000):
            block = stream.next_block()
            instructions += block.n_instructions
            accesses += len(block.data_accesses)
        assert accesses / instructions == pytest.approx(0.3, rel=0.15)

    def test_write_fraction_roughly_respected(self):
        stream = SyntheticWorkloadStream(small_workload(write_fraction=0.5), 0, 4, seed=3)
        writes = total = 0
        for _ in range(2000):
            for _addr, is_write in stream.next_block().data_accesses:
                total += 1
                writes += is_write
        assert writes / total == pytest.approx(0.5, abs=0.05)

    def test_functional_references_cover_instruction_and_data(self):
        stream = SyntheticWorkloadStream(small_workload(), 0, 4, seed=3)
        refs = list(stream.functional_references(200))
        assert len(refs) >= 200
        assert any(is_instr for _a, is_instr, _w in refs)
        assert any(not is_instr for _a, is_instr, _w in refs)
        assert all(a >= INSTRUCTION_BASE for a, is_instr, _w in refs if is_instr)

    def test_shared_region_is_chip_wide(self):
        a = SyntheticWorkloadStream(small_workload(), 0, 4, seed=1)
        b = SyntheticWorkloadStream(small_workload(), 3, 4, seed=1)
        assert a.shared_region == b.shared_region
        assert a.shared_region[0] == SHARED_DATA_BASE

    def test_invalid_core_id_rejected(self):
        with pytest.raises(ValueError):
            SyntheticWorkloadStream(small_workload(), 5, 4)

    def test_empty_shared_region_rejected_only_when_drawn_from(self):
        with pytest.raises(ValueError, match="shared_region_bytes"):
            SyntheticWorkloadStream(small_workload(shared_region_bytes=0), 0, 4)
        stream = SyntheticWorkloadStream(
            small_workload(shared_fraction=0.0, shared_region_bytes=0), 0, 4
        )
        assert len(list(stream.functional_references(500))) >= 500

    def test_mean_too_small_for_one_instruction_rejected(self):
        with pytest.raises(ValueError, match="mean_block_instructions"):
            SyntheticWorkloadStream(small_workload(mean_block_instructions=0.2), 0, 4)
        SyntheticWorkloadStream(small_workload(mean_block_instructions=0.25), 0, 4)


class ReferenceStream:
    """The stream as written with ``randrange`` and ``expovariate`` calls.

    ``SyntheticWorkloadStream`` inlines both library draws for speed; this
    is the straightforward form it must match draw for draw.  A CPython
    release that changes either library function shows up as a mismatch.
    """

    def __init__(self, config, core_id, num_cores, seed=0, address_offset=0):
        self.config = config
        self.rng = random.Random((seed * 1_000_003 + core_id * 7919) & 0xFFFFFFFF)
        self._instruction_base = INSTRUCTION_BASE + address_offset
        self._shared_base = SHARED_DATA_BASE + address_offset
        self._hot_instr_bytes = min(HOT_INSTRUCTION_BYTES, config.instruction_footprint_bytes)
        private_base, self._dataset_per_core = private_region(config, core_id, num_cores)
        self._private_base = private_base + address_offset
        self._pc = self._instruction_base + self._random_aligned(
            config.instruction_footprint_bytes
        )
        self.capped_blocks = 0

    def _random_aligned(self, span):
        return (self.rng.randrange(span) // INSTRUCTION_BYTES) * INSTRUCTION_BYTES

    def _next_instruction_address(self, block_bytes):
        config = self.config
        address = self._pc
        if self.rng.random() < config.jump_probability:
            if self.rng.random() < config.hot_instruction_fraction:
                span = self._hot_instr_bytes
            else:
                span = config.instruction_footprint_bytes
            address = self._instruction_base + self._random_aligned(span)
        self._pc = self._instruction_base + (
            (address - self._instruction_base + block_bytes)
            % config.instruction_footprint_bytes
        )
        return address

    def _next_data_access(self):
        config = self.config
        roll = self.rng.random()
        is_write = self.rng.random() < config.write_fraction
        if roll < config.shared_fraction:
            return self._shared_base + self.rng.randrange(config.shared_region_bytes), is_write
        if roll < config.shared_fraction + config.data_reuse_fraction:
            return self._private_base + self.rng.randrange(HOT_DATA_BYTES), is_write
        return self._private_base + self.rng.randrange(self._dataset_per_core), is_write

    def next_block(self):
        config = self.config
        mean = config.mean_block_instructions
        n_instructions = max(1, int(round(self.rng.expovariate(1.0 / mean))))
        if n_instructions > int(mean * 4):
            self.capped_blocks += 1
        n_instructions = min(n_instructions, int(mean * 4))
        iaddr = self._next_instruction_address(n_instructions * INSTRUCTION_BYTES)
        expected_accesses = config.loads_per_instruction * n_instructions
        n_accesses = int(expected_accesses)
        if self.rng.random() < (expected_accesses - n_accesses):
            n_accesses += 1
        accesses = [self._next_data_access() for _ in range(n_accesses)]
        return FetchBlock(iaddr=iaddr, n_instructions=n_instructions, data_accesses=accesses)

    def functional_references(self, count):
        produced = 0
        while produced < count:
            block = self.next_block()
            yield block.iaddr, True, False
            produced += 1
            for addr, is_write in block.data_accesses:
                yield addr, False, is_write
                produced += 1


#: Every preset, plus a config with short blocks whose ``int(mean * 4)`` cap
#: fires often and a fractional access count on every block.
ORACLE_CONFIGS = {
    **{name: factory() for name, factory in presets.WORKLOADS.items()},
    "capped": small_workload(
        name="capped", mean_block_instructions=1.3, loads_per_instruction=0.7
    ),
}


class TestStreamOracle:
    @pytest.mark.parametrize("address_offset", [0, 1 << 40])
    @pytest.mark.parametrize("core_id", [0, 17, 63])
    @pytest.mark.parametrize("seed", [0, 42, 1042])
    @pytest.mark.parametrize("name", sorted(ORACLE_CONFIGS))
    def test_matches_library_draws(self, name, seed, core_id, address_offset):
        config = ORACLE_CONFIGS[name]
        stream = SyntheticWorkloadStream(config, core_id, 64, seed, address_offset)
        reference = ReferenceStream(config, core_id, 64, seed, address_offset)
        for _ in range(200):
            assert stream.next_block() == reference.next_block()
        assert list(stream.functional_references(3000)) == list(
            reference.functional_references(3000)
        )
        assert stream.rng.getstate() == reference.rng.getstate()
        assert stream._pc == reference._pc
        if name == "capped":
            assert reference.capped_blocks > 0


class TestCloudsuiteStreams:
    def test_make_stream_uses_preset(self):
        stream = make_stream(presets.workload("Web Search"), 0, 16)
        assert stream.config.name == "Web Search"

    def test_workload_streams_respects_scalability_limit(self):
        streams = workload_streams(presets.workload("Web Search"), 64)
        assert len(streams) == 16
        streams = workload_streams(presets.workload("Data Serving"), 64)
        assert len(streams) == 64
