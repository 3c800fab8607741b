"""Unit tests for the synthetic workload streams and traffic generators."""

import pytest

from repro.config import presets
from repro.config.workload import WorkloadConfig
from repro.workloads.base import (
    INSTRUCTION_BASE,
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


class TestCloudsuiteStreams:
    def test_make_stream_uses_preset(self):
        stream = make_stream(presets.workload("Web Search"), 0, 16)
        assert stream.config.name == "Web Search"

    def test_workload_streams_respects_scalability_limit(self):
        streams = workload_streams(presets.workload("Web Search"), 64)
        assert len(streams) == 16
        streams = workload_streams(presets.workload("Data Serving"), 64)
        assert len(streams) == 64
