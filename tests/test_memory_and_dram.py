"""Unit tests for the DRAM channel model and memory controller."""

import pytest

from repro.cache.coherence import MemoryRequest, Response, ResponseType
from repro.cache.dram import DramChannel
from repro.cache.memory_controller import MemoryController
from repro.config.cache import CacheHierarchyConfig
from repro.noc.message import MessageClass
from repro.sim.kernel import Simulator


class TestDramChannel:
    def test_single_access_latency(self):
        channel = DramChannel(latency_cycles=120, occupancy_cycles=8)
        assert channel.schedule(now=0) == 120

    def test_back_to_back_accesses_queue_on_bandwidth(self):
        channel = DramChannel(latency_cycles=120, occupancy_cycles=8)
        first = channel.schedule(0)
        second = channel.schedule(0)
        assert second == first + 8
        assert channel.free_at == 16

    def test_idle_gaps_do_not_queue(self):
        channel = DramChannel(latency_cycles=100, occupancy_cycles=8)
        channel.schedule(0)
        completion = channel.schedule(1000)
        assert completion == 1100
        assert channel.free_at == 1008

    def test_request_count(self):
        channel = DramChannel(latency_cycles=10, occupancy_cycles=2)
        assert [channel.schedule(0) for _ in range(5)] == [10, 12, 14, 16, 18]

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            DramChannel(0, 8)
        with pytest.raises(ValueError):
            DramChannel(10, 0)


class TestMemoryController:
    def build(self):
        sim = Simulator()
        sent = []
        controller = MemoryController(
            sim,
            "mc0",
            node_id=70,
            config=CacheHierarchyConfig(),
            send=lambda dst, cls, payload, data: sent.append((dst, cls, payload, data)),
        )
        return sim, controller, sent

    def test_fill_request_produces_mem_data_response(self):
        sim, controller, sent = self.build()
        controller.handle_memory_request(MemoryRequest(addr=0x1000, home_node=12))
        sim.run(500)
        assert len(sent) == 1
        dst, msg_class, payload, carries_data = sent[0]
        assert dst == 12
        assert msg_class == MessageClass.RESPONSE
        assert payload.resp_type == ResponseType.MEM_DATA
        assert payload.addr == 0x1000
        assert carries_data

    def test_latency_matches_dram_model(self):
        sim, controller, sent = self.build()
        controller.handle_memory_request(MemoryRequest(addr=0x1000, home_node=12))
        sim.run(CacheHierarchyConfig().dram_latency_cycles - 1)
        assert not sent
        sim.run(5)
        assert sent

    def test_statistics(self):
        sim, controller, _ = self.build()
        for i in range(3):
            controller.handle_memory_request(MemoryRequest(addr=0x1000 + i * 64, home_node=1))
        sim.run(1000)
        assert controller.requests_serviced.value == 3
        assert controller.read_latency.count == 3
        assert controller.read_latency.mean >= CacheHierarchyConfig().dram_latency_cycles
