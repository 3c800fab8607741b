"""Unit tests for the directory controller and coherence protocol."""

import pytest

from repro.cache.address import AddressMapper
from repro.cache.coherence import (
    CacheRequest,
    CoherenceRequestType,
    DirectoryEntry,
    DirectoryState,
    MemoryRequest,
    Response,
    ResponseType,
    SnoopRequest,
    SnoopType,
)
from repro.cache.directory import DirectoryController
from repro.config.cache import CacheConfig
from repro.noc.message import MessageClass
from repro.sim.kernel import Simulator

HOME_NODE = 100
MC_NODE = 200


class Harness:
    """A directory wired to a message recorder instead of a network."""

    def __init__(self, banks=1):
        self.sim = Simulator(seed=0)
        self.sent = []
        mapper = AddressMapper(block_size=64, num_llc_banks=16, num_memory_channels=4)
        self.directory = DirectoryController(
            self.sim,
            "dir",
            node_id=HOME_NODE,
            bank_configs=[CacheConfig(256 * 1024, 16, 64, hit_latency=4)] * banks,
            mapper=mapper,
            send=self.record,
            core_node_for=lambda core: core,  # node id == core id in this harness
            mc_node_for=lambda addr: MC_NODE,
        )

    def record(self, dst, msg_class, payload, carries_data):
        self.sent.append((dst, msg_class, payload, carries_data))

    def gets(self, addr, core, is_instruction=False):
        self.directory.handle_request(
            CacheRequest(CoherenceRequestType.GETS, addr, core, core, is_instruction)
        )

    def getx(self, addr, core):
        self.directory.handle_request(CacheRequest(CoherenceRequestType.GETX, addr, core, core))

    def putm(self, addr, core):
        self.directory.handle_request(CacheRequest(CoherenceRequestType.PUTM, addr, core, core))

    def run(self, cycles=50):
        self.sim.run(cycles)

    def sent_of_type(self, resp_type):
        return [p for _d, _c, p, _dd in self.sent if isinstance(p, Response) and p.resp_type == resp_type]

    def snoops(self):
        return [p for _d, _c, p, _dd in self.sent if isinstance(p, SnoopRequest)]

    def memory_requests(self):
        return [p for _d, _c, p, _dd in self.sent if isinstance(p, MemoryRequest)]


def test_gets_hit_returns_data_and_adds_sharer():
    harness = Harness()
    harness.directory.warm_fill(0x1000)
    harness.gets(0x1000, core=1)
    harness.run()
    data = harness.sent_of_type(ResponseType.DATA)
    assert len(data) == 1
    assert not data[0].grants_exclusive
    entry = harness.directory.entries[0x1000]
    assert entry.state == DirectoryState.SHARED
    assert entry.sharers == {1}


def test_gets_miss_fetches_from_memory():
    harness = Harness()
    harness.gets(0x2000, core=2)
    harness.run()
    assert len(harness.memory_requests()) == 1
    assert not harness.sent_of_type(ResponseType.DATA)
    # Memory responds; the directory then answers the core.
    harness.directory.handle_response(Response(ResponseType.MEM_DATA, 0x2000))
    harness.run()
    assert len(harness.sent_of_type(ResponseType.DATA)) == 1
    assert harness.directory.bank_for(0x2000).probe(0x2000)


def test_getx_grants_exclusive_ownership():
    harness = Harness()
    harness.directory.warm_fill(0x3000)
    harness.getx(0x3000, core=3)
    harness.run()
    data = harness.sent_of_type(ResponseType.DATA)
    assert data and data[0].grants_exclusive
    entry = harness.directory.entries[0x3000]
    assert entry.state == DirectoryState.MODIFIED
    assert entry.owner == 3


def test_getx_invalidates_other_sharers_and_waits_for_acks():
    harness = Harness()
    harness.directory.warm_fill(0x4000, sharer=1)
    harness.directory.warm_fill(0x4000, sharer=2)
    harness.getx(0x4000, core=3)
    harness.run()
    snoops = harness.snoops()
    assert {s.target_core for s in snoops} == {1, 2}
    assert all(s.snoop_type == SnoopType.INVALIDATE for s in snoops)
    assert not harness.sent_of_type(ResponseType.DATA)  # waiting for acks
    harness.directory.handle_response(Response(ResponseType.INV_ACK, 0x4000, target_core=1))
    harness.directory.handle_response(Response(ResponseType.INV_ACK, 0x4000, target_core=2))
    harness.run()
    assert len(harness.sent_of_type(ResponseType.DATA)) == 1
    assert harness.directory.entries[0x4000].owner == 3


def test_gets_to_modified_block_forwards_from_owner():
    harness = Harness()
    harness.directory.warm_fill(0x5000, sharer=7, writable=True)
    harness.gets(0x5000, core=1)
    harness.run()
    snoops = harness.snoops()
    assert len(snoops) == 1
    assert snoops[0].snoop_type == SnoopType.FORWARD
    assert snoops[0].target_core == 7
    harness.directory.handle_response(Response(ResponseType.FWD_DATA, 0x5000, target_core=7))
    harness.run()
    data = harness.sent_of_type(ResponseType.DATA)
    assert len(data) == 1
    entry = harness.directory.entries[0x5000]
    assert entry.state == DirectoryState.SHARED
    assert entry.sharers == {1, 7}


def test_getx_to_modified_block_forward_invalidates_owner():
    harness = Harness()
    harness.directory.warm_fill(0x6000, sharer=7, writable=True)
    harness.getx(0x6000, core=1)
    harness.run()
    snoops = harness.snoops()
    assert snoops[0].snoop_type == SnoopType.FORWARD_INV
    harness.directory.handle_response(Response(ResponseType.FWD_DATA, 0x6000, target_core=7))
    harness.run()
    entry = harness.directory.entries[0x6000]
    assert entry.state == DirectoryState.MODIFIED
    assert entry.owner == 1


def test_owner_rereading_its_own_block_does_not_snoop():
    harness = Harness()
    harness.directory.warm_fill(0x7000, sharer=4, writable=True)
    harness.gets(0x7000, core=4)
    harness.run()
    assert not harness.snoops()
    assert len(harness.sent_of_type(ResponseType.DATA)) == 1


def test_writeback_clears_ownership():
    harness = Harness()
    harness.directory.warm_fill(0x8000, sharer=5, writable=True)
    harness.putm(0x8000, core=5)
    harness.run()
    entry = harness.directory.entries[0x8000]
    assert entry.state == DirectoryState.INVALID
    assert entry.owner is None
    assert harness.directory.writebacks.value == 1


def test_requests_to_same_block_serialize():
    harness = Harness()
    harness.gets(0x9000, core=1)
    harness.gets(0x9000, core=2)
    harness.run()
    # Both are waiting on the same memory fetch; only one was issued.
    assert len(harness.memory_requests()) == 1
    harness.directory.handle_response(Response(ResponseType.MEM_DATA, 0x9000))
    harness.run()
    # First requester answered; the second transaction now proceeds (hit).
    assert len(harness.sent_of_type(ResponseType.DATA)) == 2


def test_snoop_rate_statistic():
    harness = Harness()
    harness.directory.warm_fill(0xA000, sharer=1)
    harness.directory.warm_fill(0xB000)
    harness.getx(0xA000, core=2)  # triggers an invalidation
    harness.gets(0xB000, core=2)  # plain hit
    harness.run()
    harness.directory.handle_response(Response(ResponseType.INV_ACK, 0xA000, target_core=1))
    harness.run()
    assert harness.directory.llc_accesses.value == 2
    assert harness.directory.snoop_triggering_accesses.value == 1
    assert harness.directory.snoop_rate == pytest.approx(0.5)


def test_bank_selection_by_address():
    harness = Harness(banks=2)
    assert harness.directory.bank_for(0 * 64) is harness.directory.banks[0]
    assert harness.directory.bank_for(1 * 64) is harness.directory.banks[1]
    assert harness.directory.bank_for(2 * 64) is harness.directory.banks[0]


def test_stale_response_is_ignored():
    harness = Harness()
    harness.directory.handle_response(Response(ResponseType.INV_ACK, 0xC000, target_core=1))
    assert not harness.sent
    assert 0xC000 not in harness.directory.transactions


def test_bank_conflicts_count_only_accesses_that_queue():
    harness = Harness()  # one bank: every block maps to it
    harness.gets(0x1000, core=1)
    harness.run()
    assert harness.directory.bank_conflicts.value == 0
    harness.gets(0x2000, core=1)
    harness.gets(0x3000, core=2)  # same cycle: waits for the first access
    harness.run()
    assert harness.directory.bank_conflicts.value == 1


def test_reset_statistics_preserves_contents():
    harness = Harness()
    harness.directory.warm_fill(0xD000)
    harness.gets(0xD000, core=1)
    harness.run()
    harness.sim.stats.reset()
    assert harness.directory.llc_accesses.value == 0
    assert harness.directory.bank_for(0xD000).probe(0xD000)


def test_directory_entry_invariants():
    entry = DirectoryEntry(state=DirectoryState.MODIFIED, sharers={1}, owner=1)
    entry.check_invariants()
    bad = DirectoryEntry(state=DirectoryState.MODIFIED, sharers={1, 2}, owner=1)
    with pytest.raises(AssertionError):
        bad.check_invariants()
    empty_m = DirectoryEntry(state=DirectoryState.MODIFIED)
    with pytest.raises(AssertionError):
        empty_m.check_invariants()


def test_request_latency_recorded():
    harness = Harness()
    harness.directory.warm_fill(0xE000)
    harness.gets(0xE000, core=1)
    harness.run()
    assert harness.directory.request_latency.count == 1
    assert harness.directory.request_latency.mean >= 4  # at least the bank latency
