"""Unit tests for the directory controller and coherence protocol."""

import ast
from pathlib import Path

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
    on_complete,
    on_putm,
    on_request,
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


# --------------------------------------------------------------------------- #
# The directory's MSI rules, pinned as a table
# --------------------------------------------------------------------------- #
I, S, M = DirectoryState.INVALID, DirectoryState.SHARED, DirectoryState.MODIFIED
INV, FWD, FWD_INV = SnoopType.INVALIDATE, SnoopType.FORWARD, SnoopType.FORWARD_INV
GETS, GETX, PUTM = CoherenceRequestType.GETS, CoherenceRequestType.GETX, CoherenceRequestType.PUTM

#: Every entry shape of a 3-core directory: I, S with each non-empty sharer
#: subset, and M owned by each core, as ``(state, owner, sorted sharers)``.
ENTRY_SHAPES = (
    [(I, None, ())]
    + [(S, None, sharers) for sharers in ((0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2))]
    + [(M, core, (core,)) for core in range(3)]
)

#: (entry shape, request, requester) -> (snoops sent in order as
#: (type, target), LLC outcome, the DATA's grants_exclusive, final shape).
#: The LLC outcome is "hit", "miss" (an LLC miss and one memory fetch) or
#: None (the LLC is not read). The LLC holds the block unless the entry is I.
#: A PutM is answered with nothing, so it has no DATA (None).
PIN_TABLE = {
    ((I, None, ()), GETS, 0): ([], "miss", False, (S, None, (0,))),
    ((I, None, ()), GETS, 1): ([], "miss", False, (S, None, (1,))),
    ((I, None, ()), GETS, 2): ([], "miss", False, (S, None, (2,))),
    ((I, None, ()), GETX, 0): ([], "miss", True, (M, 0, (0,))),
    ((I, None, ()), GETX, 1): ([], "miss", True, (M, 1, (1,))),
    ((I, None, ()), GETX, 2): ([], "miss", True, (M, 2, (2,))),
    ((I, None, ()), PUTM, 0): ([], None, None, (I, None, ())),
    ((I, None, ()), PUTM, 1): ([], None, None, (I, None, ())),
    ((I, None, ()), PUTM, 2): ([], None, None, (I, None, ())),

    ((S, None, (0,)), GETS, 0): ([], "hit", False, (S, None, (0,))),
    ((S, None, (0,)), GETS, 1): ([], "hit", False, (S, None, (0, 1))),
    ((S, None, (0,)), GETS, 2): ([], "hit", False, (S, None, (0, 2))),
    ((S, None, (0,)), GETX, 0): ([], "hit", True, (M, 0, (0,))),
    ((S, None, (0,)), GETX, 1): ([(INV, 0)], "hit", True, (M, 1, (1,))),
    ((S, None, (0,)), GETX, 2): ([(INV, 0)], "hit", True, (M, 2, (2,))),
    ((S, None, (0,)), PUTM, 0): ([], None, None, (S, None, ())),
    ((S, None, (0,)), PUTM, 1): ([], None, None, (S, None, (0,))),
    ((S, None, (0,)), PUTM, 2): ([], None, None, (S, None, (0,))),

    ((S, None, (1,)), GETS, 0): ([], "hit", False, (S, None, (0, 1))),
    ((S, None, (1,)), GETS, 1): ([], "hit", False, (S, None, (1,))),
    ((S, None, (1,)), GETS, 2): ([], "hit", False, (S, None, (1, 2))),
    ((S, None, (1,)), GETX, 0): ([(INV, 1)], "hit", True, (M, 0, (0,))),
    ((S, None, (1,)), GETX, 1): ([], "hit", True, (M, 1, (1,))),
    ((S, None, (1,)), GETX, 2): ([(INV, 1)], "hit", True, (M, 2, (2,))),
    ((S, None, (1,)), PUTM, 0): ([], None, None, (S, None, (1,))),
    ((S, None, (1,)), PUTM, 1): ([], None, None, (S, None, ())),
    ((S, None, (1,)), PUTM, 2): ([], None, None, (S, None, (1,))),

    ((S, None, (2,)), GETS, 0): ([], "hit", False, (S, None, (0, 2))),
    ((S, None, (2,)), GETS, 1): ([], "hit", False, (S, None, (1, 2))),
    ((S, None, (2,)), GETS, 2): ([], "hit", False, (S, None, (2,))),
    ((S, None, (2,)), GETX, 0): ([(INV, 2)], "hit", True, (M, 0, (0,))),
    ((S, None, (2,)), GETX, 1): ([(INV, 2)], "hit", True, (M, 1, (1,))),
    ((S, None, (2,)), GETX, 2): ([], "hit", True, (M, 2, (2,))),
    ((S, None, (2,)), PUTM, 0): ([], None, None, (S, None, (2,))),
    ((S, None, (2,)), PUTM, 1): ([], None, None, (S, None, (2,))),
    ((S, None, (2,)), PUTM, 2): ([], None, None, (S, None, ())),

    ((S, None, (0, 1)), GETS, 0): ([], "hit", False, (S, None, (0, 1))),
    ((S, None, (0, 1)), GETS, 1): ([], "hit", False, (S, None, (0, 1))),
    ((S, None, (0, 1)), GETS, 2): ([], "hit", False, (S, None, (0, 1, 2))),
    ((S, None, (0, 1)), GETX, 0): ([(INV, 1)], "hit", True, (M, 0, (0,))),
    ((S, None, (0, 1)), GETX, 1): ([(INV, 0)], "hit", True, (M, 1, (1,))),
    ((S, None, (0, 1)), GETX, 2): ([(INV, 0), (INV, 1)], "hit", True, (M, 2, (2,))),
    ((S, None, (0, 1)), PUTM, 0): ([], None, None, (S, None, (1,))),
    ((S, None, (0, 1)), PUTM, 1): ([], None, None, (S, None, (0,))),
    ((S, None, (0, 1)), PUTM, 2): ([], None, None, (S, None, (0, 1))),

    ((S, None, (0, 2)), GETS, 0): ([], "hit", False, (S, None, (0, 2))),
    ((S, None, (0, 2)), GETS, 1): ([], "hit", False, (S, None, (0, 1, 2))),
    ((S, None, (0, 2)), GETS, 2): ([], "hit", False, (S, None, (0, 2))),
    ((S, None, (0, 2)), GETX, 0): ([(INV, 2)], "hit", True, (M, 0, (0,))),
    ((S, None, (0, 2)), GETX, 1): ([(INV, 0), (INV, 2)], "hit", True, (M, 1, (1,))),
    ((S, None, (0, 2)), GETX, 2): ([(INV, 0)], "hit", True, (M, 2, (2,))),
    ((S, None, (0, 2)), PUTM, 0): ([], None, None, (S, None, (2,))),
    ((S, None, (0, 2)), PUTM, 1): ([], None, None, (S, None, (0, 2))),
    ((S, None, (0, 2)), PUTM, 2): ([], None, None, (S, None, (0,))),

    ((S, None, (1, 2)), GETS, 0): ([], "hit", False, (S, None, (0, 1, 2))),
    ((S, None, (1, 2)), GETS, 1): ([], "hit", False, (S, None, (1, 2))),
    ((S, None, (1, 2)), GETS, 2): ([], "hit", False, (S, None, (1, 2))),
    ((S, None, (1, 2)), GETX, 0): ([(INV, 1), (INV, 2)], "hit", True, (M, 0, (0,))),
    ((S, None, (1, 2)), GETX, 1): ([(INV, 2)], "hit", True, (M, 1, (1,))),
    ((S, None, (1, 2)), GETX, 2): ([(INV, 1)], "hit", True, (M, 2, (2,))),
    ((S, None, (1, 2)), PUTM, 0): ([], None, None, (S, None, (1, 2))),
    ((S, None, (1, 2)), PUTM, 1): ([], None, None, (S, None, (2,))),
    ((S, None, (1, 2)), PUTM, 2): ([], None, None, (S, None, (1,))),

    ((S, None, (0, 1, 2)), GETS, 0): ([], "hit", False, (S, None, (0, 1, 2))),
    ((S, None, (0, 1, 2)), GETS, 1): ([], "hit", False, (S, None, (0, 1, 2))),
    ((S, None, (0, 1, 2)), GETS, 2): ([], "hit", False, (S, None, (0, 1, 2))),
    ((S, None, (0, 1, 2)), GETX, 0): ([(INV, 1), (INV, 2)], "hit", True, (M, 0, (0,))),
    ((S, None, (0, 1, 2)), GETX, 1): ([(INV, 0), (INV, 2)], "hit", True, (M, 1, (1,))),
    ((S, None, (0, 1, 2)), GETX, 2): ([(INV, 0), (INV, 1)], "hit", True, (M, 2, (2,))),
    ((S, None, (0, 1, 2)), PUTM, 0): ([], None, None, (S, None, (1, 2))),
    ((S, None, (0, 1, 2)), PUTM, 1): ([], None, None, (S, None, (0, 2))),
    ((S, None, (0, 1, 2)), PUTM, 2): ([], None, None, (S, None, (0, 1))),

    ((M, 0, (0,)), GETS, 0): ([], "hit", False, (M, 0, (0,))),
    ((M, 0, (0,)), GETS, 1): ([(FWD, 0)], None, False, (S, None, (0, 1))),
    ((M, 0, (0,)), GETS, 2): ([(FWD, 0)], None, False, (S, None, (0, 2))),
    ((M, 0, (0,)), GETX, 0): ([], "hit", True, (M, 0, (0,))),
    ((M, 0, (0,)), GETX, 1): ([(FWD_INV, 0)], None, True, (M, 1, (1,))),
    ((M, 0, (0,)), GETX, 2): ([(FWD_INV, 0)], None, True, (M, 2, (2,))),
    ((M, 0, (0,)), PUTM, 0): ([], None, None, (I, None, ())),
    ((M, 0, (0,)), PUTM, 1): ([], None, None, (M, 0, (0,))),
    ((M, 0, (0,)), PUTM, 2): ([], None, None, (M, 0, (0,))),

    ((M, 1, (1,)), GETS, 0): ([(FWD, 1)], None, False, (S, None, (0, 1))),
    ((M, 1, (1,)), GETS, 1): ([], "hit", False, (M, 1, (1,))),
    ((M, 1, (1,)), GETS, 2): ([(FWD, 1)], None, False, (S, None, (1, 2))),
    ((M, 1, (1,)), GETX, 0): ([(FWD_INV, 1)], None, True, (M, 0, (0,))),
    ((M, 1, (1,)), GETX, 1): ([], "hit", True, (M, 1, (1,))),
    ((M, 1, (1,)), GETX, 2): ([(FWD_INV, 1)], None, True, (M, 2, (2,))),
    ((M, 1, (1,)), PUTM, 0): ([], None, None, (M, 1, (1,))),
    ((M, 1, (1,)), PUTM, 1): ([], None, None, (I, None, ())),
    ((M, 1, (1,)), PUTM, 2): ([], None, None, (M, 1, (1,))),

    ((M, 2, (2,)), GETS, 0): ([(FWD, 2)], None, False, (S, None, (0, 2))),
    ((M, 2, (2,)), GETS, 1): ([(FWD, 2)], None, False, (S, None, (1, 2))),
    ((M, 2, (2,)), GETS, 2): ([], "hit", False, (M, 2, (2,))),
    ((M, 2, (2,)), GETX, 0): ([(FWD_INV, 2)], None, True, (M, 0, (0,))),
    ((M, 2, (2,)), GETX, 1): ([(FWD_INV, 2)], None, True, (M, 1, (1,))),
    ((M, 2, (2,)), GETX, 2): ([], "hit", True, (M, 2, (2,))),
    ((M, 2, (2,)), PUTM, 0): ([], None, None, (M, 2, (2,))),
    ((M, 2, (2,)), PUTM, 1): ([], None, None, (M, 2, (2,))),
    ((M, 2, (2,)), PUTM, 2): ([], None, None, (I, None, ())),
}


def _drive(shape, req_type, requester, addr=0x40):
    """Run one request against a directory entry of ``shape``, answering every
    snoop and memory fetch, and return what the table records."""
    harness = Harness()
    directory = harness.directory
    state, owner, sharers = shape
    if state is not I:
        directory.warm_fill(addr)  # LLC contents only: no sharer
    directory.entries[addr] = DirectoryEntry(state=state, sharers=set(sharers), owner=owner)
    directory.handle_request(CacheRequest(req_type, addr, requester, requester))
    answered = 0
    while True:
        harness.run()
        pending, answered = harness.sent[answered:], len(harness.sent)
        if not pending:
            break
        for _dst, _cls, payload, _data in pending:
            if isinstance(payload, SnoopRequest):
                kind = ResponseType.INV_ACK if payload.snoop_type is INV else ResponseType.FWD_DATA
                directory.handle_response(Response(kind, addr, target_core=payload.target_core))
            elif isinstance(payload, MemoryRequest):
                directory.handle_response(Response(ResponseType.MEM_DATA, addr))

    assert directory.llc_accesses.value == (req_type is not PUTM)
    assert directory.writebacks.value == (req_type is PUTM)
    assert directory.llc_hits.value + directory.llc_misses.value <= 1
    assert directory.memory_fetches.value == len(harness.memory_requests()) == directory.llc_misses.value
    llc = "hit" if directory.llc_hits.value else "miss" if directory.llc_misses.value else None
    data = harness.sent_of_type(ResponseType.DATA)
    assert len(data) == (req_type is not PUTM)
    assert all(response.target_core == requester for response in data)
    entry = directory.entries[addr]
    return (
        [(snoop.snoop_type, snoop.target_core) for snoop in harness.snoops()],
        llc,
        data[0].grants_exclusive if data else None,
        (entry.state, entry.owner, tuple(sorted(entry.sharers))),
    )


def test_pin_table_covers_every_input():
    assert set(PIN_TABLE) == {
        (shape, req_type, requester)
        for shape in ENTRY_SHAPES
        for req_type in (GETS, GETX, PUTM)
        for requester in range(3)
    }


@pytest.mark.parametrize(
    "case",
    list(PIN_TABLE),
    ids=lambda case: f"{case[0][0].value}{''.join(map(str, case[0][2]))}-{case[1].value}-{case[2]}",
)
def test_directory_follows_pin_table(case):
    assert _drive(*case) == PIN_TABLE[case]


def _shape(entry):
    return (entry.state, entry.owner, tuple(sorted(entry.sharers)))


def test_rule_functions_follow_pin_table():
    for case, (snoops, _llc, _grants, final) in PIN_TABLE.items():
        shape, req_type, requester = case
        state, owner, sharers = shape
        entry = DirectoryEntry(state=state, sharers=set(sharers), owner=owner)
        if req_type is PUTM:
            on_putm(entry, requester)
        else:
            is_write = req_type is GETX
            snoop_type, targets = on_request(entry, is_write, requester)
            assert _shape(entry) == shape, case  # a request only reads the entry
            assert [(snoop_type, target) for target in targets] == snoops, case
            forward = snoop_type is FWD or snoop_type is FWD_INV
            if forward:
                assert targets == [owner] != [requester], case
            if not is_write:
                assert snoop_type is not INV, case
            on_complete(entry, is_write, requester, targets[0] if forward else None)
            assert requester in entry.sharers, case
        entry.check_invariants()
        assert _shape(entry) == final, case


def test_putm_racing_a_forward_leaves_the_evicted_owner_a_sharer():
    # The PutM is applied at once, while the forward is in flight; the owner
    # still answers FwdData, and completion lists it as a sharer again.
    harness = Harness()
    harness.directory.entries[0x40] = DirectoryEntry(state=M, sharers={7}, owner=7)
    harness.gets(0x40, core=1)
    harness.run()
    assert [(s.snoop_type, s.target_core) for s in harness.snoops()] == [(FWD, 7)]
    harness.putm(0x40, core=7)
    assert _shape(harness.directory.entries[0x40]) == (I, None, ())
    harness.directory.handle_response(Response(ResponseType.FWD_DATA, 0x40, target_core=7))
    assert _shape(harness.directory.entries[0x40]) == (S, None, (1, 7))


SRC = Path(__file__).resolve().parents[1] / "src"


def _state_assignments(source):
    """Line numbers where ``DirectoryState.<member>`` is assigned or passed by keyword."""

    def is_member(node):
        if isinstance(node, ast.IfExp):
            return is_member(node.body) or is_member(node.orelse)
        return (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "DirectoryState"
        )

    return [
        node.value.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign, ast.NamedExpr, ast.keyword))
        and node.value is not None
        and is_member(node.value)
    ]


def test_only_coherence_module_assigns_directory_states():
    rules = SRC / "repro" / "cache" / "coherence.py"
    assert _state_assignments(rules.read_text())  # the check sees the rules' own assignments
    offenders = [
        f"{path.relative_to(SRC)}:{line}"
        for path in sorted(SRC.rglob("*.py"))
        if path != rules
        for line in _state_assignments(path.read_text())
    ]
    assert not offenders, f"directory states are assigned outside cache/coherence.py: {offenders}"


_COMPARISONS = (ast.Eq, ast.NotEq, ast.Is, ast.IsNot, ast.In, ast.NotIn)


def _snoop_comparisons(source):
    """Line numbers where a value is compared with a ``SnoopType.<member>``
    (``==``, ``!=``, ``is``, ``is not``, or ``in`` a literal holding one)."""

    def is_member(node):
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return any(is_member(element) for element in node.elts)
        return (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "SnoopType"
        )

    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Compare)
        and any(isinstance(op, _COMPARISONS) for op in node.ops)
        and any(is_member(operand) for operand in [node.left, *node.comparators])
    ]


def test_only_coherence_module_compares_snoop_types():
    rules = SRC / "repro" / "cache" / "coherence.py"
    assert _snoop_comparisons(rules.read_text())  # the check sees the rules' own comparisons
    offenders = [
        f"{path.relative_to(SRC)}:{line}"
        for path in sorted(SRC.rglob("*.py"))
        if path != rules
        for line in _snoop_comparisons(path.read_text())
    ]
    assert not offenders, f"snoop types are compared outside cache/coherence.py: {offenders}"


def test_snoop_comparison_check_sees_every_operator():
    source = """
snoop.snoop_type == SnoopType.INVALIDATE
SnoopType.FORWARD != kind
kind is SnoopType.FORWARD_INV
kind is not SnoopType.INVALIDATE
kind in (SnoopType.FORWARD, SnoopType.FORWARD_INV)
kind not in {SnoopType.INVALIDATE}
kind < SnoopType.FORWARD
"""
    assert _snoop_comparisons(source) == [2, 3, 4, 5, 6, 7]
