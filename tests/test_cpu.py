"""Unit tests for the core timing model and core node protocol glue."""

import pytest

from repro.cache.coherence import (
    CoherenceRequestType,
    Response,
    ResponseType,
    SnoopRequest,
    SnoopType,
    on_evict,
    on_snoop,
)
from repro.cache.set_assoc import CacheLineState
from repro.config.system import SystemConfig
from repro.config.workload import WorkloadConfig
from repro.cpu.core_node import CoreNode
from repro.noc.message import MessageClass
from repro.sim.kernel import Simulator
from repro.workloads.base import FetchBlock, WorkloadStream


class ScriptedStream(WorkloadStream):
    """A workload stream that replays a fixed list of fetch blocks."""

    def __init__(self, blocks):
        self.blocks = list(blocks)
        self.index = 0

    def next_block(self):
        block = self.blocks[self.index % len(self.blocks)]
        self.index += 1
        return block

    def functional_references(self, count):
        return iter(())


HOME = 40


def build_core(blocks, mlp=2):
    sim = Simulator(seed=0)
    sent = []
    workload = WorkloadConfig(name="scripted", mlp=mlp, issue_width=3)
    config = SystemConfig(num_cores=16, seed=0)
    node = CoreNode(
        sim,
        "core0",
        core_id=0,
        node_id=0,
        config=config,
        workload=workload,
        stream=ScriptedStream(blocks),
        send=lambda dst, cls, payload, data: sent.append((dst, cls, payload, data)),
        home_node_for=lambda addr: HOME,
    )
    return sim, node, sent


def data_response(addr, is_instruction=False, exclusive=False):
    return Response(
        ResponseType.DATA,
        addr,
        target_core=0,
        is_instruction=is_instruction,
        grants_exclusive=exclusive,
    )


def requests_of(sent, req_type):
    return [p for _d, _c, p, _dd in sent if getattr(p, "req_type", None) == req_type]


class TestCoreModel:
    def test_ifetch_miss_stalls_until_fill(self):
        block = FetchBlock(iaddr=0x1000, n_instructions=9, data_accesses=[])
        sim, node, sent = build_core([block])
        node.core.start()
        sim.run(20)
        # The core is stalled: one GETS for the instruction line, nothing committed.
        gets = requests_of(sent, CoherenceRequestType.GETS)
        assert len(gets) == 1
        assert gets[0].is_instruction
        assert node.core.instructions_committed.value == 0
        node.handle_response(data_response(0x1000, is_instruction=True))
        sim.run(20)
        assert node.core.instructions_committed.value > 0

    def test_warm_l1i_lets_core_run_without_network(self):
        block = FetchBlock(iaddr=0x1000, n_instructions=9, data_accesses=[])
        sim, node, sent = build_core([block])
        node.l1i.array.insert_all([(0x1000, CacheLineState.SHARED)])
        node.core.start()
        sim.run(50)
        assert node.core.instructions_committed.value > 50
        assert not sent

    def test_committed_instructions_follow_issue_width(self):
        block = FetchBlock(iaddr=0x1000, n_instructions=9, data_accesses=[])
        sim, node, _ = build_core([block])
        node.l1i.array.insert_all([(0x1000, CacheLineState.SHARED)])
        node.core.start()
        sim.run(100)
        # 9 instructions per block at 3-wide issue = 3 cycles per block.
        assert node.core.instructions_committed.value == pytest.approx(300, rel=0.1)

    def test_data_miss_overlap_limited_by_mlp(self):
        accesses = [(0x20000 + i * 64, False) for i in range(4)]
        block = FetchBlock(iaddr=0x1000, n_instructions=12, data_accesses=accesses)
        sim, node, sent = build_core([block], mlp=2)
        node.l1i.array.insert_all([(0x1000, CacheLineState.SHARED)])
        node.core.start()
        sim.run(5)
        assert node.core.outstanding_data_misses == 2  # capped by MLP
        assert len(requests_of(sent, CoherenceRequestType.GETS)) == 2
        node.handle_response(data_response(0x20000))
        sim.run(1)
        assert len(requests_of(sent, CoherenceRequestType.GETS)) == 3

    def test_block_completes_after_all_fills(self):
        accesses = [(0x20000, False)]
        block = FetchBlock(iaddr=0x1000, n_instructions=6, data_accesses=accesses)
        sim, node, _ = build_core([block])
        node.l1i.array.insert_all([(0x1000, CacheLineState.SHARED)])
        node.core.start()
        sim.run(10)
        committed_before = node.core.instructions_committed.value
        node.handle_response(data_response(0x20000))
        sim.run(10)
        assert node.core.instructions_committed.value > committed_before

    def test_inactive_core_does_nothing(self):
        block = FetchBlock(iaddr=0x1000, n_instructions=6, data_accesses=[])
        sim, node, sent = build_core([block])
        sim.run(50)
        assert node.core.instructions_committed.value == 0
        assert not sent


class TestCoreNodeProtocol:
    def test_store_miss_issues_getx(self):
        block = FetchBlock(iaddr=0x1000, n_instructions=6, data_accesses=[(0x30000, True)])
        sim, node, sent = build_core([block])
        node.l1i.array.insert_all([(0x1000, CacheLineState.SHARED)])
        node.core.start()
        sim.run(5)
        assert len(requests_of(sent, CoherenceRequestType.GETX)) == 1

    def test_mshr_merges_requests_to_same_line(self):
        accesses = [(0x30000, False), (0x30010, False)]
        block = FetchBlock(iaddr=0x1000, n_instructions=6, data_accesses=accesses)
        sim, node, sent = build_core([block])
        node.l1i.array.insert_all([(0x1000, CacheLineState.SHARED)])
        node.core.start()
        sim.run(5)
        assert len(requests_of(sent, CoherenceRequestType.GETS)) == 1

    def test_requests_target_home_node(self):
        block = FetchBlock(iaddr=0x1000, n_instructions=6, data_accesses=[])
        sim, node, sent = build_core([block])
        node.core.start()
        sim.run(5)
        assert sent[0][0] == HOME

    def test_snoop_invalidate_acks_and_invalidates(self):
        block = FetchBlock(iaddr=0x1000, n_instructions=6, data_accesses=[])
        sim, node, sent = build_core([block])
        node.l1d.array.insert_all([(0x40000, CacheLineState.SHARED)])
        node.handle_snoop(SnoopRequest(SnoopType.INVALIDATE, 0x40000, home_node=HOME, target_core=0))
        acks = [p for _d, _c, p, _dd in sent if getattr(p, "resp_type", None) == ResponseType.INV_ACK]
        assert len(acks) == 1
        assert not node.l1d.read(0x40000)

    def test_snoop_forward_returns_data_and_downgrades(self):
        block = FetchBlock(iaddr=0x1000, n_instructions=6, data_accesses=[])
        sim, node, sent = build_core([block])
        node.l1d.array.insert_all([(0x50000, CacheLineState.MODIFIED)])
        node.handle_snoop(SnoopRequest(SnoopType.FORWARD, 0x50000, home_node=HOME, target_core=0))
        fwd = [p for _d, _c, p, _dd in sent if getattr(p, "resp_type", None) == ResponseType.FWD_DATA]
        assert len(fwd) == 1
        assert node.l1d.array.probe(0x50000) is CacheLineState.SHARED
        assert node.l1d.write(0x50000) is False  # a store to the downgraded line misses

    def test_dirty_victim_generates_writeback(self):
        sim, node, sent = build_core([FetchBlock(iaddr=0x1000, n_instructions=6)])
        l1d_blocks = node.l1d.config.num_blocks
        # Fill one set completely with modified lines, then fill one more.
        num_sets = node.l1d.config.num_sets
        for way in range(node.l1d.config.associativity + 1):
            addr = (way * num_sets) * 64
            node.handle_response(data_response(addr, exclusive=True))
        putm = requests_of(sent, CoherenceRequestType.PUTM)
        assert len(putm) == 1
        assert l1d_blocks > 0

    def test_exclusive_fill_allows_store_hit(self):
        sim, node, _ = build_core([FetchBlock(iaddr=0x1000, n_instructions=6)])
        node.handle_response(data_response(0x60000, exclusive=True))
        assert node.l1d.write(0x60000) is True

    def test_reset_statistics_clears_counters(self):
        block = FetchBlock(iaddr=0x1000, n_instructions=6, data_accesses=[])
        sim, node, _ = build_core([block])
        node.l1i.array.insert_all([(0x1000, CacheLineState.SHARED)])
        node.core.start()
        sim.run(20)
        assert node.l1i.accesses > 0
        sim.stats.reset()
        assert node.core.instructions_committed.value == 0
        assert node.l1i.accesses == 0


# --------------------------------------------------------------------------- #
# The core's MSI rules, pinned as a table
# --------------------------------------------------------------------------- #
I, S, M = CacheLineState.INVALID, CacheLineState.SHARED, CacheLineState.MODIFIED
INV, FWD, FWD_INV = SnoopType.INVALIDATE, SnoopType.FORWARD, SnoopType.FORWARD_INV
INV_ACK, FWD_DATA = ResponseType.INV_ACK, ResponseType.FWD_DATA

#: (L1-D state, L1-I holds the block, snoop) -> (final L1-I state, final
#: L1-D state, reply type, the reply carries data). Both forwards reply with
#: data even when the line is no longer held.
SNOOP_PIN_TABLE = {
    (I, False, INV): (I, I, INV_ACK, False),
    (I, False, FWD): (I, I, FWD_DATA, True),
    (I, False, FWD_INV): (I, I, FWD_DATA, True),
    (I, True, INV): (I, I, INV_ACK, False),
    (I, True, FWD): (S, I, FWD_DATA, True),
    (I, True, FWD_INV): (S, I, FWD_DATA, True),

    (S, False, INV): (I, I, INV_ACK, False),
    (S, False, FWD): (I, S, FWD_DATA, True),
    (S, False, FWD_INV): (I, I, FWD_DATA, True),
    (S, True, INV): (I, I, INV_ACK, False),
    (S, True, FWD): (S, S, FWD_DATA, True),
    (S, True, FWD_INV): (S, I, FWD_DATA, True),

    (M, False, INV): (I, I, INV_ACK, False),
    (M, False, FWD): (I, S, FWD_DATA, True),
    (M, False, FWD_INV): (I, I, FWD_DATA, True),
    (M, True, INV): (I, I, INV_ACK, False),
    (M, True, FWD): (S, S, FWD_DATA, True),
    (M, True, FWD_INV): (S, I, FWD_DATA, True),
}

#: L1-D victim state -> whether its eviction sends a PutM (carrying data).
EVICT_PIN_TABLE = {S: False, M: True}


def _l1_state(l1, addr):
    return l1.array.probe(addr) or I


def _drive_snoop(l1d_state, l1i_present, snoop_type, addr=0x40000):
    """Fill the L1s through ``handle_response``, deliver one snoop and return
    what the table records."""
    _sim, node, sent = build_core([FetchBlock(iaddr=0x1000, n_instructions=6)])
    # A second block of the same L1-D set, filled last, so the set's LRU order
    # is observable: a snoop must not move the snooped line.
    neighbour = addr + node.l1d.config.num_sets * node.l1d.config.block_size
    if l1d_state is not I:
        node.handle_response(data_response(addr, exclusive=l1d_state is M))
    node.handle_response(data_response(neighbour))
    if l1i_present:
        node.handle_response(data_response(addr, is_instruction=True))
    assert (_l1_state(node.l1i, addr), _l1_state(node.l1d, addr)) == (S if l1i_present else I, l1d_state)
    assert not sent

    node.handle_snoop(SnoopRequest(snoop_type, addr + 8, home_node=HOME, target_core=0))
    assert node.snoops_received.value == 1
    [(dst, msg_class, reply, carries_data)] = sent
    assert (dst, msg_class, reply.addr, reply.target_core) == (HOME, MessageClass.RESPONSE, addr, 0)
    final_l1d = _l1_state(node.l1d, addr)
    assert list(node.l1d.array.resident_blocks()) == ([] if final_l1d is I else [addr]) + [neighbour]
    return _l1_state(node.l1i, addr), final_l1d, reply.resp_type, carries_data


def _drive_evict(victim_state):
    """Fill one L1-D set through ``handle_response`` with its LRU line in
    ``victim_state``, fill one more block there, and return whether a PutM went."""
    _sim, node, sent = build_core([FetchBlock(iaddr=0x1000, n_instructions=6)])
    config = node.l1d.config
    blocks = [way * config.num_sets * config.block_size for way in range(config.associativity + 1)]
    node.handle_response(data_response(blocks[0], exclusive=victim_state is M))
    for block in blocks[1:]:
        node.handle_response(data_response(block, exclusive=True))
    assert _l1_state(node.l1d, blocks[0]) is I
    assert all(_l1_state(node.l1d, block) is M for block in blocks[1:])
    putms = requests_of(sent, CoherenceRequestType.PUTM)
    assert len(sent) == len(putms) == node.writebacks_sent.value
    for dst, msg_class, putm, carries_data in sent:
        assert (dst, msg_class, carries_data) == (HOME, MessageClass.REQUEST, True)
        assert (putm.addr, putm.requester_node, putm.requester_core) == (blocks[0], 0, 0)
    return bool(putms)


def test_pin_table_covers_every_input():
    assert set(SNOOP_PIN_TABLE) == {
        (l1d_state, l1i_present, snoop_type)
        for l1d_state in (I, S, M)
        for l1i_present in (False, True)
        for snoop_type in (INV, FWD, FWD_INV)
    }
    assert set(EVICT_PIN_TABLE) == {S, M}


@pytest.mark.parametrize(
    "case",
    list(SNOOP_PIN_TABLE),
    ids=lambda case: f"{case[0].value}-{'I' if case[1] else 'noI'}-{case[2].value}",
)
def test_core_follows_snoop_pin_table(case):
    assert _drive_snoop(*case) == SNOOP_PIN_TABLE[case]


@pytest.mark.parametrize("victim_state", list(EVICT_PIN_TABLE), ids=lambda state: state.value)
def test_core_follows_evict_pin_table(victim_state):
    assert _drive_evict(victim_state) is EVICT_PIN_TABLE[victim_state]


def test_rule_functions_follow_pin_table():
    for case, row in SNOOP_PIN_TABLE.items():
        l1d_state, l1i_present, snoop_type = case
        new_l1d_state, l1i_keeps, reply_type, carries_data = on_snoop(snoop_type, l1d_state, l1i_present)
        assert (S if l1i_keeps else I, new_l1d_state, reply_type, carries_data) == row, case
    for victim_state, sends_putm in EVICT_PIN_TABLE.items():
        assert on_evict(victim_state) is sends_putm, victim_state
