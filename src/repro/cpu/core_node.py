"""Core node: a core plus its private L1 caches, MSHRs and protocol glue.

The core node turns L1 misses into coherence requests addressed to the
home LLC node, fills the L1s when data responses arrive, and services
snoops from the directory (invalidations and forwards), which is all the
coherence activity a core ever sees in the paper's directory protocol.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.cache.address import AddressMapper
from repro.cache.coherence import (
    CacheRequest,
    CoherenceRequestType,
    Response,
    ResponseType,
    SnoopRequest,
    on_evict,
    on_snoop,
)
from repro.cache.l1 import L1Cache
from repro.cache.mshr import MshrFile
from repro.cache.set_assoc import CacheLineState
from repro.config.system import SystemConfig
from repro.config.workload import WorkloadConfig
from repro.cpu.core_model import CoreModel
from repro.noc.message import MessageClass
from repro.sim.component import Component
from repro.sim.kernel import Simulator
from repro.workloads.base import WorkloadStream

#: send(dst_node, msg_class, payload, carries_data)
SendFunction = Callable[[int, MessageClass, object, bool], None]


class CoreNode(Component):
    """One core tile's private-cache hierarchy and network endpoint logic."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        core_id: int,
        node_id: int,
        config: SystemConfig,
        workload: WorkloadConfig,
        stream: WorkloadStream,
        send: SendFunction,
        home_node_for: Callable[[int], int],
    ) -> None:
        super().__init__(sim, name)
        self.core_id = core_id
        self.node_id = node_id
        self.config = config
        self._send = send
        self._home_node_for = home_node_for

        caches = config.caches
        self.mapper = AddressMapper(block_size=caches.block_size)
        self.l1i = L1Cache(caches.l1i, f"{name}.l1i", self.stats.group("l1i"), is_instruction=True)
        self.l1d = L1Cache(caches.l1d, f"{name}.l1d", self.stats.group("l1d"))
        self.mshr = MshrFile(caches.mshr_entries, name=f"{name}.mshr")
        self.core = CoreModel(sim, f"{name}.core", core_id, config.core, workload, stream, self)

        stats = self.stats
        self.requests_sent = stats.counter("requests_sent")
        self.snoops_received = stats.counter("snoops_received")
        self.writebacks_sent = stats.counter("writebacks_sent")
        self.fill_latency = stats.histogram("fill_latency", keep_samples=False)

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    def block_address(self, addr: int) -> int:
        return self.mapper.block_address(addr)

    def _home(self, addr: int) -> int:
        return self._home_node_for(addr)

    # ------------------------------------------------------------------ #
    # Core-side API (called by the core timing model)
    # ------------------------------------------------------------------ #
    def access_instruction(self, addr: int) -> bool:
        """Instruction fetch: returns ``True`` on an L1-I hit."""
        if self.l1i.read(addr):
            return True
        block = self.block_address(addr)
        entry = self.mshr.lookup(block)
        if entry is not None:
            self.mshr.merge(block)
            return False
        self.mshr.allocate(block, is_instruction=True, wants_exclusive=False, issue_cycle=self.sim.cycle)
        self._issue_request(CoherenceRequestType.GETS, block, is_instruction=True)
        return False

    def probe_data(self, addr: int, is_write: bool) -> bool:
        """Data access lookup only: returns ``True`` on an L1-D hit."""
        if is_write:
            return self.l1d.write(addr)
        return self.l1d.read(addr)

    def issue_data_miss(self, addr: int, is_write: bool) -> None:
        """Issue the coherence request for a data miss (MSHRs merge duplicates)."""
        block = self.block_address(addr)
        entry = self.mshr.lookup(block)
        if entry is not None:
            self.mshr.merge(block, wants_exclusive=is_write)
            return
        self.mshr.allocate(
            block, is_instruction=False, wants_exclusive=is_write, issue_cycle=self.sim.cycle
        )
        req_type = CoherenceRequestType.GETX if is_write else CoherenceRequestType.GETS
        self._issue_request(req_type, block, is_instruction=False)

    def _issue_request(self, req_type: CoherenceRequestType, block: int, is_instruction: bool) -> None:
        request = CacheRequest(
            req_type=req_type,
            addr=block,
            requester_node=self.node_id,
            requester_core=self.core_id,
            is_instruction=is_instruction,
        )
        self.requests_sent.add()
        self._send(self._home(block), MessageClass.REQUEST, request, False)

    # ------------------------------------------------------------------ #
    # Network-side API (called by the endpoint dispatch)
    # ------------------------------------------------------------------ #
    def handle_response(self, response: Response) -> None:
        """Data fills from the directory (a PutM is answered with nothing)."""
        if response.resp_type is not ResponseType.DATA:
            raise RuntimeError(f"{self.name}: unexpected response {response.resp_type}")
        block = self.block_address(response.addr)
        entry = self.mshr.lookup(block)
        if entry is not None:
            self.fill_latency.add(self.sim.cycle - entry.issue_cycle)
            self.mshr.release(block)
        if response.is_instruction:
            self.l1i.fill(block, writable=False)
            self.core.ifetch_ready()
            return
        victim = self.l1d.fill(block, writable=response.grants_exclusive)
        self._writeback_victim(victim)
        self.core.data_ready(block)

    def handle_snoop(self, snoop: SnoopRequest) -> None:
        """Invalidations and forwards from a home directory (rules: :func:`on_snoop`)."""
        self.snoops_received.add()
        block = self.block_address(snoop.addr)
        l1d_state = self.l1d.array.probe(block) or CacheLineState.INVALID
        l1i_present = self.l1i.array.probe(block) is not None
        new_state, l1i_keeps, reply_type, carries_data = on_snoop(snoop.snoop_type, l1d_state, l1i_present)
        if new_state is not l1d_state:
            self.l1d.array.update_state(block, new_state)
        if l1i_present and not l1i_keeps:
            self.l1i.array.invalidate(block)
        reply = Response(reply_type, block, target_core=self.core_id)
        self._send(snoop.home_node, MessageClass.RESPONSE, reply, carries_data)

    def _writeback_victim(self, victim: Optional[tuple]) -> None:
        if victim is None or not on_evict(victim[1]):
            return
        victim_block = victim[0]
        request = CacheRequest(
            req_type=CoherenceRequestType.PUTM,
            addr=victim_block,
            requester_node=self.node_id,
            requester_core=self.core_id,
        )
        self.writebacks_sent.add()
        self._send(self._home(victim_block), MessageClass.REQUEST, request, True)

    def _tick(self) -> None:  # pragma: no cover - event driven, never ticks
        pass
