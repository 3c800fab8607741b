"""Directory controller: the home node logic of the coherence protocol.

Each LLC tile (NOC-Out) or LLC slice (tiled chips) embeds a directory that
tracks which cores hold each block.  The directory services GetS/GetX
requests, fetches blocks from memory on LLC misses, and — rarely, for the
scale-out workloads the paper studies — sends snoop messages to cores that
hold conflicting copies.  The fraction of LLC accesses that trigger a snoop
is the statistic reported in Figure 4.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional

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
from repro.cache.llc import LLCBank
from repro.config.cache import CacheConfig
from repro.noc.message import MessageClass
from repro.sim.component import Component
from repro.sim.kernel import Simulator

#: send(dst_node, msg_class, payload, carries_data)
SendFunction = Callable[[int, MessageClass, object, bool], None]


@dataclass
class Transaction:
    """Bookkeeping for one in-flight request at the home directory."""

    request: CacheRequest
    acks_needed: int = 0
    acks_received: int = 0
    waiting_for_forward: bool = False
    waiting_for_memory: bool = False
    have_data: bool = False
    forwarded_from: Optional[int] = None
    triggered_snoop: bool = False
    start_cycle: int = 0

    @property
    def complete(self) -> bool:
        return (
            self.have_data
            and not self.waiting_for_forward
            and not self.waiting_for_memory
            and self.acks_received >= self.acks_needed
        )


class DirectoryController(Component):
    """The directory + LLC slice logic of one home node."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        node_id: int,
        bank_configs: List[CacheConfig],
        mapper: AddressMapper,
        send: SendFunction,
        core_node_for: Callable[[int], int],
        mc_node_for: Callable[[int], int],
    ) -> None:
        super().__init__(sim, name)
        if not bank_configs:
            raise ValueError("a directory needs at least one LLC bank")
        self.node_id = node_id
        self.mapper = mapper
        self._send = send
        self._core_node_for = core_node_for
        self._mc_node_for = mc_node_for
        self.banks = [
            LLCBank(config, name=f"{name}.bank{index}", index_divisor=mapper.num_llc_banks)
            for index, config in enumerate(bank_configs)
        ]
        self.entries: Dict[int, DirectoryEntry] = {}
        self.transactions: Dict[int, Transaction] = {}
        self._deferred: Dict[int, Deque[CacheRequest]] = {}

        stats = self.stats
        self.llc_accesses = stats.counter("llc_accesses")
        self.llc_hits = stats.counter("llc_hits")
        self.llc_misses = stats.counter("llc_misses")
        self.snoop_triggering_accesses = stats.counter("snoop_triggering_accesses")
        self.snoops_sent = stats.counter("snoops_sent")
        self.memory_fetches = stats.counter("memory_fetches")
        self.writebacks = stats.counter("writebacks")
        #: Accesses that found their LLC bank busy and had to queue.
        self.bank_conflicts = stats.counter("bank_conflicts")
        self.request_latency = stats.histogram("request_latency", keep_samples=False)

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    def bank_for(self, addr: int) -> LLCBank:
        """The internal bank servicing ``addr``."""
        return self.banks[self.mapper.home_bank(addr) % len(self.banks)]

    def _entry(self, addr: int) -> DirectoryEntry:
        return self.entries.setdefault(addr, DirectoryEntry())

    # ------------------------------------------------------------------ #
    # Request path
    # ------------------------------------------------------------------ #
    def handle_request(self, request: CacheRequest) -> None:
        """Entry point for GetS / GetX / PutM messages."""
        addr = self.mapper.block_address(request.addr)
        request.addr = addr
        if request.req_type is CoherenceRequestType.PUTM:
            self.writebacks.add()
            on_putm(self._entry(addr), request.requester_core)
            self.bank_for(addr).writeback(addr)
            return
        if addr in self.transactions:
            self._deferred.setdefault(addr, deque()).append(request)
            return
        self._start_transaction(request)

    def _start_transaction(self, request: CacheRequest) -> None:
        addr = request.addr
        now = self.sim.cycle
        transaction = Transaction(request=request, start_cycle=now)
        self.transactions[addr] = transaction
        bank = self.bank_for(addr)
        if bank.busy_until > now:
            self.bank_conflicts.add()
        completion = bank.schedule_access(now)
        self.sim.schedule_at(lambda r=request: self._process_request(r), completion)

    def _process_request(self, request: CacheRequest) -> None:
        addr = request.addr
        transaction = self.transactions[addr]
        self.llc_accesses.add()
        snoop_type, targets = on_request(
            self._entry(addr), request.req_type is CoherenceRequestType.GETX, request.requester_core
        )
        for target in targets:
            self._send_snoop(snoop_type, addr, target, transaction)
        if snoop_type is not None and snoop_type.is_forward:
            transaction.waiting_for_forward = True
            transaction.forwarded_from = targets[0]
        else:
            transaction.acks_needed = len(targets)
            if self.bank_for(addr).contains(addr):
                self.llc_hits.add()
                transaction.have_data = True
            else:
                self.llc_misses.add()
                self._fetch_from_memory(addr, transaction)
        self._maybe_complete(addr)

    # ------------------------------------------------------------------ #
    # Snoops and memory fills
    # ------------------------------------------------------------------ #
    def _send_snoop(self, snoop_type: SnoopType, addr: int, target_core: int, transaction: Transaction) -> None:
        if target_core is None:
            raise RuntimeError(f"{self.name}: snoop with no target for {addr:#x}")
        snoop = SnoopRequest(snoop_type, addr, home_node=self.node_id, target_core=target_core)
        self._send(self._core_node_for(target_core), MessageClass.SNOOP, snoop, False)
        self.snoops_sent.add()
        if not transaction.triggered_snoop:
            transaction.triggered_snoop = True
            self.snoop_triggering_accesses.add()

    def _fetch_from_memory(self, addr: int, transaction: Transaction) -> None:
        transaction.waiting_for_memory = True
        self.memory_fetches.add()
        request = MemoryRequest(addr=addr, home_node=self.node_id)
        self._send(self._mc_node_for(addr), MessageClass.REQUEST, request, False)

    # ------------------------------------------------------------------ #
    # Response path
    # ------------------------------------------------------------------ #
    def handle_response(self, response: Response) -> None:
        """Entry point for InvAck / FwdData / MemData messages."""
        addr = self.mapper.block_address(response.addr)
        transaction = self.transactions.get(addr)
        if transaction is None:
            return  # stale response from a race resolved by a silent eviction
        if response.resp_type == ResponseType.INV_ACK:
            transaction.acks_received += 1
        elif response.resp_type == ResponseType.FWD_DATA:
            transaction.waiting_for_forward = False
            transaction.have_data = True
            self.bank_for(addr).writeback(addr)
        elif response.resp_type == ResponseType.MEM_DATA:
            transaction.waiting_for_memory = False
            transaction.have_data = True
            self.bank_for(addr).fill(addr)
        else:  # pragma: no cover - cores never send DATA to the directory
            raise RuntimeError(f"unexpected response {response.resp_type}")
        self._maybe_complete(addr)

    # ------------------------------------------------------------------ #
    # Completion
    # ------------------------------------------------------------------ #
    def _maybe_complete(self, addr: int) -> None:
        transaction = self.transactions.get(addr)
        if transaction is None or not transaction.complete:
            return
        request = transaction.request
        requester = request.requester_core
        exclusive = request.req_type is CoherenceRequestType.GETX
        on_complete(self._entry(addr), exclusive, requester, transaction.forwarded_from)
        response = Response(
            ResponseType.DATA,
            addr,
            target_core=requester,
            is_instruction=request.is_instruction,
            grants_exclusive=exclusive,
        )
        self._send(request.requester_node, MessageClass.RESPONSE, response, True)
        self.request_latency.add(self.sim.cycle - transaction.start_cycle)

        del self.transactions[addr]
        deferred = self._deferred.get(addr)
        if deferred:
            next_request = deferred.popleft()
            if not deferred:
                del self._deferred[addr]
            self._start_transaction(next_request)

    # ------------------------------------------------------------------ #
    # Warm-up support and statistics
    # ------------------------------------------------------------------ #
    def warm_fill(self, addr: int, sharer: Optional[int] = None, writable: bool = False) -> None:
        """Functionally install a block (and optionally a sharer) during warm-up.

        The sharer is granted the block by :func:`on_complete`, except that a
        read of a block in M changes nothing: warm-up sends no snoops, so an
        owner keeps its M copy.
        """
        addr = self.mapper.block_address(addr)
        self.bank_for(addr).array.insert(addr)
        if sharer is None:
            return
        entry = self._entry(addr)
        if writable or entry.state is not DirectoryState.MODIFIED:
            on_complete(entry, writable, sharer)

    @property
    def snoop_rate(self) -> float:
        """Fraction of LLC accesses that triggered at least one snoop (Figure 4)."""
        accesses = self.llc_accesses.value
        return self.snoop_triggering_accesses.value / accesses if accesses else 0.0

    def _tick(self) -> None:  # pragma: no cover - event driven, never ticks
        pass
