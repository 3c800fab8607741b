"""Generic table-routed virtual-cut-through router.

A single router class covers every switching element in the paper: mesh
routers, flattened-butterfly routers, NOC-Out LLC routers, and (with two
ports and static-priority arbitration) the reduction/dispersion tree nodes.
The topology-specific network classes build routers, join them with
:meth:`Router.connect` and give each router a route function that names the
*next hop* toward a destination: the downstream router or the destination's
network interface.  Output-port indices stay private to the router: its
table maps each destination to the port leading to that hop, filled one
destination at a time on the first lookup of each.

Timing model
------------
When a packet at the head of an input VC wins arbitration for a free output
port at cycle ``T`` it is removed from the input buffer, space is reserved
in the downstream VC, and the packet is delivered to the downstream input
buffer at ``T + pipeline_latency + link_latency``.  The output port is held
busy for ``num_flits`` cycles, which models serialization / bandwidth; a
final serialization charge is applied once at the ejection interface
(virtual cut-through behaviour).

Wake protocol
-------------
Routers are fully event-driven: an arbitration round runs only when an
event could let a packet move.  A router is woken by (1) a packet arriving
on one of its input VCs, (2) its own forward one cycle earlier (the next
head or an arbitration loser may now move), (3) a busy output port's
``busy_until`` expiring, or (4) a credit listener firing when a downstream
VC it found full releases a reservation (``VirtualChannelBuffer.pop``).  A
router whose heads are all credit-blocked therefore schedules **zero**
kernel events until credit returns; see ``docs/performance.md``.
"""

from __future__ import annotations

from bisect import insort
from functools import lru_cache
from operator import attrgetter
from typing import Callable, Dict, List, Optional

from repro.sim.component import Component
from repro.sim.kernel import Simulator
from repro.sim.stats import Counter
from repro.noc.arbiter import round_robin
from repro.noc.buffer import InputPort
from repro.noc.message import Message


class OutputPort:
    """An output port: a link to a downstream component's input port.

    ``downstream_input`` is that input port, whose VC map a round reads to
    resolve a head's downstream VC.
    ``flits_sent`` is a counter registered in the owning router's stats
    group (see :meth:`Router.add_output_port`).
    """

    __slots__ = (
        "name", "downstream", "downstream_port", "downstream_input",
        "link_latency", "link_length_mm", "busy_until", "flits_sent",
    )

    def __init__(
        self,
        name: str,
        downstream: "PacketSink",
        downstream_port: int,
        link_latency: int,
        link_length_mm: float,
        flits_sent: Counter,
    ) -> None:
        self.name = name
        self.downstream = downstream
        self.downstream_port = downstream_port
        self.downstream_input = downstream.input_ports[downstream_port]
        self.link_latency = link_latency
        self.link_length_mm = link_length_mm
        self.busy_until = 0
        self.flits_sent = flits_sent

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"OutputPort({self.name} -> {self.downstream!r}.{self.downstream_port})"


@lru_cache(maxsize=None)
def _flits_sent_name(index: int) -> str:
    """``port<index>.flits_sent``: one string per index, shared by every router."""
    return f"port{index}.flits_sent"


class PacketSink:
    """Protocol implemented by anything that can receive packets.

    Routers and network interfaces both expose ``input_ports`` and
    ``receive_packet``; this base class only documents the contract.
    """

    input_ports: List[InputPort]

    def receive_packet(self, packet: Message, in_port: int, vc_index: int) -> None:
        raise NotImplementedError


class _VcState:
    """Per-(input port, VC) switching state owned by one router.

    Created on the VC's first packet, kept in the VC's ``state`` slot and
    reused for the router's lifetime.  ``blocked`` implements credit-blocked
    head skipping: when a tick finds a head that cannot reserve downstream
    space, the state is marked blocked and registers itself (it is
    callable) as the downstream VC's credit listener; the VC is then
    skipped by every arbitration round until the downstream ``pop`` calls
    it.  Reservations only ever shrink on ``pop``, so skipping is exactly
    equivalent to re-checking ``can_reserve`` each round — just without
    the work.

    The state doubles as its own arbitration candidate (``key``, ``packet``
    and ``is_local`` are what the policies in :mod:`repro.noc.arbiter`
    read), so a ready head costs zero allocations per round.  ``packet``
    and the ``downstream_vc`` its forward reserves in are refreshed each
    time the state is offered for arbitration.
    """

    __slots__ = (
        "key", "vc", "packet", "downstream_vc", "is_local",
        "active", "blocked", "blocked_port", "_router",
    )

    def __init__(
        self, router: "Router", in_port: int, vc_index: int, vc, is_local: bool
    ) -> None:
        self.key = (in_port, vc_index)
        self.vc = vc
        self.packet = None
        self.downstream_vc = None
        self.is_local = is_local
        self.active = False
        self.blocked = False
        #: Output port of the blocked head, kept while ``blocked`` is set so
        #: the skip path reads ``busy_until`` without routing the head again.
        #: Only meaningful while ``blocked`` is True.
        self.blocked_port = None
        self._router = router

    def __call__(self) -> None:
        """Credit return: the downstream VC this head waited on popped.

        The state itself is the listener, so registering it allocates
        nothing, repeat registrations deduplicate, and no stored bound
        method points back at the state.
        """
        self.blocked = False
        router = self._router
        if router._next_wake != router.sim.cycle:
            router.wake(0)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"_VcState({self.key}, active={self.active}, blocked={self.blocked})"


#: Sort key of ``Router._active_vcs``: keys are unique per router.
_state_key = attrgetter("key")


class RouteTable(dict):
    """A router's ``destination -> output port`` table, filled on demand.

    A lookup that misses asks the router's ``route_fn`` for the next hop,
    maps it to the output port leading there and memoises that index, so a
    hit stays a plain dict lookup of an int and a table only ever holds
    destinations its router has been asked about.  ``route_fn`` raises
    ``KeyError`` for a destination it cannot reach.
    """

    __slots__ = ("router",)

    def __init__(self, router: "Router") -> None:
        super().__init__()
        self.router = router

    def __missing__(self, dst: int) -> int:
        router = self.router
        try:
            hop = router.route_fn(dst)
        except KeyError:
            raise KeyError(f"{router.name}: no route to node {dst}") from None
        port = router._port_toward.get(hop)
        if port is None:
            raise ValueError(
                f"{router.name}: route to node {dst} names {hop!r}, "
                "which no output port leads to"
            )
        self[dst] = port
        return port


class Router(Component, PacketSink):
    """A virtual-channel router with a per-destination routing table.

    ``route_fn(dst)`` returns the next hop toward node ``dst``, a component
    this router has an output port to (raising ``KeyError`` if there is no
    route); it runs once per destination, on the first lookup, after every
    port has been wired.

    ``arbitrate`` is the output-port policy (:mod:`repro.noc.arbiter`); the
    router keeps each output port's last winner and passes it in.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        *,
        pipeline_latency: int = 2,
        arbitrate: Callable[[list, Optional[tuple]], _VcState] = round_robin,
        route_fn: Optional[Callable[[int], "PacketSink"]] = None,
    ) -> None:
        super().__init__(sim, name)
        if pipeline_latency < 0:
            raise ValueError("pipeline_latency must be non-negative")
        self.pipeline_latency = pipeline_latency
        self.input_ports: List[InputPort] = []
        self.output_ports: List[OutputPort] = []
        # downstream component -> index of the one output port leading to it
        self._port_toward: Dict[PacketSink, int] = {}
        self.route_fn = route_fn
        self.route_table = RouteTable(self)
        self._arbitrate = arbitrate
        # Per output port: the key of its last arbitration winner.
        self._last_winner: List[Optional[tuple]] = []
        self._local_input_ports: tuple = ()
        # Occupied input VCs as _VcState objects, kept sorted by
        # (in_port, vc_index) so ticks scan only buffers that actually hold
        # packets (scan order — and therefore arbitration candidate order —
        # matches a full sweep).  A VC's state is made on its first packet.
        self._active_vcs: List[_VcState] = []
        # Activity counters consumed by the energy model.
        self.flits_switched = self.stats.counter("flits_switched")
        self.buffer_flit_writes = self.stats.counter("buffer_flit_writes")

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_input_port(self, port: InputPort, is_local: bool = False) -> int:
        """Attach an input port; returns its index."""
        self.input_ports.append(port)
        index = len(self.input_ports) - 1
        if is_local:
            self._local_input_ports += (index,)
        return index

    def add_output_port(
        self,
        name: str,
        downstream: PacketSink,
        downstream_port: int,
        link_latency: int,
        link_length_mm: float = 0.0,
    ) -> int:
        """Attach an output port to ``downstream``; returns its index.

        A router has at most one output port to any downstream component,
        which is what lets a route name the next hop instead of a port.
        """
        if self.pipeline_latency + link_latency < 1:
            raise ValueError("per-hop latency (pipeline + link) must be >= 1 cycle")
        if downstream in self._port_toward:
            raise ValueError(
                f"{self.name}: already has an output port to {downstream!r}"
            )
        index = len(self.output_ports)
        port = OutputPort(
            name,
            downstream,
            downstream_port,
            link_latency,
            link_length_mm,
            self.stats.counter(_flits_sent_name(index)),
        )
        self.output_ports.append(port)
        self._port_toward[downstream] = index
        self._last_winner.append(None)
        return index

    def connect(
        self,
        downstream: "Router",
        input_port: InputPort,
        name: str,
        link_latency: int,
        link_length_mm: float,
    ) -> OutputPort:
        """Link this router to ``downstream``: add ``input_port`` to it, then
        an output port here feeding that input; returns the output port."""
        in_index = downstream.add_input_port(input_port)
        out_index = self.add_output_port(
            name, downstream, in_index, link_latency, link_length_mm
        )
        return self.output_ports[out_index]

    def route(self, packet: Message) -> int:
        """Output port index for ``packet`` (table lookup)."""
        return self.route_table[packet.dst]

    @property
    def radix(self) -> int:
        """Number of ports (max of inputs and outputs), used by area/energy."""
        return max(len(self.input_ports), len(self.output_ports))

    # ------------------------------------------------------------------ #
    # Packet reception
    # ------------------------------------------------------------------ #
    def receive_packet(self, packet: Message, in_port: int, vc_index: int) -> None:
        buffer = self.input_ports[in_port].vcs[vc_index]
        buffer.push(packet)
        self.buffer_flit_writes.add(packet.num_flits)
        state = buffer.state
        if state is None:
            state = buffer.state = _VcState(
                self, in_port, vc_index, buffer, in_port in self._local_input_ports
            )
        if not state.active:
            state.active = True
            insort(self._active_vcs, state, key=_state_key)
        # wake(0) with the same-cycle suppression test hoisted: several
        # packets commonly arrive within one cycle, and only the first needs
        # to schedule the arbitration round.
        if self._next_wake != self.sim.cycle:
            self.wake(0)

    # ------------------------------------------------------------------ #
    # Per-cycle switching
    # ------------------------------------------------------------------ #
    def _run_tick(self) -> None:
        """One arbitration round, scheduling the *next* round event-driven.

        The callback :meth:`Component.wake` schedules: it opens with the
        base class's stale-wake test, so a tick event costs one frame.

        Unlike the original poll-every-cycle loop (which re-ticked whenever
        anything was buffered), a blocked router goes back to sleep and is
        re-awoken only by an event that can actually unblock it:

        * a head blocked on a busy output port wakes when ``busy_until``
          expires (earliest such expiry among blocked heads);
        * a head blocked on downstream credit marks its ``_VcState`` blocked
          and registers the state's credit listener with the downstream VC;
          the VC is *skipped* by subsequent rounds (reservations only shrink
          on ``pop``, so re-checking is provably futile) until the listener
          fires and clears the flag;
        * forwarding a packet wakes the router one cycle later, when the
          freshly exposed head (and any arbitration losers) may move.

        A fully credit-blocked router therefore schedules zero kernel
        events until credit returns.  Because the kernel drains a cycle's
        bucket as one batch, all wakes a router accumulates within a cycle
        (arrivals, credit returns) collapse into at most one extra
        arbitration round, run after the rest of the cycle's events.

        Each examined head is routed afresh: a route-table lookup names the
        output port, and the port's downstream input port maps the head's
        message class to its VC.  The loop body inlines
        ``VirtualChannelBuffer.peek``/``can_reserve`` (this is the hottest
        code in any congested simulation); the inlined admission test must
        stay equivalent to ``can_reserve``.
        """
        now = self.sim.cycle
        if self._next_wake != now:
            return  # stale callback superseded by an earlier wake request
        self._next_wake = -1
        route_table = self.route_table
        output_ports = self.output_ports
        next_busy_free = 0
        # Most rounds produce candidates for zero or one output port, so the
        # per-output dict is allocated lazily: the first contested output's
        # candidates accumulate in ``first_cands`` and the dict materialises
        # only when a second output shows up.  First-seen output order (and
        # hence arbitration order) is identical to the dict-only version.
        first_out = -1
        first_cands = None
        cands_by_out = None
        for state in self._active_vcs:
            if state.blocked:
                # Credit-blocked head: the downstream VC cannot have gained
                # space (only its pop can free any, and that calls the
                # state), so skip the route/credit work — but keep
                # the busy-expiry contribution the full check would have
                # made, so the wake schedule (and hence event order) is
                # identical to re-examining the head.  ``blocked_port`` was
                # kept when the head blocked and stays valid: the head can
                # only change via a pop of this VC, which a blocked head
                # cannot win.
                busy_until = state.blocked_port.busy_until
                if busy_until > now and (
                    next_busy_free == 0 or busy_until < next_busy_free
                ):
                    next_busy_free = busy_until
                continue
            # An active VC is never empty: _forward deactivates it as it drains.
            packet = state.vc._queue[0]
            out_index = route_table[packet.dst]
            out_port = output_ports[out_index]
            busy_until = out_port.busy_until
            if busy_until > now:
                if next_busy_free == 0 or busy_until < next_busy_free:
                    next_busy_free = busy_until
                continue
            downstream_port = out_port.downstream_input
            downstream_vc = downstream_port.vcs[downstream_port._vc_map[packet.msg_class]]
            flits = packet.num_flits
            reserved = downstream_vc._reserved_flits
            if reserved + flits > downstream_vc.capacity_flits and reserved:
                state.blocked = True
                state.blocked_port = out_port
                downstream_vc.wait_for_space(state)
                continue
            state.packet = packet
            state.downstream_vc = downstream_vc
            if cands_by_out is not None:
                candidates = cands_by_out.get(out_index)
                if candidates is None:
                    cands_by_out[out_index] = [state]
                else:
                    candidates.append(state)
            elif first_out < 0:
                first_out = out_index
                first_cands = [state]
            elif out_index == first_out:
                first_cands.append(state)
            else:
                cands_by_out = {first_out: first_cands, out_index: [state]}
        last_winner = self._last_winner
        if cands_by_out is None:
            if first_out >= 0:
                # An uncontended port (the common case) needs no policy: the
                # lone candidate wins under either one.
                if len(first_cands) == 1:
                    winner = first_cands[0]
                else:
                    winner = self._arbitrate(first_cands, last_winner[first_out])
                last_winner[first_out] = winner.key
                self._forward(winner, output_ports[first_out], now)
        else:
            arbitrate = self._arbitrate
            for out_index, candidates in cands_by_out.items():
                winner = arbitrate(candidates, last_winner[out_index])
                last_winner[out_index] = winner.key
                self._forward(winner, output_ports[out_index], now)
        if first_out >= 0:
            self.wake(1)
        elif next_busy_free > now:
            self.wake(next_busy_free - now)

    def _forward(self, winner: _VcState, out_port: OutputPort, now: int) -> None:
        vc = winner.vc
        packet = winner.packet
        # Resolved by this round's admission test for this head; nothing
        # pops this VC between candidate collection and here.
        downstream_vc = winner.downstream_vc
        vc.pop()
        if not vc._queue:
            winner.active = False
            self._active_vcs.remove(winner)
        # Inlined VirtualChannelBuffer.reserve: the round ran the admission
        # test for this head, and no other reservation can reach this
        # downstream VC in between (one forward per output port per round,
        # and distinct output ports feed distinct downstream input ports).
        downstream_vc._reserved_flits += packet.num_flits

        packet.hops += 1
        num_flits = packet.num_flits
        self.flits_switched.add(num_flits)
        out_port.flits_sent.add(num_flits)
        out_port.busy_until = now + num_flits

        self.sim.schedule_call(
            out_port.downstream.receive_packet,
            (packet, out_port.downstream_port, downstream_vc.index),
            self.pipeline_latency + out_port.link_latency,
        )

    def close(self) -> None:
        """Also drop each input VC's state and credit listeners.

        A VC's state points back at the VC, and a blocked head's state
        reaches the downstream VC it waits on (through ``blocked_port``
        and ``downstream_vc``), whose listeners hold that state, so states
        and VCs can point at one another through no component.
        """
        for port in self.input_ports:
            for vc in port.vcs:
                vc.state = None
                vc._space_waiters = None
        super().close()

    # ------------------------------------------------------------------ #
    @property
    def buffered_packets(self) -> int:
        return sum(len(vc) for port in self.input_ports for vc in port.vcs)
