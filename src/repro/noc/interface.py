"""Network interfaces: injection and ejection points for endpoints."""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, Optional

from repro.sim.component import Component
from repro.sim.kernel import Simulator
from repro.noc.buffer import InputPort, unbounded_input_port
from repro.noc.message import Message, MessageClass, flit_count
from repro.noc.router import PacketSink, Router


class NetworkInterface(Component, PacketSink):
    """Connects one endpoint (tile / LLC tile / memory controller) to a router.

    Injection: messages are queued per message class and pushed into the
    attached router's input port as soon as the corresponding VC can accept
    them.  Ejection: the last router on a path forwards the packet to this
    interface, which delivers the message to the endpoint after the packet's
    serialization delay (one flit per cycle).
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        node_id: int,
        link_width_bits: int,
        on_delivery: Callable[[Message], None],
        injection_latency: int = 1,
    ) -> None:
        super().__init__(sim, name)
        self.node_id = node_id
        self.link_width_bits = link_width_bits
        self.injection_latency = injection_latency
        self._on_delivery = on_delivery
        # A class's injection queue is made by its first message.  Deques:
        # past saturation an injection queue grows without bound.
        self._inject_queues: Dict[MessageClass, deque] = {}
        # One ejection VC serves every class: it is unbounded and drained in
        # the call that fills it, so no class ever waits behind another.
        self.input_ports = [unbounded_input_port(1, name=f"{name}.eject")]
        self._router: Optional[Router] = None
        self._router_port: Optional[int] = None
        # Per open class, (queue, vc_index, vc) on the attached router input
        # port, in _run_tick's scan order: RESPONSE, SNOOP, REQUEST.
        self._inject_vcs: list = []
        # Stable bound wake callback for VC credit listeners (deduplicated
        # by VirtualChannelBuffer.wait_for_space across blocked ticks).
        self._credit_wake = self.wake
        # Injection activity consumed by the energy model.
        self.flits_injected = self.stats.counter("flits_injected")

    # ------------------------------------------------------------------ #
    def attach_router(self, router: Router, router_in_port: int) -> None:
        """Declare the router input port this interface injects into."""
        self._router = router
        self._router_port = router_in_port

    def _open_queue(self, msg_class: MessageClass) -> deque:
        """Make ``msg_class``'s injection queue and its ``_inject_vcs`` entry."""
        if self._router is None:
            raise RuntimeError(f"{self.name}: interface not attached to a router")
        in_port = self._router.input_ports[self._router_port]
        queue = self._inject_queues[msg_class] = deque()
        # _run_tick scans in descending class value whatever order the classes
        # open in: that order decides the order of same-cycle events.
        position = sum(cls > msg_class for cls in self._inject_queues)
        self._inject_vcs.insert(
            position, (queue, in_port.vc_index_for(msg_class), in_port.vc_for(msg_class))
        )
        return queue

    # ------------------------------------------------------------------ #
    # Injection
    # ------------------------------------------------------------------ #
    def inject(self, message: Message) -> None:
        """Stamp ``message`` with its flit count and queue it for injection."""
        message.num_flits = flits = flit_count(message.size_bits, self.link_width_bits)
        queue = self._inject_queues.get(message.msg_class)
        if queue is None:
            queue = self._open_queue(message.msg_class)
        queue.append(message)
        self.flits_injected.add(flits)
        # wake(0) with the same-cycle suppression test hoisted (several
        # messages commonly inject within one cycle).
        if self._next_wake != self.sim.cycle:
            self.wake(0)

    def _run_tick(self) -> None:
        """Inject up to one queued packet per message class.

        The callback :meth:`Component.wake` schedules (see
        :meth:`Router._run_tick`).

        Event-driven counterpart of the old poll-every-cycle loop: a class
        whose head packet fits reserves downstream space and re-wakes next
        cycle only if more packets queue behind it; a class blocked on a
        full VC registers this interface's wake callback with that VC and
        sleeps until its next ``pop`` returns credit.
        """
        if self._next_wake != self.sim.cycle:
            return  # stale callback superseded by an earlier wake request
        self._next_wake = -1
        progressed = False
        schedule_call = self.sim.schedule_call
        deliver = self._router.receive_packet
        for queue, vc_index, vc in self._inject_vcs:
            if not queue:
                continue
            packet = queue[0]
            flits = packet.num_flits
            # Inlined can_reserve/reserve (hot loop); must stay equivalent
            # to VirtualChannelBuffer.can_reserve's admission test.
            reserved = vc._reserved_flits
            if reserved + flits <= vc.capacity_flits or not reserved:
                vc._reserved_flits = reserved + flits
                queue.popleft()
                schedule_call(
                    deliver, (packet, self._router_port, vc_index), self.injection_latency
                )
                if queue:
                    progressed = True
            else:
                vc.wait_for_space(self._credit_wake)
        if progressed:
            self.wake(1)

    @property
    def injection_backlog(self) -> int:
        """Packets waiting to enter the network."""
        return sum(len(q) for q in self._inject_queues.values())

    # ------------------------------------------------------------------ #
    # Ejection
    # ------------------------------------------------------------------ #
    def receive_packet(self, packet: Message, in_port: int, vc_index: int) -> None:
        vc = self.input_ports[in_port].vcs[vc_index]
        vc.push(packet)
        vc.pop()  # the ejection port drains immediately; capacity is unbounded
        serialization = max(0, packet.num_flits - 1)
        self.sim.schedule_call(self._on_delivery, (packet,), serialization)
