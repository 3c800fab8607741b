"""Virtual-channel buffers with reservation-based flow control.

Instead of simulating credit signalling cycle by cycle, upstream routers
*reserve* space in the downstream virtual channel at arbitration time and
the reservation is converted into occupancy when the packet arrives.  This
conserves buffer bounds exactly while keeping the simulator fast; the
credit round-trip time is folded into the buffer depth, matching the
paper's choice of "5 flits per VC ... the minimum necessary to cover the
round-trip credit time".
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, List, Optional

from repro.noc.message import MessageClass, Packet


class VirtualChannelBuffer:
    """One virtual channel: a FIFO of packets with flit-granular capacity."""

    __slots__ = (
        "name",
        "capacity_flits",
        "_reserved_flits",
        "_occupied_flits",
        "_queue",
        "_space_waiters",
        "head_route",
    )

    def __init__(self, capacity_flits: int, name: str = "vc") -> None:
        if capacity_flits < 1:
            raise ValueError("capacity_flits must be >= 1")
        self.name = name
        self.capacity_flits = capacity_flits
        self._reserved_flits = 0
        self._occupied_flits = 0
        self._queue: deque = deque()
        #: One-shot credit listeners: callables invoked (and cleared) when a
        #: reservation is released, i.e. when space can actually free up.
        #: A dict (insertion-ordered) rather than a list: registration is
        #: O(1) with duplicates deduplicated by key, and notification walks
        #: the keys in registration order.
        self._space_waiters: Dict[Callable[[], None], None] = {}
        #: Routing decision cached for the current head packet, managed by
        #: the owning router: ``(packet, out_index, out_port,
        #: downstream_vc_index, downstream_vc)`` — see ``Router._head_route``.
        self.head_route: Optional[tuple] = None

    # ------------------------------------------------------------------ #
    def can_reserve(self, flits: int) -> bool:
        """Whether a packet of ``flits`` flits may be admitted.

        A packet larger than the whole VC may be admitted only into an empty
        VC; this models a long packet stretching back over the upstream link
        (wormhole spill) without deadlocking small tree buffers.
        """
        if flits <= 0:
            raise ValueError("flits must be positive")
        if self._reserved_flits + flits <= self.capacity_flits:
            return True
        return self._reserved_flits == 0

    def reserve(self, flits: int) -> None:
        """Reserve space for an in-flight packet."""
        if not self.can_reserve(flits):
            raise RuntimeError(f"{self.name}: reservation overflow ({flits} flits)")
        self._reserved_flits += flits

    def push(self, packet: Packet) -> None:
        """Deposit an arriving packet (its space must have been reserved)."""
        self._occupied_flits += packet.num_flits
        self._queue.append(packet)

    def peek(self) -> Optional[Packet]:
        """Head-of-line packet, if any."""
        return self._queue[0] if self._queue else None

    def pop(self) -> Packet:
        """Remove the head packet, release its reservation, notify waiters.

        Releasing a reservation is the only way this VC can gain space, so
        ``pop`` is the single credit-return point: every waiter registered
        via :meth:`wait_for_space` is woken exactly here (and the waiter
        list cleared), which lets a blocked upstream component sleep instead
        of polling for credit every cycle.
        """
        if not self._queue:
            raise RuntimeError(f"{self.name}: pop from empty VC")
        packet = self._queue.popleft()
        self._occupied_flits -= packet.num_flits
        self._reserved_flits -= packet.num_flits
        if self._reserved_flits < 0 or self._occupied_flits < 0:
            raise RuntimeError(f"{self.name}: negative occupancy (flow-control bug)")
        self.head_route = None
        waiters = self._space_waiters
        if waiters:
            self._space_waiters = {}
            for waiter in waiters:
                waiter()
        return packet

    def wait_for_space(self, waiter: Callable[[], None]) -> None:
        """Register a one-shot credit listener (deduplicated, O(1)).

        ``waiter`` is invoked the next time a reservation is released via
        :meth:`pop`, in registration order.  Upstream components that find
        this VC full register their (bound, reused) wake callback instead of
        re-polling; registering an already-registered waiter is a no-op, so
        a component blocked over many cycles costs no queue growth and no
        kernel events at all.
        """
        self._space_waiters[waiter] = None

    # ------------------------------------------------------------------ #
    @property
    def occupancy_flits(self) -> int:
        return self._occupied_flits

    @property
    def reserved_flits(self) -> int:
        return self._reserved_flits

    @property
    def empty(self) -> bool:
        return not self._queue

    def __len__(self) -> int:
        return len(self._queue)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"VirtualChannelBuffer({self.name}, {self._occupied_flits}/"
            f"{self.capacity_flits} flits, {len(self._queue)} pkts)"
        )


class InputPort:
    """A router input port: one VC per message class (possibly shared).

    ``vc_map`` maps a :class:`MessageClass` to a VC index; ports with fewer
    VCs than message classes (e.g. the two-VC tree ports of NOC-Out) share
    a VC between classes that can never conflict on that port.
    """

    def __init__(
        self,
        num_vcs: int,
        vc_depth_flits: int,
        name: str = "port",
        vc_map: Optional[Dict[MessageClass, int]] = None,
    ) -> None:
        if num_vcs < 1:
            raise ValueError("num_vcs must be >= 1")
        self.name = name
        self.num_vcs = num_vcs
        self.vc_depth_flits = vc_depth_flits
        self.vcs: List[VirtualChannelBuffer] = [
            VirtualChannelBuffer(vc_depth_flits, name=f"{name}.vc{i}") for i in range(num_vcs)
        ]
        if vc_map is None:
            vc_map = {cls: min(int(cls), num_vcs - 1) for cls in MessageClass}
        self._vc_map = dict(vc_map)
        for cls, idx in self._vc_map.items():
            if not 0 <= idx < num_vcs:
                raise ValueError(f"vc_map[{cls}] = {idx} out of range")

    def vc_index_for(self, msg_class: MessageClass) -> int:
        """Virtual channel index assigned to ``msg_class``."""
        return self._vc_map[msg_class]

    def vc_for(self, msg_class: MessageClass) -> VirtualChannelBuffer:
        """Virtual channel buffer assigned to ``msg_class``."""
        return self.vcs[self.vc_index_for(msg_class)]

    @property
    def occupancy_flits(self) -> int:
        return sum(vc.occupancy_flits for vc in self.vcs)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"InputPort({self.name}, vcs={self.num_vcs})"


def unbounded_input_port(num_vcs: int = len(MessageClass), name: str = "eject") -> InputPort:
    """An ejection-side port that never back-pressures the network."""
    return InputPort(num_vcs=num_vcs, vc_depth_flits=10**9, name=name)
