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

from functools import lru_cache
from typing import Callable, Dict, List, Optional, Sequence

from repro.noc.message import MESSAGE_CLASSES, Message, MessageClass


class VirtualChannelBuffer:
    """One virtual channel: a FIFO of packets with flit-granular capacity.

    A 2048-core mesh builds about 30,000 of these and most never hold a
    packet, so a VC is kept small.  Until its first :meth:`push` its queue
    is a shared empty tuple; from then on it is a plain list: admission
    by reservation keeps a router VC at or below its capacity in packets
    (a handful), and an ejection VC is popped as soon as it is pushed, so
    removing the head stays cheap.  Its credit-listener dict exists only
    while a listener waits.  It formats no name: :attr:`name`
    (``<port>.vc<i>``) is built from the owning port's name and the VC's
    index when an error message needs it.
    """

    __slots__ = (
        "port_name",
        "index",
        "capacity_flits",
        "_reserved_flits",
        "_occupied_flits",
        "_queue",
        "_space_waiters",
        "head_route",
        "state",
    )

    def __init__(self, capacity_flits: int, port_name: str = "port", index: int = 0) -> None:
        if capacity_flits < 1:
            raise ValueError("capacity_flits must be >= 1")
        self.port_name = port_name
        self.index = index
        self.capacity_flits = capacity_flits
        self._reserved_flits = 0
        self._occupied_flits = 0
        self._queue: Sequence[Message] = ()
        #: One-shot credit listeners, or ``None`` while nobody waits: a dict
        #: created by the first :meth:`wait_for_space` and dropped by the
        #: :meth:`pop` that notifies it.  A dict (insertion-ordered) rather
        #: than a list: registration is O(1) with duplicates deduplicated by
        #: key, and notification walks the keys in registration order.
        self._space_waiters: Optional[Dict[Callable[[], None], None]] = None
        #: Routing decision cached for the current head packet, managed by
        #: the owning router: ``(packet, out_index, out_port,
        #: downstream_vc_index, downstream_vc)`` — see ``Router._head_route``.
        self.head_route: Optional[tuple] = None
        #: The owning router's switching state for this VC, made on its
        #: first packet (``repro.noc.router._VcState``).
        self.state = None

    @property
    def name(self) -> str:
        """``<port>.vc<i>``, formatted on demand (error messages only)."""
        return f"{self.port_name}.vc{self.index}"

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

    def push(self, packet: Message) -> None:
        """Deposit an arriving packet (its space must have been reserved)."""
        self._occupied_flits += packet.num_flits
        try:
            self._queue.append(packet)
        except AttributeError:  # the first push: swap the shared tuple for a list
            self._queue = [packet]

    def peek(self) -> Optional[Message]:
        """Head-of-line packet, if any."""
        return self._queue[0] if self._queue else None

    def pop(self) -> Message:
        """Remove the head packet, release its reservation, notify waiters.

        Releasing a reservation is the only way this VC can gain space, so
        ``pop`` is the single credit-return point: every waiter registered
        via :meth:`wait_for_space` is woken exactly here (and the listener
        dict dropped), which lets a blocked upstream component sleep instead
        of polling for credit every cycle.
        """
        queue = self._queue
        if not queue:
            raise RuntimeError(f"{self.name}: pop from empty VC")
        packet = queue.pop(0)
        self._occupied_flits -= packet.num_flits
        self._reserved_flits -= packet.num_flits
        if self._reserved_flits < 0 or self._occupied_flits < 0:
            raise RuntimeError(f"{self.name}: negative occupancy (flow-control bug)")
        self.head_route = None
        waiters = self._space_waiters
        if waiters is not None:
            self._space_waiters = None
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
        kernel events at all.  The listener dict is created here, on the
        first registration since the last notifying ``pop``.
        """
        waiters = self._space_waiters
        if waiters is None:
            self._space_waiters = {waiter: None}
        else:
            waiters[waiter] = None

    # ------------------------------------------------------------------ #
    @property
    def occupancy_flits(self) -> int:
        return self._occupied_flits

    @property
    def reserved_flits(self) -> int:
        return self._reserved_flits

    def __len__(self) -> int:
        return len(self._queue)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"VirtualChannelBuffer({self.name}, {self._occupied_flits}/"
            f"{self.capacity_flits} flits, {len(self._queue)} pkts)"
        )


@lru_cache(maxsize=None)
def default_vc_map(num_vcs: int) -> Dict[MessageClass, int]:
    """Message class ``i`` on VC ``min(i, num_vcs - 1)``; shared, never mutated."""
    return {cls: min(int(cls), num_vcs - 1) for cls in MESSAGE_CLASSES}


class InputPort:
    """A router input port: one VC per message class (possibly shared).

    ``vc_map`` maps a :class:`MessageClass` to a VC index; ports with fewer
    VCs than message classes (e.g. the two-VC tree ports of NOC-Out) share
    a VC between classes that can never conflict on that port.  The map is
    held by reference, never copied or mutated: ports without one share
    :func:`default_vc_map`'s (in range by construction), and an explicit
    map is validated here, so callers building many ports can share one
    (``tree_input_port``).
    """

    __slots__ = ("name", "num_vcs", "vc_depth_flits", "vcs", "_vc_map")

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
            VirtualChannelBuffer(vc_depth_flits, name, i) for i in range(num_vcs)
        ]
        if vc_map is None:
            vc_map = default_vc_map(num_vcs)
        else:
            for cls, idx in vc_map.items():
                if not 0 <= idx < num_vcs:
                    raise ValueError(f"vc_map[{cls}] = {idx} out of range")
        self._vc_map = vc_map

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


def unbounded_input_port(num_vcs: int = len(MESSAGE_CLASSES), name: str = "eject") -> InputPort:
    """An ejection-side port that never back-pressures the network."""
    return InputPort(num_vcs=num_vcs, vc_depth_flits=10**9, name=name)
