"""One tenant's open-loop probe overlay inside a full chip.

:class:`TenantTraffic` is :class:`repro.workloads.traffic
.OpenLoopTrafficGenerator` with a different message: it injects
request-class *probe* messages from the tenant's cores toward the LLC
(per the tenant's traffic matrix); the receiving tile echoes a
data-class response back, and the round-trip time lands in a reservoir
histogram.  Probes share links, routers and virtual networks with the
coherence traffic — the interference is fabric-borne, which is exactly
what the co-location figures measure.
"""

from __future__ import annotations

import random
from typing import Callable, Sequence

from repro.noc.message import Message, MessageClass
from repro.noc.network import Network
from repro.sim.kernel import Simulator
from repro.sim.stats import DEFAULT_RESERVOIR
from repro.tenancy.arrivals import ArrivalProcess
from repro.workloads.traffic import OpenLoopTrafficGenerator


class TenantProbe:
    """Payload of an open-loop probe message.

    Tiles recognise the type and hand the message straight back to the
    owning generator's :meth:`TenantTraffic.on_probe` — the probe rides
    the fabric like any coherence message but never touches cache state.
    """

    __slots__ = ("tenant", "created_cycle", "sink")

    def __init__(
        self, tenant: str, created_cycle: int, sink: Callable[[Message], None]
    ) -> None:
        self.tenant = tenant
        self.created_cycle = created_cycle
        self.sink = sink

    def __repr__(self) -> str:
        return f"TenantProbe({self.tenant!r}, created={self.created_cycle})"


class TenantTraffic(OpenLoopTrafficGenerator):
    """One tenant's open-loop probe overlay inside a full chip.

    Does *not* register endpoints (the chip's tiles own every node); the
    probes it injects are dispatched back to :meth:`on_probe` by
    :class:`repro.chip.tile.Tile`.  Request probes arriving at their
    destination are echoed as data-class responses to the originating
    core; a response arriving back closes the loop and records the
    round-trip latency.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        tenant: str,
        sources: Sequence[int],
        arrival: ArrivalProcess,
        pick_destination: Callable[[int, random.Random], int],
        seed: int = 0,
        reservoir: int = DEFAULT_RESERVOIR,
    ) -> None:
        super().__init__(
            sim,
            network,
            sources,
            arrival,
            pick_destination,
            seed=seed,
            name=f"tenant_traffic[{tenant}]",
            register_endpoints=False,
        )
        self.tenant = tenant
        self.probes_sent = self.stats.counter("probes_sent")
        self.probes_echoed = self.stats.counter("probes_echoed")
        self.round_trip_latency = self.stats.histogram(
            "round_trip_latency", keep_samples=True, reservoir=reservoir
        )

    def _message(self, source: int, destination: int) -> Message:
        """A request-class probe; no class draw."""
        self.probes_sent.add()
        return Message(
            src=source,
            dst=destination,
            msg_class=MessageClass.REQUEST,
            size_bits=self._control_bits,
            payload=TenantProbe(self.tenant, self.sim.cycle, self.on_probe),
        )

    def on_probe(self, message: Message) -> None:
        """Handle a delivered probe: echo requests, time responses."""
        probe = message.payload
        if message.msg_class is MessageClass.REQUEST:
            self.probes_echoed.add()
            self.network.send(
                Message(
                    src=message.dst,
                    dst=message.src,
                    msg_class=MessageClass.RESPONSE,
                    size_bits=self._data_bits,
                    payload=probe,
                )
            )
        else:
            self.round_trip_latency.add(self.sim.cycle - probe.created_cycle)
