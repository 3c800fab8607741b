"""Open-loop synthetic traffic: per-cycle Bernoulli injection over a NoC.

One generator, :class:`OpenLoopTrafficGenerator`, drives every synthetic
traffic pattern.  It takes an arrival process (the per-cycle injection
probability, :mod:`repro.tenancy.arrivals`) and a destination picker (a
traffic matrix, :mod:`repro.tenancy.matrices`); subclasses change only
the message each injection sends.

* :class:`UniformRandomTrafficGenerator` — constant-rate uniform-random
  traffic over every node, for classic NoC characterisation without
  cores or caches.
* :class:`repro.tenancy.traffic.TenantTraffic` — one tenant's probe
  overlay inside a full chip.
"""

from __future__ import annotations

import random
from typing import Callable, Sequence

from repro.noc.message import Message, MessageClass, control_message_bits, data_message_bits
from repro.noc.network import Network
from repro.sim.component import Component
from repro.sim.kernel import Simulator
from repro.tenancy.arrivals import ArrivalProcess, make_arrival
from repro.tenancy.matrices import MatrixContext, make_matrix


class OpenLoopTrafficGenerator(Component):
    """Per-cycle Bernoulli injection from a set of sources.

    Each cycle (counted from :meth:`start`) the arrival process gives the
    injection probability; every source then injects with that
    probability to the destination ``pick_destination`` draws, unless
    that is the source itself.  With ``register_endpoints`` the generator
    absorbs deliveries at every network node; an in-chip overlay leaves
    the endpoints to the chip's tiles.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        sources: Sequence[int],
        arrival: ArrivalProcess,
        pick_destination: Callable[[int, random.Random], int],
        seed: int = 0,
        name: str = "open_loop_traffic",
        register_endpoints: bool = True,
    ) -> None:
        super().__init__(sim, name)
        self.network = network
        self.sources = list(sources)
        duplicates = sorted({n for n in self.sources if self.sources.count(n) > 1})
        if duplicates:
            raise ValueError(
                f"{name}: duplicate source node(s) {duplicates} would inject "
                f"a silently doubled load; pass each source once"
            )
        self.arrival = arrival
        self._pick_destination = pick_destination
        self.rng = random.Random(seed)
        self.messages_generated = self.stats.counter("messages_generated")
        self._start_cycle = 0
        self._control_bits = control_message_bits()
        self._data_bits = data_message_bits()
        if register_endpoints:
            for node in self.sources:
                network.register_endpoint(node, self._sink)
            for node in set(network.node_ids) - set(self.sources):
                network.register_endpoint(node, self._sink)

    def _sink(self, message: Message) -> None:
        """Traffic generators simply absorb delivered messages."""

    def start(self) -> None:
        self._start_cycle = self.sim.cycle
        self.wake(0)

    def _message(self, source: int, destination: int) -> Message:
        """The message one injection sends: request or response at even odds."""
        if self.rng.random() < 0.5:
            msg_class, bits = MessageClass.REQUEST, self._control_bits
        else:
            msg_class, bits = MessageClass.RESPONSE, self._data_bits
        return Message(src=source, dst=destination, msg_class=msg_class, size_bits=bits)

    def _tick(self) -> None:
        # This runs every cycle for every source, so hoist the per-draw
        # attribute lookups.  The RNG draw *sequence* is part of the model's
        # deterministic contract (MODEL_VERSION policy).
        rng = self.rng
        rand = rng.random
        rate = self.arrival.rate(self.sim.cycle - self._start_cycle, rng)
        pick = self._pick_destination
        message = self._message
        send = self.network.send
        generated = self.messages_generated
        for source in self.sources:
            if rand() >= rate:
                continue
            destination = pick(source, rng)
            if destination == source:
                continue
            send(message(source, destination))
            generated.add()
        self.wake(1)


class UniformRandomTrafficGenerator(OpenLoopTrafficGenerator):
    """Each source sends to a uniformly random node at a constant rate."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        sources: Sequence[int],
        injection_rate: float,
        seed: int = 0,
    ) -> None:
        super().__init__(
            sim,
            network,
            sources,
            arrival=make_arrival("poisson", injection_rate),
            pick_destination=make_matrix("uniform", MatrixContext(tuple(network.node_ids))),
            seed=seed,
            name="uniform_traffic",
        )
