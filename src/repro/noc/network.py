"""Base class shared by every interconnect model."""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Mapping, Optional

from repro.config.system import SystemConfig
from repro.sim.component import Component
from repro.sim.kernel import Simulator
from repro.sim.stats import DEFAULT_RESERVOIR, Histogram
from repro.noc.buffer import InputPort
from repro.noc.interface import NetworkInterface
from repro.noc.message import Message, MessageClass, Packet
from repro.noc.router import Router

DeliveryCallback = Callable[[Message], None]


class Network(Component):
    """Common machinery for all interconnects.

    A network knows the set of node identifiers that can send/receive
    messages.  Endpoints register a delivery callback per node; the network
    owns one :class:`NetworkInterface` per node plus whatever routers the
    topology requires.  ``send`` is the single entry point used by the cache
    hierarchy.
    """

    #: Latency charged when source and destination share a network node
    #: (e.g. a core accessing the LLC slice in its own tile).
    LOCAL_DELIVERY_LATENCY = 1

    def __init__(self, sim: Simulator, config: SystemConfig, name: str, node_ids: Iterable[int]) -> None:
        super().__init__(sim, name)
        self.system = config
        self.noc = config.noc
        self.tech = config.technology
        self.node_ids: List[int] = sorted(node_ids)
        self.routers: List[Router] = []
        self.interfaces: Dict[int, NetworkInterface] = {}
        self._delivery_callbacks: Dict[int, DeliveryCallback] = {}

        stats = self.stats
        self.messages_sent = stats.counter("messages_sent")
        self.messages_delivered = stats.counter("messages_delivered")
        self.local_deliveries = stats.counter("local_deliveries")
        self.flit_hops = stats.counter("flit_hops")
        self.latency_by_class = {
            cls: stats.histogram(f"latency_{cls.name.lower()}", keep_samples=False)
            for cls in MessageClass
        }
        self.hop_histogram = stats.histogram("hops", keep_samples=False)
        #: node -> tenant label; when set, every delivery is attributed to
        #: a tenant (by source node, else destination) and its latency
        #: recorded in a per-tenant reservoir histogram.
        self._tenant_of: Optional[Dict[int, str]] = None
        self._tenant_latency: Dict[str, Histogram] = {}

        for node_id in self.node_ids:
            self.interfaces[node_id] = self._create_interface(node_id)

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    def _create_interface(self, node_id: int) -> NetworkInterface:
        return NetworkInterface(
            self.sim,
            f"{self.name}.ni{node_id}",
            node_id,
            self.noc.link_width_bits,
            on_delivery=self._on_delivery,
        )

    def attach_interface(
        self,
        node_id: int,
        router: Router,
        input_port: InputPort,
        eject_name: Optional[str] = None,
    ) -> None:
        """Join node ``node_id``'s interface to ``router``: it injects into
        ``input_port`` (added as a local port) and the router ejects to it
        through an output port named ``eject_name`` (``eject<node>``)."""
        interface = self.interfaces[node_id]
        interface.attach_router(router, router.add_input_port(input_port, is_local=True))
        router.add_output_port(
            eject_name or f"eject{node_id}", interface, 0, link_latency=0
        )

    def register_endpoint(self, node_id: int, deliver: DeliveryCallback) -> None:
        """Register the callback invoked when a message reaches ``node_id``."""
        if node_id not in self.interfaces:
            raise KeyError(f"{self.name}: unknown node {node_id}")
        self._delivery_callbacks[node_id] = deliver

    def set_tenants(
        self, tenant_of: Mapping[int, str], reservoir: int = DEFAULT_RESERVOIR
    ) -> None:
        """Enable per-tenant delivery-latency attribution.

        ``tenant_of`` maps node ids (typically the cores each tenant owns)
        to tenant labels.  Deliveries are attributed source-first (a
        response heading back to a core counts for that core's tenant via
        its destination); unattributed traffic (e.g. LLC -> memory
        controller) is not recorded.  Histograms are reservoir-bounded so
        long runs cannot grow memory without bound.
        """
        self._tenant_of = dict(tenant_of)
        tenants = self.stats.group("tenants")
        self._tenant_latency = {}
        for label in dict.fromkeys(self._tenant_of.values()):
            self._tenant_latency[label] = tenants.histogram(
                f"latency[{label}]", keep_samples=True, reservoir=reservoir
            )

    def tenant_latency_histograms(self) -> Dict[str, Histogram]:
        """Per-tenant delivery-latency histograms (empty when untenanted)."""
        return dict(self._tenant_latency)

    def _record_tenant_latency(self, message: Message, latency: int) -> None:
        tenant_of = self._tenant_of
        label = tenant_of.get(message.src)
        if label is None:
            label = tenant_of.get(message.dst)
        if label is not None:
            self._tenant_latency[label].add(latency)

    # ------------------------------------------------------------------ #
    # Message transport
    # ------------------------------------------------------------------ #
    def send(self, message: Message) -> None:
        """Inject ``message`` into the network."""
        if message.dst not in self.interfaces:
            raise KeyError(f"{self.name}: unknown destination node {message.dst}")
        if message.src not in self.interfaces:
            raise KeyError(f"{self.name}: unknown source node {message.src}")
        message.created_cycle = self.sim.cycle
        self.messages_sent.add()
        if message.src == message.dst:
            self.local_deliveries.add()
            self.sim.schedule_call(
                self._deliver_local, (message,), self.LOCAL_DELIVERY_LATENCY
            )
            return
        self._inject(message)

    def _inject(self, message: Message) -> None:
        """Topology-specific injection; default goes through the source NI."""
        self.interfaces[message.src].inject(message)

    def _deliver_local(self, message: Message) -> None:
        self.messages_delivered.add()
        latency = self.sim.cycle - message.created_cycle
        self.latency_by_class[message.msg_class].add(latency)
        self.hop_histogram.add(0)
        if self._tenant_of is not None:
            self._record_tenant_latency(message, latency)
        self._dispatch(message)

    def _on_delivery(self, packet: Packet) -> None:
        message = packet.message
        self.messages_delivered.add()
        latency = self.sim.cycle - message.created_cycle
        self.latency_by_class[message.msg_class].add(latency)
        self.hop_histogram.add(packet.hops)
        self.flit_hops.add(packet.num_flits * packet.hops)
        if self._tenant_of is not None:
            self._record_tenant_latency(message, latency)
        self._dispatch(message)

    def _dispatch(self, message: Message) -> None:
        try:
            callback = self._delivery_callbacks[message.dst]
        except KeyError:
            raise RuntimeError(
                f"{self.name}: no endpoint registered for node {message.dst}"
            ) from None
        callback(message)

    # ------------------------------------------------------------------ #
    # Introspection for analysis / energy models
    # ------------------------------------------------------------------ #
    def mean_latency(self, msg_class: Optional[MessageClass] = None) -> float:
        """Mean delivery latency in cycles (optionally for one class)."""
        if msg_class is not None:
            return self.latency_by_class[msg_class].mean
        total = sum(h.total for h in self.latency_by_class.values())
        count = sum(h.count for h in self.latency_by_class.values())
        return total / count if count else 0.0

    def mean_hops(self) -> float:
        return self.hop_histogram.mean

    def activity(self) -> Dict[str, float]:
        """Aggregate switching/link activity used by the energy model."""
        link_flit_mm = 0.0
        buffer_flit_writes = 0
        crossbar_flit_ports = 0.0
        flits_switched = 0
        for router in self.routers:
            switched = router.flits_switched.value
            flits_switched += switched
            buffer_flit_writes += router.buffer_flit_writes.value
            crossbar_flit_ports += switched * router.radix
            for port in router.output_ports:
                link_flit_mm += port.flits_sent.value * port.link_length_mm
        flits_injected = sum(ni.flits_injected.value for ni in self.interfaces.values())
        return {
            "flits_injected": float(flits_injected),
            "flits_switched": float(flits_switched),
            "buffer_flit_writes": float(buffer_flit_writes),
            "crossbar_flit_ports": float(crossbar_flit_ports),
            "link_flit_mm": link_flit_mm,
            "flit_width_bits": float(self.noc.link_width_bits),
        }

    def drained(self) -> bool:
        """Whether no packets remain buffered anywhere in the network."""
        backlog = any(ni.injection_backlog for ni in self.interfaces.values())
        buffered = any(router.buffered_packets for router in self.routers)
        return not backlog and not buffered

    def _tick(self) -> None:  # pragma: no cover - networks do not tick themselves
        pass
