"""Unit tests for the generic virtual-cut-through router."""

import pytest

from repro.noc.buffer import InputPort, unbounded_input_port
from repro.noc.message import Message, MessageClass, flit_count
from repro.noc.router import PacketSink, Router
from repro.sim.kernel import Simulator


class SinkRecorder(PacketSink):
    """A downstream endpoint that records arrival cycles."""

    def __init__(self, sim):
        self.sim = sim
        self.input_ports = [unbounded_input_port()]
        self.received = []

    def receive_packet(self, packet, in_port, vc_index):
        self.received.append((packet, self.sim.cycle))


def make_packet(dst=5, flits=1, msg_class=MessageClass.REQUEST, src=0):
    """A message as injection leaves it: stamped with its 128-bit flit count."""
    message = Message(src=src, dst=dst, msg_class=msg_class, size_bits=flits * 128)
    message.num_flits = flit_count(message.size_bits, 128)
    return message


def make_router(sim, pipeline=2, route_fn=None):
    return Router(sim, "r0", pipeline_latency=pipeline, route_fn=route_fn)


def inject(router, packet, in_port=0):
    vc_index = router.input_ports[in_port].vc_index_for(packet.msg_class)
    vc = router.input_ports[in_port].vcs[vc_index]
    vc.reserve(packet.num_flits)
    router.receive_packet(packet, in_port, vc_index)


def test_single_hop_latency_is_pipeline_plus_link():
    sim = Simulator()
    sink = SinkRecorder(sim)
    router = make_router(sim, pipeline=2, route_fn=lambda dst: sink)
    router.add_input_port(InputPort(3, 5))
    router.add_output_port("out", sink, 0, link_latency=1)

    inject(router, make_packet())
    sim.run(10)
    assert len(sink.received) == 1
    _packet, arrival = sink.received[0]
    assert arrival == 3  # 2-cycle pipeline + 1-cycle link


def test_packet_hops_are_counted():
    sim = Simulator()
    sink = SinkRecorder(sim)
    router = make_router(sim, route_fn=lambda dst: sink)
    router.add_input_port(InputPort(3, 5))
    router.add_output_port("out", sink, 0, link_latency=1)
    packet = make_packet()
    inject(router, packet)
    sim.run(10)
    assert packet.hops == 1


def test_missing_route_raises():
    sim = Simulator()
    sink = SinkRecorder(sim)
    routes = {5: sink}
    router = make_router(sim, route_fn=routes.__getitem__)
    router.add_input_port(InputPort(3, 5))
    router.add_output_port("out", sink, 0, link_latency=1)
    with pytest.raises(KeyError):
        router.route(make_packet(dst=99))


def test_serialization_holds_output_port():
    sim = Simulator()
    sink = SinkRecorder(sim)
    router = make_router(sim, pipeline=1, route_fn=lambda dst: sink)
    router.add_input_port(InputPort(3, 20))
    router.add_output_port("out", sink, 0, link_latency=1)

    first = make_packet(flits=5, msg_class=MessageClass.RESPONSE)
    second = make_packet(flits=5, msg_class=MessageClass.RESPONSE)
    inject(router, first)
    inject(router, second)
    sim.run(30)
    assert len(sink.received) == 2
    arrivals = [cycle for _pkt, cycle in sink.received]
    # The second packet waits for the first packet's 5-flit serialization.
    assert arrivals[1] - arrivals[0] >= 5


class NeverDrainingSink(PacketSink):
    """A downstream port with finite buffering that never frees space."""

    def __init__(self):
        self.input_ports = [InputPort(3, vc_depth_flits=5)]
        self.received = []

    def receive_packet(self, packet, in_port, vc_index):
        self.input_ports[in_port].vcs[vc_index].push(packet)
        self.received.append(packet)


def test_backpressure_blocks_forwarding():
    sim = Simulator()
    downstream = NeverDrainingSink()
    router = make_router(sim, route_fn=lambda dst: downstream)
    router.add_input_port(InputPort(3, 20))
    router.add_output_port("out", downstream, 0, link_latency=1)

    for _ in range(3):
        inject(router, make_packet(flits=5, msg_class=MessageClass.RESPONSE))
    sim.run(50)
    # Only the first packet fits into the 5-flit downstream VC.
    assert len(downstream.received) == 1
    assert router.buffered_packets == 2


def test_separate_message_classes_use_separate_vcs():
    sim = Simulator()
    sink = SinkRecorder(sim)
    router = make_router(sim, route_fn=lambda dst: sink)
    port = InputPort(3, 5)
    router.add_input_port(port)
    router.add_output_port("out", sink, 0, link_latency=1)
    request = make_packet(msg_class=MessageClass.REQUEST)
    response = make_packet(msg_class=MessageClass.RESPONSE)
    inject(router, request)
    inject(router, response)
    assert port.vcs[0].occupancy_flits == 1
    assert port.vcs[2].occupancy_flits == 1
    sim.run(10)
    assert len(sink.received) == 2


def test_activity_counters_track_flits():
    sim = Simulator()
    sink = SinkRecorder(sim)
    router = make_router(sim, route_fn=lambda dst: sink)
    router.add_input_port(InputPort(3, 10))
    router.add_output_port("out", sink, 0, link_latency=1, link_length_mm=2.0)
    inject(router, make_packet(flits=5, msg_class=MessageClass.RESPONSE))
    sim.run(10)
    assert router.flits_switched.value == 5
    assert router.buffer_flit_writes.value == 5
    assert router.output_ports[0].flits_sent.value == 5


def test_radix_reflects_port_count():
    sim = Simulator()
    router = make_router(sim)
    sink = SinkRecorder(sim)
    for _ in range(3):
        router.add_input_port(InputPort(3, 5))
    router.add_output_port("out", sink, 0, link_latency=1)
    assert router.radix == 3


def test_zero_latency_hop_rejected():
    sim = Simulator()
    router = Router(sim, "r", pipeline_latency=0)
    sink = SinkRecorder(sim)
    with pytest.raises(ValueError):
        router.add_output_port("out", sink, 0, link_latency=0)


def inject_at(sim, router, cycle, packets):
    """Stage ``(in_port, packet)`` pairs into ``router`` at ``cycle``."""

    def stage():
        for in_port, packet in packets:
            inject(router, packet, in_port)

    sim.schedule_at(stage, cycle)


def test_round_robin_rotation_survives_an_uncontended_round():
    # Three input ports contend for one output.  Each packet's ``src``
    # names its input port, so the sink sees the forwarding order.
    sim = Simulator()
    sink = SinkRecorder(sim)
    router = make_router(sim, route_fn=lambda dst: sink)
    for _ in range(3):
        router.add_input_port(InputPort(3, 5))
    router.add_output_port("out", sink, 0, link_latency=1)

    inject_at(sim, router, 0, [(port, make_packet(src=port)) for port in range(3)])
    # Round 1 ends with port 2 winning alone; round 2's lone win on port 0
    # must move the rotation point there, so round 3 starts at port 1.
    inject_at(sim, router, 10, [(0, make_packet(src=0))])
    inject_at(sim, router, 20, [(port, make_packet(src=port)) for port in range(3)])
    inject_at(sim, router, 30, [(port, make_packet(src=port)) for port in (0, 2)])
    sim.run(40)
    order = [packet.src for packet, _cycle in sink.received]
    assert order == [0, 1, 2, 0, 1, 2, 0, 2, 0]


class TerminalRecorder(SinkRecorder):
    """A recording sink a tree can terminate at (it accepts an input port)."""

    def __init__(self, sim):
        super().__init__(sim)
        self.input_ports = []

    def add_input_port(self, port):
        self.input_ports.append(port)
        return len(self.input_ports) - 1


def test_tree_node_forwards_in_paper_priority_order():
    # Section 4.1: network responses, local responses, network requests,
    # local requests.  Stage one of each in the node next to the terminal,
    # all in the same cycle, and read the order they leave in.
    from repro.config.system import SystemConfig
    from repro.core.reduction_tree import build_reduction_tree
    from repro.noc.interface import NetworkInterface

    sim = Simulator()
    config = SystemConfig()
    terminal = TerminalRecorder(sim)
    interfaces = [
        NetworkInterface(sim, f"ni{node}", node, 128, on_delivery=lambda packet: None)
        for node in range(2)
    ]
    nodes = build_reduction_tree(
        sim, config, "tree", [[interfaces[0]], [interfaces[1]]], terminal,
        unbounded_input_port(), destinations=[5], hop_length_mm=1.0,
    )
    node = nodes[1]
    local_port, network_port = 0, 1
    assert node.input_ports[local_port].name == "tree.n1.local"
    assert node.input_ports[network_port].name == "tree.n1.from_upstream"

    local_request = make_packet(src=0, msg_class=MessageClass.REQUEST)
    network_request = make_packet(src=1, msg_class=MessageClass.REQUEST)
    local_response = make_packet(src=2, msg_class=MessageClass.RESPONSE)
    network_response = make_packet(src=3, msg_class=MessageClass.RESPONSE)
    inject_at(sim, node, 0, [
        (local_port, local_request),
        (network_port, network_request),
        (local_port, local_response),
        (network_port, network_response),
    ])
    sim.run(20)
    order = [packet for packet, _cycle in terminal.received]
    assert order == [network_response, local_response, network_request, local_request]
