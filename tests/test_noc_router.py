"""Unit tests for the generic virtual-cut-through router."""

import pytest

from repro.noc.buffer import InputPort, unbounded_input_port
from repro.noc.message import Message, MessageClass, Packet
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


def make_packet(dst=5, flits=1, msg_class=MessageClass.REQUEST):
    return Packet(
        Message(src=0, dst=dst, msg_class=msg_class, size_bits=flits * 128), 128
    )


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
