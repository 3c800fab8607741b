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


class RecordingSink(PacketSink):
    """A downstream port that keeps what it receives, recording each
    packet's VC and arrival cycle; ``drain`` pops a VC as the next hop would."""

    def __init__(self, sim, input_port):
        self.sim = sim
        self.input_ports = [input_port]
        self.received = []
        self.arrivals = []

    def receive_packet(self, packet, in_port, vc_index):
        self.input_ports[in_port].vcs[vc_index].push(packet)
        self.received.append((packet, vc_index))
        self.arrivals.append(self.sim.cycle)

    def drain(self, vc_index):
        self.input_ports[0].vcs[vc_index].pop()


def test_forwards_into_a_tree_node_land_in_the_vcs_its_map_names():
    # A NOC-Out tree node's two-VC ports fold requests and snoops onto VC 0
    # and responses onto VC 1 (tree_vc_map); the upstream router's three
    # VCs must each be forwarded into the VC that map names.
    from repro.config.system import SystemConfig
    from repro.core.reduction_tree import tree_input_port, tree_vc_map

    sim = Simulator()
    node = Router(sim, "tree.n1", pipeline_latency=1)
    sink = SinkRecorder(sim)
    node.route_fn = lambda dst: sink
    node.add_output_port("terminal", sink, 0, link_latency=1)
    upstream = make_router(sim, route_fn=lambda dst: node)
    upstream.add_input_port(InputPort(3, 5))
    upstream.connect(node, tree_input_port(SystemConfig(), "tree.n1.from_upstream"),
                     "down", link_latency=1, link_length_mm=1.0)
    assert upstream.input_ports[0].num_vcs == 3 and node.input_ports[0].num_vcs == 2

    landed = []
    deliver = node.receive_packet

    def recording(packet, in_port, vc_index):
        landed.append((packet.msg_class, vc_index))
        deliver(packet, in_port, vc_index)

    node.receive_packet = recording
    classes = (MessageClass.REQUEST, MessageClass.SNOOP, MessageClass.RESPONSE)
    for msg_class in classes:
        inject(upstream, make_packet(msg_class=msg_class))
    sim.run(20)

    vc_map = tree_vc_map(2)
    assert sorted(landed) == sorted((cls, vc_map[cls]) for cls in classes)
    assert {vc_index for _cls, vc_index in landed} == {0, 1}
    assert len(sink.received) == 3


def test_credit_blocked_head_resumes_onto_the_same_downstream_vc():
    from repro.config.system import SystemConfig
    from repro.core.reduction_tree import tree_input_port

    sim = Simulator()
    downstream = RecordingSink(sim, tree_input_port(SystemConfig(), "tree.n0.local"))
    router = make_router(sim, route_fn=lambda dst: downstream)
    router.add_input_port(InputPort(3, 20))
    router.add_output_port("out", downstream, 0, link_latency=1)
    # Two 3-flit snoops: the first fills downstream VC 0 (3 flits deep),
    # the second blocks on its credit.
    first, second = (make_packet(flits=3, msg_class=MessageClass.SNOOP) for _ in range(2))
    inject(router, first)
    inject(router, second)
    sim.run(20)
    assert downstream.received == [(first, 0)]
    state = router.input_ports[0].vcs[1].state
    assert state.blocked and state.blocked_port is router.output_ports[0]
    assert sim.pending_events == 0  # a credit-blocked router schedules nothing

    sim.schedule_at(lambda: downstream.drain(0), 25)
    sim.run(20)
    assert downstream.received == [(first, 0), (second, 0)]
    assert not state.blocked
    assert downstream.input_ports[0].vcs[0].reserved_flits == 3
    assert router.buffered_packets == 0


# ---------------------------------------------------------------------- #
# Stale wakes: routers and interfaces run Component.wake's stale-callback
# test inside their own tick callback, so they get the wake patterns of
# tests/test_sim_component.py.  A round is observed as one iteration of
# the list the tick scans.
# ---------------------------------------------------------------------- #
class RoundCounter(list):
    """A list that records the simulated cycle of every iteration."""

    def __init__(self, sim, items=()):
        super().__init__(items)
        self.sim = sim
        self.rounds = []

    def __iter__(self):
        self.rounds.append(self.sim.cycle)
        return super().__iter__()


def counted_router(sim, downstream):
    """A router feeding ``downstream``, and the cycles of its rounds."""
    router = make_router(sim, route_fn=lambda dst: downstream)
    router.add_input_port(InputPort(3, 20))
    router.add_output_port("out", downstream, 0, link_latency=1)
    router._active_vcs = RoundCounter(sim)
    return router, router._active_vcs.rounds


def counted_interface(sim, downstream):
    """An interface injecting into ``downstream``, and the cycles of its rounds."""
    from repro.noc.interface import NetworkInterface

    interface = NetworkInterface(sim, "ni0", 0, 128, on_delivery=lambda message: None)
    interface.attach_router(downstream, 0)
    interface._inject_vcs = RoundCounter(sim)
    return interface, interface._inject_vcs.rounds


@pytest.mark.parametrize("build", [counted_router, counted_interface])
def test_superseded_wakes_run_one_round(build):
    from collections import Counter

    sim = Simulator()
    component, rounds = build(sim, RecordingSink(sim, InputPort(3, 5)))
    component.wake(5)
    component.wake(2)
    component.wake(0)
    sim.run(10)  # the wake(5) and wake(2) callbacks are stale: one round, at 0
    component.wake(12)  # pending at cycle 22
    component.wake(5)   # supersedes: a round at 15, the callback at 22 is stale
    sim.run(30)
    assert rounds == [0, 15]
    assert max(Counter(rounds).values()) == 1


def test_router_credit_wake_after_its_tick_reruns_it_that_cycle():
    sim = Simulator()
    downstream = RecordingSink(sim, InputPort(3, 5))
    router, rounds = counted_router(sim, downstream)
    first, second = (make_packet(flits=5, msg_class=MessageClass.RESPONSE) for _ in range(2))
    inject(router, first)
    inject(router, second)
    sim.run(8)  # the second head blocked on credit at cycle 5, and sleeps
    assert downstream.received == [(first, 2)]
    rounds.clear()

    def tick_then_return_credit():
        router.wake(0)  # this cycle's round runs first, still blocked ...
        sim.schedule_call(downstream.drain, (2,))  # ... then credit returns

    sim.schedule_at(tick_then_return_credit, 8)
    sim.run(10)
    assert rounds == [8, 8, 9]  # the credit wake re-ran the router at 8
    assert downstream.received == [(first, 2), (second, 2)]
    # Forwarded at 8 on the re-run: 2-cycle pipeline plus 1-cycle link.
    assert downstream.arrivals == [3, 11]


def test_interface_credit_wake_after_its_tick_reruns_it_that_cycle():
    sim = Simulator()
    downstream = RecordingSink(sim, InputPort(3, 5))
    interface, rounds = counted_interface(sim, downstream)
    for _ in range(2):
        interface.inject(Message(src=0, dst=1, msg_class=MessageClass.RESPONSE,
                                 size_bits=5 * 128))
    sim.run(4)  # the second packet blocked on credit at cycle 1, and sleeps
    assert len(downstream.received) == 1
    rounds.clear()

    def tick_then_return_credit():
        interface.wake(0)
        sim.schedule_call(downstream.drain, (2,))

    sim.schedule_at(tick_then_return_credit, 4)
    sim.run(10)
    assert rounds == [4, 4]  # the credit wake re-ran the interface at 4
    # Injected at 4 on the re-run, with a 1-cycle injection latency.
    assert downstream.arrivals == [1, 5]
    assert interface.injection_backlog == 0
