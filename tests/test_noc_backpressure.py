"""Event-driven wake machinery under backpressure.

The kernel's contract is that idle components cost nothing per cycle.
These tests pin down the strongest form of that promise: a router (or a
whole congested mesh) whose head packets are all blocked on downstream
credit schedules *zero* kernel events until credit returns, and the credit
return itself (a ``VirtualChannelBuffer.pop``) is what restarts switching.
"""

import pytest

from repro.chip.chip import SimulationResults
from repro.config.noc import Topology
from repro.experiments.engine import ExperimentPoint, SweepExecutor
from repro.noc.buffer import InputPort
from repro.noc.mesh import MeshNetwork
from repro.noc.message import Message, MessageClass, Packet
from repro.noc.router import PacketSink, Router
from repro.sim.kernel import Simulator

from tests._fixtures import TINY_SETTINGS, small_system, small_workload


def make_packet(dst=5, flits=1, msg_class=MessageClass.REQUEST):
    return Packet(
        Message(src=0, dst=dst, msg_class=msg_class, size_bits=flits * 128), 128
    )


def inject(router, packet, in_port=0):
    vc_index = router.input_ports[in_port].vc_index_for(packet.msg_class)
    vc = router.input_ports[in_port].vcs[vc_index]
    vc.reserve(packet.num_flits)
    router.receive_packet(packet, in_port, vc_index)


class BlockingSink(PacketSink):
    """A downstream port whose VCs can be plugged and unplugged at will."""

    def __init__(self):
        self.input_ports = [InputPort(3, vc_depth_flits=5)]
        self.received = []
        self._plugs = {}

    def plug(self):
        """Fill every VC with a dummy packet so nothing can reserve space."""
        for index, vc in enumerate(self.input_ports[0].vcs):
            dummy = make_packet(flits=vc.capacity_flits)
            vc.reserve(dummy.num_flits)
            vc.push(dummy)
            self._plugs[index] = dummy

    def unplug(self):
        """Drain the dummies; their pops return credit to any waiters."""
        for index in list(self._plugs):
            self.input_ports[0].vcs[index].pop()
            del self._plugs[index]

    def receive_packet(self, packet, in_port, vc_index):
        self.input_ports[in_port].vcs[vc_index].push(packet)
        self.received.append(packet)


class TestSingleRouterBackpressure:
    def test_credit_blocked_router_schedules_zero_events(self):
        sim = Simulator()
        sink = BlockingSink()
        sink.plug()
        router = Router(sim, "r0", pipeline_latency=2, route_fn=lambda dst: sink)
        router.add_input_port(InputPort(3, 20))
        router.add_output_port("out", sink, 0, link_latency=1)

        for _ in range(3):
            inject(router, make_packet(flits=5, msg_class=MessageClass.RESPONSE))
        sim.run_to_completion(max_cycles=50)

        # Fully blocked: packets are buffered, but the event queue is empty
        # and a long idle window processes not a single kernel event.
        assert router.buffered_packets == 3
        assert sim.pending_events == 0
        assert sim.run(1_000) == 0

        # Credit return restarts switching without any polling help.
        sink.unplug()
        sim.run_to_completion(max_cycles=100)
        assert len(sink.received) == 1  # one 5-flit packet fits the freed VC
        assert router.buffered_packets == 2

    def test_busy_port_wakes_router_exactly_at_expiry(self):
        sim = Simulator()
        sink = BlockingSink()  # unplugged: always room for one 5-flit packet
        router = Router(sim, "r0", pipeline_latency=1, route_fn=lambda dst: sink)
        router.add_input_port(InputPort(3, 20))
        router.add_output_port("out", sink, 0, link_latency=1)

        first = make_packet(flits=5, msg_class=MessageClass.RESPONSE)
        inject(router, first)
        sim.run(1)
        # Forwarded at cycle 0: the output port serialises 5 flits.
        assert router.output_ports[0].busy_until == 5

        second = make_packet(flits=1, msg_class=MessageClass.REQUEST)
        inject(router, second)
        drained = sim.run(1)  # the arrival tick sees the busy port...
        assert drained > 0
        assert sim.pending_events == 1  # ...and leaves exactly one wake, at expiry
        assert sim.next_event_cycle == 5
        sim.run(10)
        assert router.flits_switched.value == 5 + 1  # both packets forwarded


class TestCongestedMeshBackpressure:
    def _build_congested_mesh(self):
        """A 4x4 mesh with every input VC of the hotspot router plugged."""
        config = small_system(Topology.MESH)
        sim = Simulator(seed=3)
        coords = {i: (i % 4, i // 4) for i in range(16)}
        network = MeshNetwork(sim, config, coords)
        network.register_endpoint(15, lambda message: None)
        for node in range(15):
            network.register_endpoint(node, lambda message: None)

        hotspot = network.router_at((3, 3))
        plugs = []
        for port in hotspot.input_ports:
            for vc in port.vcs:
                dummy = make_packet(flits=vc.capacity_flits)
                vc.reserve(dummy.num_flits)
                vc.push(dummy)
                plugs.append((hotspot, vc))
        return sim, network, hotspot, plugs

    def test_fully_blocked_mesh_processes_zero_events(self):
        sim, network, hotspot, plugs = self._build_congested_mesh()
        # Every node floods the plugged corner with data packets.
        for node in range(15):
            for _ in range(3):
                network.send(
                    Message(
                        src=node, dst=15, msg_class=MessageClass.RESPONSE, size_bits=640
                    )
                )
        sim.run_to_completion(max_cycles=2_000)

        buffered = sum(router.buffered_packets for router in network.routers)
        assert buffered > 0  # congestion built up behind the plugged router
        assert not network.drained()
        # The key property: a blocked mesh is *silent* — no polling events.
        assert sim.pending_events == 0
        assert sim.run(10_000) == 0

        # Returning credit at the hotspot un-dams the whole backlog.
        for router, vc in plugs:
            vc.pop()
        sim.run_to_completion(max_cycles=50_000)
        assert network.drained()
        assert int(network.messages_delivered.value) == 45

    def test_blocked_then_released_mesh_is_deterministic(self):
        outcomes = []
        for _ in range(2):
            sim, network, hotspot, plugs = self._build_congested_mesh()
            for node in range(15):
                network.send(
                    Message(
                        src=node, dst=15, msg_class=MessageClass.RESPONSE, size_bits=640
                    )
                )
            sim.run_to_completion(max_cycles=2_000)
            for router, vc in plugs:
                vc.pop()
            sim.run_to_completion(max_cycles=50_000)
            outcomes.append(
                (
                    sim.cycle,
                    sim.events_processed,
                    network.mean_latency(),
                    [router.flits_switched.value for router in network.routers],
                )
            )
        assert outcomes[0] == outcomes[1]


class TestWakeMachineryDeterminism:
    """Serial vs. parallel sweeps agree on a congested 4x4 mesh."""

    def _congested_points(self):
        # 32-bit links turn every data message into a 20-flit packet, which
        # saturates the 5-flit VCs and keeps the mesh credit-blocked for
        # most of the run — exactly the regime the event-driven wake-ups
        # must not perturb.
        workload = small_workload()
        points = []
        for link_width in (32, 64):
            config = small_system(
                Topology.MESH, link_width_bits=link_width
            ).with_workload(workload)
            points.append(ExperimentPoint(config=config, settings=TINY_SETTINGS))
        return points

    def test_parallel_results_match_serial(self, tmp_path):
        points = self._congested_points()
        serial = SweepExecutor(jobs=1, use_cache=False).run(points)
        parallel = SweepExecutor(jobs=2, use_cache=False).run(points)
        assert [r.to_dict() for r in serial] == [r.to_dict() for r in parallel]
        assert all(isinstance(r, SimulationResults) for r in parallel)
        assert all(r.total_instructions > 0 for r in serial)
