"""Integration tests for the mesh, flattened butterfly and ideal networks."""

import pytest

from repro.config.noc import Topology
from repro.noc.flattened_butterfly import FlattenedButterflyNetwork
from repro.noc.ideal import IdealNetwork
from repro.noc.mesh import MeshNetwork
from repro.noc.message import Message, MessageClass, control_message_bits, data_message_bits
from repro.sim.kernel import Simulator

from tests._fixtures import small_system


def grid_coords(cols, rows):
    return {row * cols + col: (col, row) for row in range(rows) for col in range(cols)}


def build_network(network_cls, topology, num_cores=16):
    sim = Simulator(seed=1)
    config = small_system(topology, num_cores=num_cores)
    cols, rows = config.mesh_dimensions
    network = network_cls(sim, config, grid_coords(cols, rows))
    received = {}
    for node in network.node_ids:
        network.register_endpoint(node, lambda msg, n=node: received.setdefault(n, []).append(msg))
    return sim, network, received


def send(network, src, dst, msg_class=MessageClass.REQUEST, data=False):
    bits = data_message_bits() if data else control_message_bits()
    message = Message(src=src, dst=dst, msg_class=msg_class, size_bits=bits)
    network.send(message)
    return message


class TestMeshNetwork:
    def test_has_one_router_per_tile(self):
        _sim, network, _ = build_network(MeshNetwork, Topology.MESH)
        assert len(network.routers) == 16

    def test_corner_to_corner_delivery(self):
        sim, network, received = build_network(MeshNetwork, Topology.MESH)
        message = send(network, 0, 15)
        sim.run(100)
        assert received[15] == [message]

    def test_the_sent_message_travels_and_is_stamped_on_the_way(self):
        sim, network, received = build_network(MeshNetwork, Topology.MESH)
        message = send(network, 0, 15, MessageClass.RESPONSE, data=True)
        assert (message.num_flits, message.hops) == (5, 0)  # 640 bits on 128-bit links
        sim.run(100)
        assert received[15][0] is message
        assert message.hops == 7  # 6 mesh hops + ejection

    def test_zero_load_latency_matches_three_cycles_per_hop(self):
        # 0 -> 15 is 3 + 3 = 6 mesh hops in a 4x4 grid: 7 routers with the
        # ejection hop, 3 cycles each.  A 5-flit data message adds 4 cycles
        # of serialization at ejection.
        for data, latency in ((False, 21), (True, 25)):
            sim, network, received = build_network(MeshNetwork, Topology.MESH)
            send(network, 0, 15, data=data)
            sim.run(100)
            assert network.mean_latency(MessageClass.REQUEST) == latency

    def test_hop_count_is_manhattan_distance_plus_ejection(self):
        sim, network, _ = build_network(MeshNetwork, Topology.MESH)
        send(network, 0, 3)  # same row, 3 hops away
        sim.run(100)
        assert network.mean_hops() == pytest.approx(4)  # 3 mesh hops + ejection

    def test_local_delivery_bypasses_network(self):
        sim, network, received = build_network(MeshNetwork, Topology.MESH)
        message = send(network, 5, 5)
        sim.run(10)
        assert received[5] == [message]
        assert network.local_deliveries.value == 1
        assert network.mean_hops() == 0

    def test_all_pairs_are_routable(self):
        sim, network, received = build_network(MeshNetwork, Topology.MESH)
        expected = 0
        for src in range(16):
            for dst in range(16):
                if src != dst:
                    send(network, src, dst)
                    expected += 1
        sim.run(500)
        delivered = sum(len(v) for v in received.values())
        assert delivered == expected
        assert network.drained()

    def test_unknown_destination_rejected(self):
        _sim, network, _ = build_network(MeshNetwork, Topology.MESH)
        with pytest.raises(KeyError):
            send(network, 0, 99)

    def test_activity_counters_populate(self):
        sim, network, _ = build_network(MeshNetwork, Topology.MESH)
        send(network, 0, 15, msg_class=MessageClass.RESPONSE, data=True)
        sim.run(100)
        activity = network.activity()
        assert activity["flits_switched"] > 0
        assert activity["link_flit_mm"] > 0


class TestStateOnFirstUse:
    """An idle network holds no per-class queue and no per-VC packet state."""

    @staticmethod
    def vcs(network):
        """Every router input VC and every ejection VC, as ``(port name, vc)``."""
        ports = [port for router in network.routers for port in router.input_ports]
        ports += [ni.input_ports[0] for ni in network.interfaces.values()]
        return [(port.name, vc) for port in ports for vc in port.vcs]

    def test_only_the_vcs_a_packet_crosses_get_a_queue_and_state(self):
        sim, network, received = build_network(MeshNetwork, Topology.MESH, num_cores=256)
        interfaces = network.interfaces.values()
        assert all(ni._inject_queues == {} and ni._inject_vcs == [] for ni in interfaces)
        assert all(len(ni.input_ports[0].vcs) == 1 for ni in interfaces)
        assert all(vc._queue == () and vc.state is None for _, vc in self.vcs(network))

        message = send(network, 0, 255)  # (0, 0) -> (15, 15): east along row 0, then south
        sim.run(200)
        assert received[255] == [message]
        assert list(network.interfaces[0]._inject_queues) == [MessageClass.REQUEST]
        path = (
            ["mesh.r0_0.in_local0"]
            + [f"mesh.r{x}_0.in_W" for x in range(1, 16)]
            + [f"mesh.r15_{y}.in_N" for y in range(1, 16)]
        )
        with_state = [(name, vc.index) for name, vc in self.vcs(network) if vc.state is not None]
        assert sorted(with_state) == sorted((name, 0) for name in path)
        with_list = {name for name, vc in self.vcs(network) if isinstance(vc._queue, list)}
        assert with_list == set(path) | {network.interfaces[255].input_ports[0].name}

    def test_injection_scans_response_snoop_request_whatever_opens_first(self):
        _sim, network, _ = build_network(MeshNetwork, Topology.MESH)
        for msg_class in (MessageClass.SNOOP, MessageClass.REQUEST, MessageClass.RESPONSE):
            send(network, 0, 15, msg_class)
        ni = network.interfaces[0]
        order = (MessageClass.RESPONSE, MessageClass.SNOOP, MessageClass.REQUEST)
        scanned = [entry[0] for entry in ni._inject_vcs]
        assert list(map(id, scanned)) == [id(ni._inject_queues[cls]) for cls in order]


class TestFlattenedButterflyNetwork:
    def test_at_most_two_network_hops(self):
        sim, network, received = build_network(
            FlattenedButterflyNetwork, Topology.FLATTENED_BUTTERFLY
        )
        send(network, 0, 15)
        sim.run(100)
        assert received[15]
        # 2 express hops + 1 ejection hop.
        assert network.mean_hops() <= 3

    def test_single_dimension_needs_one_hop(self):
        sim, network, _ = build_network(FlattenedButterflyNetwork, Topology.FLATTENED_BUTTERFLY)
        send(network, 0, 3)
        sim.run(100)
        assert network.mean_hops() == pytest.approx(2)  # 1 express hop + ejection

    def test_router_radix_is_richer_than_mesh(self):
        _sim, fbfly, _ = build_network(FlattenedButterflyNetwork, Topology.FLATTENED_BUTTERFLY)
        _sim2, mesh, _ = build_network(MeshNetwork, Topology.MESH)
        assert fbfly.routers[0].radix > mesh.routers[0].radix

    def test_long_links_have_higher_latency(self):
        _sim, network, _ = build_network(FlattenedButterflyNetwork, Topology.FLATTENED_BUTTERFLY)
        assert network.link_latency_for_span(1) <= network.link_latency_for_span(7)

    def test_all_pairs_are_routable(self):
        sim, network, received = build_network(
            FlattenedButterflyNetwork, Topology.FLATTENED_BUTTERFLY
        )
        for src in range(0, 16, 3):
            for dst in range(16):
                if src != dst:
                    send(network, src, dst)
        sim.run(500)
        assert network.drained()
        assert sum(len(v) for v in received.values()) == sum(
            1 for src in range(0, 16, 3) for dst in range(16) if src != dst
        )

    def test_faster_than_mesh_corner_to_corner(self):
        sim_m, mesh, _ = build_network(MeshNetwork, Topology.MESH)
        send(mesh, 0, 15)
        sim_m.run(100)
        sim_f, fbfly, _ = build_network(FlattenedButterflyNetwork, Topology.FLATTENED_BUTTERFLY)
        send(fbfly, 0, 15)
        sim_f.run(100)
        assert fbfly.mean_latency() < mesh.mean_latency()


class TestIdealNetwork:
    def test_delivery_without_routers(self):
        sim, network, received = build_network(IdealNetwork, Topology.IDEAL)
        message = send(network, 0, 15)
        sim.run(50)
        assert received[15] == [message]
        assert network.routers == []

    def test_latency_is_wire_delay_only(self):
        sim, network, _ = build_network(IdealNetwork, Topology.IDEAL)
        send(network, 0, 15)
        sim.run(50)
        assert network.mean_latency() <= 6

    def test_faster_than_every_real_topology(self):
        latencies = {}
        for cls, topo in (
            (IdealNetwork, Topology.IDEAL),
            (MeshNetwork, Topology.MESH),
            (FlattenedButterflyNetwork, Topology.FLATTENED_BUTTERFLY),
        ):
            sim, network, _ = build_network(cls, topo)
            send(network, 0, 15, data=True)
            sim.run(100)
            latencies[topo] = network.mean_latency()
        assert latencies[Topology.IDEAL] < latencies[Topology.FLATTENED_BUTTERFLY]
        assert latencies[Topology.FLATTENED_BUTTERFLY] < latencies[Topology.MESH]

    def test_serialization_still_charged(self):
        sim, network, _ = build_network(IdealNetwork, Topology.IDEAL)
        send(network, 0, 1, msg_class=MessageClass.RESPONSE, data=True)
        send(network, 2, 3, msg_class=MessageClass.REQUEST, data=False)
        sim.run(50)
        data_latency = network.mean_latency(MessageClass.RESPONSE)
        control_latency = network.mean_latency(MessageClass.REQUEST)
        assert data_latency > control_latency
