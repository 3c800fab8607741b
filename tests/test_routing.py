"""Routing resolved on demand: every routed fabric's route functions.

Routers fill their tables lazily (``RouteTable.__missing__`` asks the
router's route function on the first lookup of a destination), so nothing
validates a route at build time.  These tests carry that obligation
instead: a walk over every ordered node pair proves each fabric's routes
deliver, loop-free and along the expected number of routers, and the
lazy-table tests pin the mechanism itself so an eager fill cannot creep
back in.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.chip.builder import build_network
from repro.chip.system_map import build_system_map
from repro.fabrics import chiplet_system
from repro.noc.buffer import InputPort
from repro.noc.interface import NetworkInterface
from repro.noc.message import Message, MessageClass, control_message_bits
from repro.noc.router import Router
from repro.scenarios import build_system
from repro.sim.kernel import Simulator
from tests._fixtures import chiplet_hop_distance
from tests.test_noc_router import SinkRecorder, inject, make_packet


def build(config):
    system_map = build_system_map(config)
    sim = Simulator(1)
    network = build_network(sim, config, system_map)
    for node in network.node_ids:
        network.register_endpoint(node, lambda message: None)
    return sim, network, system_map


def walk(network, src, dst):
    """Routers a packet from ``src`` to ``dst`` visits, in order.

    Follows each router's ``route_fn(dst)`` from the source interface's
    router until the next hop is a network interface, which must be the
    destination's.  At every router, ``route()`` must pick the output port
    that leads to that hop.
    """
    packet = Message(src=src, dst=dst, msg_class=MessageClass.REQUEST, size_bits=64)
    router = network.interfaces[src]._router
    visited = []
    seen = set()
    while True:
        assert id(router) not in seen, f"{src}->{dst} revisits {router.name}"
        seen.add(id(router))
        visited.append(router)
        hop = router.route_fn(dst)
        assert router.output_ports[router.route(packet)].downstream is hop
        if isinstance(hop, NetworkInterface):
            assert hop is network.interfaces[dst], (src, dst, router.name)
            return visited
        router = hop


def node_pairs(network):
    return itertools.permutations(network.node_ids, 2)


# --------------------------------------------------------------------- #
# Route walks over every ordered pair of network nodes
# --------------------------------------------------------------------- #
class TestRouteWalk:
    @pytest.mark.parametrize("fabric", ["flattened_butterfly", "noc_out", "cmesh"])
    def test_every_pair_delivers_without_revisiting(self, fabric):
        _sim, network, _map = build(build_system(fabric, num_cores=64))
        for src, dst in node_pairs(network):
            walk(network, src, dst)

    def test_mesh_walks_manhattan_distance_plus_one(self):
        _sim, network, _map = build(build_system("mesh", num_cores=64))
        coords = network.node_coords
        for src, dst in node_pairs(network):
            (sx, sy), (dx, dy) = coords[src], coords[dst]
            assert len(walk(network, src, dst)) == abs(sx - dx) + abs(sy - dy) + 1

    @pytest.mark.parametrize(
        "num_cores, io_die", [(64, True), (256, True), (256, False)]
    )
    def test_chiplet_walks_the_system_map_hop_distance(self, num_cores, io_die):
        _sim, network, system_map = build(
            chiplet_system(num_cores=num_cores, io_die=io_die)
        )
        for src, dst in node_pairs(network):
            hops = chiplet_hop_distance(system_map, src, dst)
            assert len(walk(network, src, dst)) == hops


# --------------------------------------------------------------------- #
# The tables themselves: empty at build, filled only by forwarding
# --------------------------------------------------------------------- #
class TestLazyRouteTables:
    @pytest.mark.parametrize("fabric", ["mesh", "chiplet"])
    def test_tables_start_empty_and_fill_only_with_forwarded_destinations(self, fabric):
        sim, network, _map = build(build_system(fabric, num_cores=1024))
        assert all(len(router.route_table) == 0 for router in network.routers)

        rng = random.Random(3)
        sent = [tuple(rng.sample(network.node_ids, 2)) for _ in range(200)]
        for src, dst in sent:
            network.send(
                Message(
                    src=src,
                    dst=dst,
                    msg_class=MessageClass.REQUEST,
                    size_bits=control_message_bits(),
                )
            )
        sim.run_to_completion()
        assert network.messages_delivered.value == len(sent)

        # Replay every delivered path through the route functions directly
        # (which fill no table): a router's table must hold exactly the
        # destinations of the packets it forwarded, each with the port that
        # leads to the hop the route function names.
        forwarded = {id(router): set() for router in network.routers}
        for src, dst in sent:
            router = network.interfaces[src]._router
            while True:
                forwarded[id(router)].add(dst)
                router = router.route_fn(dst)
                if isinstance(router, NetworkInterface):
                    break
        for router in network.routers:
            assert set(router.route_table) == forwarded[id(router)], router.name
            for dst, port in router.route_table.items():
                assert router.output_ports[port].downstream is router.route_fn(dst)


def routed_router(sim, route_fn):
    """Router ``r0`` with one output port, to a sink; ``route_fn`` gets the
    router and the destination."""
    router = Router(sim, "r0")
    router.route_fn = lambda dst: route_fn(router, dst)
    router.add_input_port(InputPort(3, 5))
    router.add_output_port("out", SinkRecorder(sim), 0, link_latency=1)
    return router


def only_node_5(router, dst):
    if dst != 5:
        raise KeyError(dst)
    return router.output_ports[0].downstream


class TestRouteFunctionErrors:
    def test_unknown_destination_through_route(self):
        router = routed_router(Simulator(), only_node_5)
        assert router.route(make_packet(dst=5)) == 0
        with pytest.raises(KeyError, match="r0: no route to node 9"):
            router.route(make_packet(dst=9))
        assert 9 not in router.route_table

    def test_unknown_destination_through_the_switching_path(self):
        sim = Simulator()
        router = routed_router(sim, only_node_5)
        inject(router, make_packet(dst=9))
        with pytest.raises(KeyError, match="r0: no route to node 9"):
            sim.run(10)
        assert 9 not in router.route_table

    def test_hop_that_is_not_a_neighbour_rejected_on_first_lookup(self):
        stranger = Router(Simulator(), "r9")
        router = routed_router(Simulator(), lambda router, dst: stranger)
        with pytest.raises(ValueError, match=r"r0: route to node 5 names .*r9"):
            router.route(make_packet(dst=5))
        assert 5 not in router.route_table

    def test_hop_is_memoised_as_the_port_leading_there(self):
        calls = []

        def counted(router, dst):
            calls.append(dst)
            return only_node_5(router, dst)

        router = routed_router(Simulator(), counted)
        assert [router.route(make_packet(dst=5)) for _ in range(3)] == [0, 0, 0]
        assert calls == [5]
        assert router.route_table == {5: 0}


class TestOutputPortRecord:
    def test_second_port_to_the_same_downstream_rejected(self):
        sim = Simulator()
        router = Router(sim, "r0")
        sink = SinkRecorder(sim)
        router.add_output_port("a", sink, 0, link_latency=1)
        with pytest.raises(ValueError, match="r0: already has an output port to"):
            router.add_output_port("b", sink, 0, link_latency=1)
        assert len(router.output_ports) == 1

    def test_connect_adds_the_input_then_the_output_port(self):
        sim = Simulator()
        upstream, downstream = Router(sim, "up"), Router(sim, "down")
        downstream.add_input_port(InputPort(3, 5, name="down.first"))
        port = upstream.connect(
            downstream, InputPort(2, 4, name="down.from_up"), "link",
            link_latency=2, link_length_mm=1.5,
        )
        assert upstream.output_ports == [port]
        assert (port.name, port.downstream, port.downstream_port) == ("link", downstream, 1)
        assert (port.link_latency, port.link_length_mm) == (2, 1.5)
        assert downstream.input_ports[1].name == "down.from_up"
        with pytest.raises(ValueError, match="up: already has an output port to"):
            upstream.connect(downstream, InputPort(2, 4), "again", 1, 0.0)
