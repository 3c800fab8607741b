"""Tests for the NOC-Out organization: floorplan, trees and the LLC network."""

import pytest

from repro.chip.system_map import NocOutSystemMap
from repro.config.noc import Topology
from repro.core.floorplan import NocOutFloorplan, describe_nocout
from repro.core.nocout import NocOutNetwork
from repro.noc.message import Message, MessageClass, control_message_bits, data_message_bits
from repro.sim.kernel import Simulator

from tests._fixtures import small_system


def build_nocout(num_cores=16, **noc_kwargs):
    sim = Simulator(seed=2)
    config = small_system(Topology.NOC_OUT, num_cores=num_cores, **noc_kwargs)
    system_map = NocOutSystemMap(config)
    network = NocOutNetwork(
        sim,
        config,
        core_nodes=system_map.core_positions(),
        llc_nodes=system_map.llc_columns(),
        mc_nodes=system_map.mc_columns(),
    )
    received = {}
    for node in network.node_ids:
        network.register_endpoint(node, lambda msg, n=node: received.setdefault(n, []).append(msg))
    return sim, config, system_map, network, received


def tree_nodes(network) -> int:
    """Reduction plus dispersion tree nodes of a NOC-Out network."""
    return len(network.reduction_nodes) + len(network.dispersion_nodes)


def send(network, src, dst, msg_class=MessageClass.REQUEST, data=False):
    bits = data_message_bits() if data else control_message_bits()
    message = Message(src=src, dst=dst, msg_class=msg_class, size_bits=bits)
    network.send(message)
    return message


class TestFloorplan:
    def test_64_core_layout(self):
        plan = NocOutFloorplan(small_system(Topology.NOC_OUT, num_cores=64))
        assert plan.columns == 8
        assert plan.core_rows == 8
        assert plan.rows_per_side == 4
        assert len(plan.tree_groups()) == 16  # two trees per column

    def test_tree_groups_cover_every_core_once(self):
        plan = NocOutFloorplan(small_system(Topology.NOC_OUT, num_cores=64))
        covered = [
            (group.column, row) for group in plan.tree_groups() for row in group.core_rows
        ]
        assert len(covered) == 64
        assert len(set(covered)) == 64

    def test_reduction_order_is_farthest_first(self):
        plan = NocOutFloorplan(small_system(Topology.NOC_OUT, num_cores=64))
        top = next(g for g in plan.tree_groups() if g.side == "top")
        bottom = next(g for g in plan.tree_groups() if g.side == "bottom")
        assert list(top.core_rows) == [0, 1, 2, 3]
        assert list(bottom.core_rows) == [7, 6, 5, 4]

    def test_side_of_row(self):
        plan = NocOutFloorplan(small_system(Topology.NOC_OUT, num_cores=64))
        assert plan.side_of_row(0) == "top"
        assert plan.side_of_row(7) == "bottom"
        with pytest.raises(ValueError):
            plan.side_of_row(8)

    def test_odd_core_split_rejected(self):
        with pytest.raises(ValueError):
            NocOutFloorplan(small_system(Topology.NOC_OUT, num_cores=8))

    def test_descriptor_counts_tree_nodes_and_llc_routers(self):
        config = small_system(Topology.NOC_OUT, num_cores=64)
        descriptor = describe_nocout(config)
        labels = {spec.label: spec for spec in descriptor.routers}
        assert labels["reduction tree node"].count == 64
        assert labels["dispersion tree node"].count == 64
        assert labels["LLC network router"].count == 8
        assert labels["reduction tree node"].ports == 2


class TestNocOutNetwork:
    def test_core_to_llc_and_back(self):
        sim, _config, system_map, network, received = build_nocout()
        core_node = system_map.core_node(0)
        llc_node = system_map.llc_node(5)
        request = send(network, core_node, llc_node)
        sim.run(100)
        assert received[llc_node] == [request]
        response = send(network, llc_node, core_node, MessageClass.RESPONSE, data=True)
        sim.run(100)
        assert received[core_node] == [response]

    def test_all_cores_reach_all_llc_tiles(self):
        sim, _config, system_map, network, received = build_nocout()
        count = 0
        for core in range(16):
            for tile in range(8):
                send(network, system_map.core_node(core), system_map.llc_node(tile))
                count += 1
        sim.run(1000)
        delivered = sum(len(v) for v in received.values())
        assert delivered == count
        assert network.drained()

    def test_llc_reaches_every_core_through_dispersion_trees(self):
        sim, _config, system_map, network, received = build_nocout()
        for core in range(16):
            send(network, system_map.llc_node(0), system_map.core_node(core), MessageClass.SNOOP)
        sim.run(500)
        assert all(received[system_map.core_node(core)] for core in range(16))

    def test_memory_controllers_reachable_from_llc(self):
        sim, _config, system_map, network, received = build_nocout()
        mc = system_map.mc_node(0)
        send(network, system_map.llc_node(3), mc)
        sim.run(200)
        assert received[mc]

    def test_core_to_core_traffic_flows_through_llc_region(self):
        sim, _config, system_map, network, received = build_nocout()
        src = system_map.core_node(0)
        dst = system_map.core_node(8)  # other side of the LLC row
        message = send(network, src, dst, MessageClass.RESPONSE, data=True)
        sim.run(200)
        assert received[dst] == [message]

    def test_lower_latency_than_mesh_distance(self):
        sim, _config, system_map, network, _ = build_nocout()
        send(network, system_map.core_node(0), system_map.llc_node(7))
        sim.run(200)
        # Worst-case corner core to far LLC tile stays well under mesh costs.
        assert network.mean_latency() < 18

    def test_tree_node_counts(self):
        _sim, _config, _map, network, _ = build_nocout()
        # 16 cores with one core per half-column: 16 reduction + 16 dispersion nodes.
        assert tree_nodes(network) == 32

    def test_concentration_halves_tree_nodes(self):
        _sim, _config, _map, baseline, _ = build_nocout(num_cores=32)
        _sim2, _config2, _map2, concentrated, _ = build_nocout(num_cores=32, tree_concentration=2)
        assert tree_nodes(baseline) == 64
        assert tree_nodes(concentrated) == 32

    def test_express_links_still_deliver(self):
        sim, _config, system_map, network, received = build_nocout(
            num_cores=64, tree_express_links=True
        )
        target = system_map.llc_node(0)
        message = send(network, system_map.core_node(0), target)
        sim.run(200)
        assert received[target] == [message]
        core = system_map.core_node(0)
        back = send(network, target, core, MessageClass.RESPONSE, data=True)
        sim.run(200)
        assert received[core] == [back]

    def test_round_robin_tree_arbitration_still_works(self):
        sim, _config, system_map, network, received = build_nocout(
            tree_arbitration="round_robin"
        )
        message = send(network, system_map.core_node(3), system_map.llc_node(1))
        sim.run(200)
        assert received[system_map.llc_node(1)] == [message]
