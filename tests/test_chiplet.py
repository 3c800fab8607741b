"""Test battery for the chiplet / network-on-interposer fabric.

Covers knob validation with one-line errors, two-level geometry
invariants from 64 to 2048 cores, die crossings and hop accounting that
match the routes the network actually takes, the crossing-latency knob
observed end to end, dispatch through the fabric table's ``chiplet``
row, and bit-identical results across process restarts with
different hash seeds.  The golden stats digests in
``tests/test_stats_digests.py`` pin a 1024-core chiplet network and a
64-core chiplet chip event for event.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.chip.builder import build_chip, build_network
from repro.chip.system_map import build_system_map
from repro.config.noc import NocConfig
from repro.config.system import SystemConfig
from repro.fabrics import (
    ChipletNetwork,
    ChipletSystemMap,
    chiplet_params,
    chiplet_system,
)
from repro.noc.message import Message, MessageClass, control_message_bits
from repro.noc.topology import describe_topology
from repro.fabrics import FABRICS
from repro.noc.router import Router
from repro.scenarios import build_system, fabric_for
from repro.noc.interface import NetworkInterface
from repro.sim.kernel import Simulator
from tests._fixtures import TINY_SETTINGS, chiplet_hop_distance, small_workload

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The scale-out ladder the geometry invariants are proven over.
SIZES = (64, 128, 256, 512, 1024, 2048)


def chiplet_map(num_cores: int, **knobs) -> ChipletSystemMap:
    return ChipletSystemMap(chiplet_system(num_cores=num_cores, **knobs))


def crosses_chiplet(system_map: ChipletSystemMap, a: int, b: int) -> bool:
    """Whether a message between nodes ``a`` and ``b`` leaves its die.

    Memory controllers live on the interposer (IO die or NoI routers), so
    any tile<->MC path crosses; MC<->MC traffic never enters a CPU chiplet.
    """
    num_cores = system_map.num_cores
    if a < num_cores and b < num_cores:
        return system_map.chiplet_of(a) != system_map.chiplet_of(b)
    return (a < num_cores) != (b < num_cores)


def crossing_ports(network: ChipletNetwork) -> dict:
    """Every output port whose link crosses a die boundary, by link kind.

    Tile routers are the ones hosting a core's interface; every other
    router sits on the interposer (a NoI router or the IO die).  A link
    crosses when it joins two routers and at least one is on the
    interposer.
    """
    tiles = {
        id(network.interfaces[node]._router) for node in range(network.system.num_cores)
    }
    kinds = {"uplink": [], "downlink": [], "noi_mesh": [], "io": []}
    for router in network.routers:
        for port in router.output_ports:
            target = port.downstream
            if not isinstance(target, Router):
                continue  # ejection into an interface
            if network.io_router is not None and network.io_router in (router, target):
                kinds["io"].append(port)
            elif id(router) in tiles:
                if id(target) not in tiles:
                    kinds["uplink"].append(port)
            elif id(target) in tiles:
                kinds["downlink"].append(port)
            else:
                kinds["noi_mesh"].append(port)
    return kinds


def crossing_port_ids(network: ChipletNetwork) -> set:
    return {id(port) for ports in crossing_ports(network).values() for port in ports}


def route_crosses_a_die(network: ChipletNetwork, src: int, dst: int) -> bool:
    """Whether the route from ``src`` to ``dst`` uses a die-crossing link."""
    crossing = crossing_port_ids(network)
    router = network.interfaces[src]._router
    crossed = False
    while True:
        port = router.output_ports[router.route_table[dst]]
        crossed |= id(port) in crossing
        if isinstance(port.downstream, NetworkInterface):
            return crossed
        router = port.downstream


# --------------------------------------------------------------------- #
# Knob resolution and degenerate-geometry errors
# --------------------------------------------------------------------- #
class TestChipletParams:
    def test_bare_config_resolves_to_fabric_defaults(self):
        config = SystemConfig(num_cores=64, noc=NocConfig(topology="chiplet"))
        p = chiplet_params(config)
        assert (p.count, p.concentration, p.latency_increase, p.io_die) == (4, 16, 4, True)
        assert (p.cores_per_chiplet, p.groups) == (16, 1)
        assert (p.ccols * p.crows, p.lcols * p.lrows) == (4, 16)

    def test_cores_must_divide_over_chiplets(self):
        with pytest.raises(ValueError, match="do not divide evenly over 3 chiplets"):
            chiplet_system(num_cores=64, chiplet_count=3)

    def test_concentration_must_divide_the_chiplet(self):
        with pytest.raises(ValueError, match="divide evenly over the concentration 5"):
            chiplet_system(num_cores=64, concentration=5)

    def test_concentration_cannot_exceed_the_chiplet(self):
        with pytest.raises(ValueError, match="exceeds the 16 cores per chiplet"):
            chiplet_system(num_cores=64, concentration=32)

    def test_prime_chiplet_count_is_rejected_as_degenerate(self):
        with pytest.raises(ValueError, match="near-square"):
            chiplet_system(num_cores=320, chiplet_count=5)

    def test_noc_config_one_line_errors(self):
        with pytest.raises(ValueError, match="chiplet_count must be >= 1"):
            NocConfig(chiplet_count=0)
        with pytest.raises(ValueError, match="chiplet_concentration must be >= 1"):
            NocConfig(chiplet_concentration=0)
        with pytest.raises(ValueError, match="chiplet_latency_increase must be >= 0"):
            NocConfig(chiplet_latency_increase=-1)

    def test_unset_knobs_are_canonically_omitted(self):
        from repro.experiments.engine import ExperimentPoint

        point = ExperimentPoint(
            config=SystemConfig(num_cores=64, noc=NocConfig()).with_workload(
                small_workload()
            ),
            settings=TINY_SETTINGS,
        )
        canonical = point.canonical_dict()["config"]["noc"]
        assert not any(key.startswith("chiplet_") for key in canonical)


# --------------------------------------------------------------------- #
# Two-level geometry, 64 -> 2048 cores
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("num_cores", SIZES)
class TestChipletGeometry:
    def test_cores_partition_into_chiplets(self, num_cores):
        system_map = chiplet_map(num_cores)
        p = system_map.params
        assert p.count * p.cores_per_chiplet == num_cores
        population = {chiplet: 0 for chiplet in range(p.count)}
        for node in range(num_cores):
            population[system_map.chiplet_of(node)] += 1
        assert set(population.values()) == {p.cores_per_chiplet}

    def test_boundary_router_concentration(self, num_cores):
        system_map = chiplet_map(num_cores)
        p = system_map.params
        assert p.groups * p.concentration == p.cores_per_chiplet
        for chiplet in range(p.count):
            members = {group: 0 for group in range(p.groups)}
            for local in range(p.cores_per_chiplet):
                node = chiplet * p.cores_per_chiplet + local
                members[system_map.boundary_group(node)] += 1
            # Exactly `concentration` tiles funnel through each boundary
            # router, and the boundary tile belongs to its own group.
            assert set(members.values()) == {p.concentration}
            for group in range(p.groups):
                boundary = system_map.boundary_node(chiplet, group)
                assert system_map.chiplet_of(boundary) == chiplet
                assert system_map.boundary_group(boundary) == group

    def test_tile_coords_are_distinct_and_in_grid(self, num_cores):
        system_map = chiplet_map(num_cores)
        p = system_map.params
        cols, rows = p.ccols * p.lcols, p.crows * p.lrows
        coords = [system_map.tile_coord(node) for node in range(num_cores)]
        assert len(set(coords)) == num_cores
        assert all(0 <= x < cols and 0 <= y < rows for x, y in coords)

    def test_crossing_predicate(self, num_cores):
        # Routes leave a die exactly when the endpoints sit on different
        # dies: tiles on two chiplets, or a tile and a memory controller.
        system_map = chiplet_map(num_cores)
        network = ChipletNetwork(Simulator(1), system_map.config, system_map)
        step = max(1, num_cores // 16)
        nodes = list(range(0, num_cores, step)) + system_map.mc_node_ids
        for a in nodes:
            for b in nodes:
                assert route_crosses_a_die(network, a, b) == crosses_chiplet(
                    system_map, a, b
                ), (a, b)

    def test_hop_distance_basics(self, num_cores):
        system_map = chiplet_map(num_cores)
        p = system_map.params
        assert chiplet_hop_distance(system_map, 0, 0) == 0
        # Local neighbours: one link, two routers.
        assert chiplet_hop_distance(system_map, 0, 1) == 2
        # Cross-chiplet paths pay at least ascend + NoI + descend.
        other = p.cores_per_chiplet  # first tile of chiplet 1
        assert chiplet_hop_distance(system_map, 0, other) >= 3


# --------------------------------------------------------------------- #
# Network structure and hop accounting
# --------------------------------------------------------------------- #
def build_chiplet_network(num_cores: int, **knobs):
    config = chiplet_system(num_cores=num_cores, **knobs)
    system_map = ChipletSystemMap(config)
    sim = Simulator(1)
    network = ChipletNetwork(sim, config, system_map)
    for node in network.node_ids:
        network.register_endpoint(node, lambda message: None)
    return sim, network, system_map


class TestChipletNetworkStructure:
    @pytest.mark.parametrize("io_die", [True, False])
    def test_every_link_is_classified(self, io_die):
        _sim, network, _map = build_chiplet_network(64, io_die=io_die)
        p = network.params
        ports = crossing_ports(network)
        crossing = crossing_port_ids(network)
        assert len(ports["uplink"]) == p.count * p.groups
        assert len(ports["downlink"]) == p.count * p.groups
        assert len(ports["io"]) == (2 * p.count if io_die else 0)
        noi_links = (p.ccols - 1) * p.crows + p.ccols * (p.crows - 1)
        assert len(ports["noi_mesh"]) == 2 * noi_links
        for router in network.routers:
            for port in router.output_ports:
                if id(port) in crossing:
                    # Every die-crossing link pays the latency increase.
                    assert port.link_latency == network.crossing_latency
                elif port.link_latency:
                    # Intra-chiplet mesh link: baseline mesh latency.
                    assert port.link_latency == network.noc.mesh_link_latency
                else:
                    assert port.link_length_mm == 0.0  # ejection into an NI
        assert network.crossing_latency == (
            network.noc.mesh_link_latency + p.latency_increase
        )

    @pytest.mark.parametrize("io_die", [True, False])
    def test_measured_hops_match_the_system_map(self, io_die):
        sim, network, system_map = build_chiplet_network(64, io_die=io_die)
        mcs = system_map.mc_node_ids
        pairs = [
            (5, 5),  # same tile: local delivery, no network hops
            (1, 9),  # same chiplet
            (5, 21),  # adjacent chiplets
            (3, 60),  # diagonal chiplets
            (17, 2),  # reverse direction
            (7, mcs[0]),  # tile -> memory controller
            (mcs[1], 40),  # memory controller -> tile
            (mcs[0], mcs[2]),  # controller to controller
        ]
        for src, dst in pairs:
            before = network.hop_histogram.total
            network.send(
                Message(
                    src=src,
                    dst=dst,
                    msg_class=MessageClass.REQUEST,
                    size_bits=control_message_bits(),
                )
            )
            sim.run_to_completion()
            measured = network.hop_histogram.total - before
            assert measured == chiplet_hop_distance(system_map, src, dst), (src, dst)
        assert network.drained()

    def test_zero_load_latency_pays_the_crossing_increase(self):
        # An adjacent-chiplet path crosses exactly three links (uplink, one
        # NoI hop, downlink); raising the increase from 0 to 6 must surface
        # as exactly 3 x 6 extra cycles at zero load.
        latencies = {}
        for increase in (0, 6):
            sim, network, _map = build_chiplet_network(64, latency_increase=increase)
            network.send(
                Message(
                    src=5,
                    dst=21,
                    msg_class=MessageClass.REQUEST,
                    size_bits=control_message_bits(),
                )
            )
            sim.run_to_completion()
            histogram = network.latency_by_class[MessageClass.REQUEST]
            assert histogram.count == 1
            latencies[increase] = histogram.total
        assert latencies[6] - latencies[0] == 3 * 6


# --------------------------------------------------------------------- #
# Dispatch through the fabric table and the area model
# --------------------------------------------------------------------- #
class TestChipletDispatch:
    def test_registry_wires_map_network_and_describe(self):
        assert fabric_for("chiplet") is FABRICS["chiplet"]
        config = build_system("chiplet", num_cores=64)
        system_map = build_system_map(config)
        assert isinstance(system_map, ChipletSystemMap)
        network = build_network(Simulator(1), config, system_map)
        assert isinstance(network, ChipletNetwork)
        assert describe_topology(config).name == "chiplet"

    def test_describe_inventory(self):
        descriptor = describe_topology(chiplet_system(num_cores=64))
        # 60 plain tile routers + 4 boundary + 4 NoI + the IO die.
        assert descriptor.num_routers == 69
        labels = {spec.label for spec in descriptor.routers}
        assert "interposer (NoI) router" in labels and "IO-die router" in labels
        link_labels = {spec.label for spec in descriptor.links}
        assert "interposer via (up/down) link" in link_labels
        no_io = describe_topology(chiplet_system(num_cores=64, io_die=False))
        assert no_io.num_routers == 68

    @pytest.mark.parametrize("num_cores", [64, 1024])
    def test_area_model_wires_through_registry(self, num_cores):
        from repro.power import noc_area

        breakdown = noc_area(chiplet_system(num_cores=num_cores))
        assert breakdown.total_mm2 > 0

    @pytest.mark.parametrize("io_die", [True, False])
    def test_chip_simulates_end_to_end(self, io_die):
        config = chiplet_system(num_cores=64, io_die=io_die).with_workload(
            small_workload()
        )
        chip = build_chip(config)
        results = chip.run_experiment(
            warmup_references=300, detailed_warmup_cycles=200, measure_cycles=600
        )
        assert results.topology == "chiplet"
        assert results.total_instructions > 0
        assert results.messages_delivered > 0


# --------------------------------------------------------------------- #
# Determinism: process restarts
# --------------------------------------------------------------------- #
class TestChipletDeterminism:
    def test_chiplet_run_is_stable_across_process_restarts(self):
        script = (
            "import hashlib, json\n"
            "from repro.chip.builder import build_chip\n"
            "from repro.config import presets\n"
            "from repro.fabrics import chiplet_system\n"
            "config = chiplet_system(num_cores=64).with_workload("
            "presets.workload('MapReduce-W'))\n"
            "results = build_chip(config).run_experiment(warmup_references=300,"
            " detailed_warmup_cycles=200, measure_cycles=600)\n"
            "blob = json.dumps(results.to_dict(), sort_keys=True, default=str)\n"
            "print(hashlib.sha256(blob.encode('utf-8')).hexdigest())\n"
        )
        digests = []
        for hash_seed in ("0", "1"):
            env = dict(os.environ)
            env["PYTHONPATH"] = str(REPO_ROOT / "src")
            env["PYTHONHASHSEED"] = hash_seed
            completed = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            digests.append(completed.stdout.strip())
        assert digests[0] == digests[1]
