"""Tests for the fabric table and arbitrary-size grids.

Covers dispatch through the built-in rows, the unknown-topology error
path, a fabric row added from a test-local module (this one), grid
factorisation properties, and system-map invariants at the 256/512-core
scale-out sizes.
"""

import pytest

from repro.chip.builder import build_network
from repro.chip.system_map import NocOutSystemMap, TiledSystemMap, build_system_map
from repro.config.noc import NocConfig, Topology, topology_key
from repro.config.system import (
    KNOWN_GRIDS,
    SystemConfig,
    default_mesh_dimensions,
)
from repro.fabrics import FABRICS, ConcentratedSystemMap, Fabric, cmesh_system
from repro.noc.flattened_butterfly import FlattenedButterflyNetwork
from repro.noc.ideal import IdealNetwork
from repro.noc.mesh import MeshNetwork
from repro.noc.topology import describe_topology
from repro.scenarios import build_system, fabric_for
from repro.sim.kernel import Simulator
from tests._fixtures import small_system, small_workload


# --------------------------------------------------------------------- #
# Dispatch through the built-in rows
# --------------------------------------------------------------------- #
class TestBuiltinDispatch:
    @pytest.mark.parametrize(
        "topology, map_cls, network_cls",
        [
            (Topology.MESH, TiledSystemMap, MeshNetwork),
            (Topology.FLATTENED_BUTTERFLY, TiledSystemMap, FlattenedButterflyNetwork),
            (Topology.IDEAL, TiledSystemMap, IdealNetwork),
            (Topology.NOC_OUT, NocOutSystemMap, None),
        ],
    )
    def test_map_network_and_describe_dispatch(self, topology, map_cls, network_cls):
        config = small_system(topology)
        system_map = build_system_map(config)
        assert type(system_map) is map_cls
        network = build_network(Simulator(1), config, system_map)
        if network_cls is not None:
            assert isinstance(network, network_cls)
        assert describe_topology(config).name == topology.value

    def test_fabric_for_accepts_config_noc_and_bare_identifier(self):
        config = small_system(Topology.MESH)
        mesh = FABRICS["mesh"]
        assert fabric_for(config) is mesh
        assert fabric_for(config.noc) is mesh
        assert fabric_for(Topology.MESH) is mesh
        assert fabric_for("mesh") is mesh

    def test_unknown_topology_lists_available(self):
        config = small_system(Topology.MESH).with_topology("torus")
        with pytest.raises(KeyError, match="mesh"):
            build_system_map(config)
        with pytest.raises(KeyError, match="torus"):
            describe_topology(config)


# --------------------------------------------------------------------- #
# A fabric row added from outside ``repro.fabrics`` (this test module)
# --------------------------------------------------------------------- #
HALF_WIDTH_MESH = "__half_width_mesh__"


def _half_width_system(num_cores=16, link_width_bits=128, seed=3):
    noc = NocConfig(topology=HALF_WIDTH_MESH, link_width_bits=link_width_bits // 2)
    return SystemConfig(num_cores=num_cores, noc=noc, seed=seed)


def _half_width_network(sim, config, system_map):
    return MeshNetwork(sim, config, system_map.node_coords(), name=HALF_WIDTH_MESH)


def _describe_half_width(config):
    from repro.noc.topology import describe_mesh

    descriptor = describe_mesh(config)
    descriptor.name = HALF_WIDTH_MESH
    return descriptor


class TestThirdPartyPlugin:
    def test_registration_alone_wires_build_and_describe(self, monkeypatch):
        monkeypatch.setitem(
            FABRICS,
            HALF_WIDTH_MESH,
            Fabric(
                _half_width_system,
                TiledSystemMap,
                _half_width_network,
                _describe_half_width,
            ),
        )
        config = build_system(HALF_WIDTH_MESH, num_cores=16)
        assert config.noc.link_width_bits == 64
        assert topology_key(config.noc.topology) == HALF_WIDTH_MESH
        # Dispatch sites were not edited, yet the chip builds end to end.
        system_map = build_system_map(config)
        assert isinstance(system_map, TiledSystemMap)
        network = build_network(Simulator(1), config, system_map)
        assert isinstance(network, MeshNetwork)
        assert describe_topology(config).name == HALF_WIDTH_MESH

        from repro.chip.builder import build_chip

        chip = build_chip(config.with_workload(small_workload()))
        chip.run_experiment(
            warmup_references=200, detailed_warmup_cycles=100, measure_cycles=200
        )


# --------------------------------------------------------------------- #
# Grid factorisation
# --------------------------------------------------------------------- #
class TestGridFactorisation:
    def test_table_values_preserved(self):
        for num_cores, expected in KNOWN_GRIDS.items():
            assert default_mesh_dimensions(num_cores) == expected

    @pytest.mark.parametrize("num_cores", [6, 12, 24, 48, 96, 192, 384, 1024, 2048])
    def test_factorisation_properties(self, num_cores):
        cols, rows = default_mesh_dimensions(num_cores)
        assert cols * rows == num_cores
        assert cols >= rows >= 1
        # Near-square: no divisor pair is closer to square than the one
        # returned (rows is the largest divisor not above sqrt(n)).
        assert rows * rows <= num_cores <= cols * cols

    def test_scale_out_sizes(self):
        assert default_mesh_dimensions(256) == (16, 16)
        assert default_mesh_dimensions(512) == (32, 16)

    def test_config_validation_uses_factorised_grids(self):
        config = small_system(Topology.MESH, num_cores=24)
        assert config.mesh_dimensions == (6, 4)
        with pytest.raises(ValueError, match="near-square"):
            small_system(Topology.MESH, num_cores=26)  # 13x2 is degenerate


# --------------------------------------------------------------------- #
# Scale-out system-map invariants (256/512 cores)
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("num_cores", [256, 512])
class TestScaleOutSystemMaps:
    def test_tiled_map_invariants(self, num_cores):
        config = small_system(Topology.MESH, num_cores=num_cores)
        system_map = build_system_map(config)
        cols, rows = config.mesh_dimensions
        assert cols * rows == num_cores
        coords = system_map.node_coords()
        # Every core tile has a distinct in-grid coordinate; MCs sit on edges.
        core_coords = [coords[n] for n in range(num_cores)]
        assert len(set(core_coords)) == num_cores
        for col, row in core_coords:
            assert 0 <= col < cols and 0 <= row < rows
        for index in range(config.num_memory_controllers):
            col, row = coords[system_map.mc_node(index)]
            assert col in (0, cols - 1, cols // 2) or row in (0, rows - 1, rows // 2)
        # Addresses map onto valid home/MC nodes.
        for addr in (0, 4096, 123456789):
            assert system_map.home_node(addr) in range(num_cores)
            assert system_map.mc_node_for(addr) in system_map.mc_node_ids

    def test_nocout_map_invariants(self, num_cores):
        config = build_system("noc_out", num_cores=num_cores)
        assert config.noc.llc_tiles == 16  # widened row beyond 128 cores
        system_map = build_system_map(config)
        assert isinstance(system_map, NocOutSystemMap)
        floorplan = system_map.floorplan
        assert floorplan.core_rows * floorplan.columns == num_cores
        assert floorplan.core_rows % 2 == 0
        # Node ids partition: cores, then LLC tiles, then MCs.
        assert system_map.llc_node_ids == list(
            range(num_cores, num_cores + config.noc.llc_tiles)
        )
        for addr in (0, 4096, 987654321):
            assert system_map.home_node(addr) in system_map.llc_node_ids

    def test_cmesh_map_invariants(self, num_cores):
        config = cmesh_system(num_cores=num_cores)
        system_map = build_system_map(config)
        assert isinstance(system_map, ConcentratedSystemMap)
        routers = num_cores // config.noc.tree_concentration
        assert system_map.cols * system_map.rows == routers
        coords = system_map.node_coords()
        # Exactly `concentration` cores share each router coordinate.
        core_coords = [coords[n] for n in range(num_cores)]
        assert len(set(core_coords)) == routers
        counts = {}
        for coord in core_coords:
            counts[coord] = counts.get(coord, 0) + 1
        assert set(counts.values()) == {config.noc.tree_concentration}

    def test_active_core_selection_is_centre_packed(self, num_cores):
        config = small_system(Topology.MESH, num_cores=num_cores)
        system_map = build_system_map(config)
        active = system_map.active_core_ids(64)
        assert len(active) == 64
        assert active == sorted(active)
        cols, rows = config.mesh_dimensions
        centre = ((cols - 1) / 2.0, (rows - 1) / 2.0)

        def distance(core):
            col, row = system_map.tile_coord(core)
            return abs(col - centre[0]) + abs(row - centre[1])

        worst_active = max(distance(core) for core in active)
        inactive = set(range(num_cores)) - set(active)
        assert all(distance(core) >= worst_active - 1e-9 for core in inactive)


# --------------------------------------------------------------------- #
# Concentrated mesh end to end
# --------------------------------------------------------------------- #
class TestConcentratedMesh:
    def test_validation(self):
        with pytest.raises(ValueError, match="divide evenly"):
            cmesh_system(num_cores=30)  # 30 % 4 != 0
        assert cmesh_system(num_cores=64).noc.tree_concentration == 4

    def test_describe_inventory(self):
        config = cmesh_system(num_cores=64)
        descriptor = describe_topology(config)
        assert descriptor.name == "cmesh"
        assert descriptor.num_routers == 16
        (router_spec,) = descriptor.routers
        assert router_spec.ports == 8  # N/S/E/W + 4 local
        # Fewer routers than the mesh, higher radix each.
        mesh_descriptor = describe_topology(small_system(Topology.MESH, num_cores=64))
        assert descriptor.num_routers < mesh_descriptor.num_routers

    def test_area_model_wires_through_registry(self):
        from repro.power import noc_area

        breakdown = noc_area(cmesh_system(num_cores=64))
        assert breakdown.total_mm2 > 0

    def test_simulates_end_to_end(self):
        from repro.chip.builder import build_chip

        config = cmesh_system(num_cores=16).with_workload(small_workload())
        chip = build_chip(config)
        results = chip.run_experiment(
            warmup_references=300, detailed_warmup_cycles=200, measure_cycles=600
        )
        assert results.topology == "cmesh"
        assert results.total_instructions > 0
        assert results.messages_delivered > 0


# --------------------------------------------------------------------- #
# NOC-Out floorplan validation
# --------------------------------------------------------------------- #
UNBUILDABLE_NOCOUT = pytest.mark.parametrize(
    "num_cores, message",
    [
        (4, "cannot be split over 8 columns"),
        (8, "even number of core rows"),
        (24, "even number of core rows"),
        (40, "even number of core rows"),
    ],
)


class TestNocOutValidation:
    """An unbuildable NOC-Out floorplan fails when the config is made, not
    when its chip is built in the middle of a sweep."""

    @UNBUILDABLE_NOCOUT
    def test_preset_rejects_the_floorplan(self, num_cores, message):
        with pytest.raises(ValueError, match=message):
            build_system("noc_out", num_cores=num_cores)

    @UNBUILDABLE_NOCOUT
    def test_spec_expansion_rejects_the_floorplan(self, num_cores, message):
        from repro.scenarios import SweepSpec
        from tests._fixtures import TINY_SETTINGS

        spec = SweepSpec(
            axes={"num_cores": (16, num_cores)},
            settings=TINY_SETTINGS,
            fixed={"workload": "Web Search", "topology": "noc_out"},
        )
        with pytest.raises(ValueError, match=message):
            spec.expand()


# --------------------------------------------------------------------- #
# Scale-out sweep (reduced; CI runs the full 64-512 version)
# --------------------------------------------------------------------- #
class TestScaleOutSweep:
    def test_spec_covers_the_grid(self):
        from repro.experiments.scale_out import scale_out_spec
        from tests._fixtures import TINY_SETTINGS

        spec = scale_out_spec(settings=TINY_SETTINGS)
        points = spec.expand()
        assert len(points) == 2 * 4 * 6  # workloads x fabrics x core counts
        seen = {
            (p.coords["topology"], p.coords["num_cores"]) for p in points
        }
        assert ("cmesh", 512) in seen and ("noc_out", 256) in seen
        assert ("chiplet", 1024) in seen and ("chiplet", 2048) in seen

    def test_runs_and_pivots(self, tmp_path, monkeypatch):
        from repro.experiments.scale_out import (
            render_scale_out,
            run_scale_out,
            scale_out_pivot,
        )
        from tests._fixtures import TINY_SETTINGS

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        results = run_scale_out(
            workload_names=("MapReduce-W",),
            core_counts=(64, 256),
            settings=TINY_SETTINGS,
        )
        pivot = scale_out_pivot(results)
        assert set(pivot["MapReduce-W"]) == {"mesh", "cmesh", "noc_out", "chiplet"}
        for by_count in pivot["MapReduce-W"].values():
            assert all(value > 0 for value in by_count.values())
        rendered = render_scale_out(results).render()
        assert "cmesh" in rendered and "256 cores" in rendered
