"""Unit tests for the configuration objects (Table 1 parameters)."""

import dataclasses

import pytest

from repro.config.cache import CacheConfig, CacheHierarchyConfig
from repro.config.core import CoreConfig
from repro.config.noc import NocConfig, Topology
from repro.config.system import SystemConfig, default_mesh_dimensions
from repro.config.technology import TechnologyConfig
from repro.config.workload import WorkloadConfig


class TestTechnology:
    def test_defaults_match_paper(self):
        tech = TechnologyConfig()
        assert tech.node_nm == 32
        assert tech.frequency_ghz == 2.0
        assert tech.wire_latency_ps_per_mm == 125.0
        assert tech.cache_area_mm2_per_mb == pytest.approx(3.2)
        assert tech.core_area_mm2 == pytest.approx(2.9)

    def test_cycle_time(self):
        assert TechnologyConfig().cycle_time_ps == pytest.approx(500.0)

    def test_wire_cycles_zero_distance(self):
        assert TechnologyConfig().wire_cycles(0.0) == 0

    def test_wire_cycles_short_distance_is_one_cycle(self):
        # 2 mm at 125 ps/mm = 250 ps < one 500 ps cycle.
        assert TechnologyConfig().wire_cycles(2.0) == 1

    def test_wire_cycles_long_distance(self):
        # 12 mm = 1500 ps = 3 cycles.
        assert TechnologyConfig().wire_cycles(12.0) == 3

    def test_wire_reach_per_cycle(self):
        # Distance a signal covers on a repeated wire in one clock cycle.
        tech = TechnologyConfig()
        assert tech.cycle_time_ps / tech.wire_latency_ps_per_mm == pytest.approx(4.0)
        assert tech.wire_cycles(4.0) == 1

    def test_link_energy_scales_with_bits_and_distance(self):
        tech = TechnologyConfig()
        single = tech.link_energy_joules(1, 1.0)
        assert single == pytest.approx(50e-15)
        assert tech.link_energy_joules(128, 2.0) == pytest.approx(single * 256)


class TestCoreConfig:
    def test_defaults_match_paper(self):
        core = CoreConfig()
        assert core.issue_width == 3
        assert core.rob_entries == 64
        assert core.lsq_entries == 16

    def test_invalid_issue_width_rejected(self):
        with pytest.raises(ValueError):
            CoreConfig(issue_width=0)

    def test_invalid_mlp_rejected(self):
        with pytest.raises(ValueError):
            CoreConfig(max_outstanding_data_misses=0)


class TestCacheConfig:
    def test_geometry(self):
        config = CacheConfig(32 * 1024, 4, 64)
        assert config.num_blocks == 512
        assert config.num_sets == 128

    def test_block_size_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            CacheConfig(1024, 2, 48)

    def test_size_must_divide_evenly(self):
        with pytest.raises(ValueError):
            CacheConfig(1000, 3, 64)

    def test_llc_bank_split(self):
        hierarchy = CacheHierarchyConfig()
        bank = hierarchy.llc_bank_config(16)
        assert bank.size_bytes == 512 * 1024
        assert bank.associativity == 16

    def test_llc_bank_split_must_divide(self):
        with pytest.raises(ValueError):
            CacheHierarchyConfig().llc_bank_config(3)

    def test_default_hierarchy_matches_table1(self):
        hierarchy = CacheHierarchyConfig()
        assert hierarchy.llc_total_bytes == 8 * 1024 * 1024
        assert hierarchy.l1i.size_bytes == 32 * 1024
        assert hierarchy.dram_channels == 4


class TestNocConfig:
    def test_default_topology_is_mesh(self):
        assert NocConfig().topology == Topology.MESH

    def test_llc_banks(self):
        assert NocConfig().llc_banks == 16

    def test_with_link_width(self):
        narrow = NocConfig().with_link_width(32)
        assert narrow.link_width_bits == 32
        assert NocConfig().link_width_bits == 128  # original untouched

    def test_with_topology(self):
        assert NocConfig().with_topology(Topology.NOC_OUT).topology == Topology.NOC_OUT

    def test_invalid_link_width_rejected(self):
        with pytest.raises(ValueError):
            NocConfig(link_width_bits=4)

    def test_invalid_arbitration_rejected(self):
        with pytest.raises(ValueError):
            NocConfig(tree_arbitration="lottery")

    def test_invalid_concentration_rejected(self):
        with pytest.raises(ValueError):
            NocConfig(tree_concentration=0)


class TestWorkloadConfig:
    def test_fraction_bounds_enforced(self):
        with pytest.raises(ValueError):
            WorkloadConfig(name="bad", data_reuse_fraction=1.5)

    def test_scaled_cores(self):
        workload = WorkloadConfig(name="w", max_cores=16)
        assert workload.scaled_cores(64) == 16
        assert workload.scaled_cores(8) == 8

    def test_positive_sizes_enforced(self):
        with pytest.raises(ValueError):
            WorkloadConfig(name="bad", dataset_bytes=0)


class TestSystemConfig:
    def test_default_is_64_core_table1_chip(self):
        config = SystemConfig()
        assert config.num_cores == 64
        assert config.mesh_dimensions == (8, 8)
        assert config.num_memory_controllers == 4

    def test_known_grid_sizes(self):
        assert default_mesh_dimensions(16) == (4, 4)
        assert default_mesh_dimensions(2) == (2, 1)

    def test_untabulated_counts_factorise_near_square(self):
        assert default_mesh_dimensions(24) == (6, 4)
        assert default_mesh_dimensions(96) == (12, 8)

    def test_degenerate_grid_rejected_with_guidance(self):
        with pytest.raises(ValueError, match=r"17x1.*max_aspect_ratio=None"):
            default_mesh_dimensions(17)
        with pytest.raises(ValueError, match="positive"):
            default_mesh_dimensions(0)
        # The escape hatch accepts the skewed grid explicitly.
        assert default_mesh_dimensions(17, max_aspect_ratio=None) == (17, 1)

    def test_with_helpers_produce_copies(self):
        config = SystemConfig()
        other = config.with_topology(Topology.NOC_OUT)
        other = dataclasses.replace(other, num_cores=16)
        assert other.num_cores == 16
        assert other.noc.topology == Topology.NOC_OUT
        assert config.num_cores == 64

    def test_active_cores_follows_workload_limit(self):
        workload = WorkloadConfig(name="w", max_cores=16)
        config = SystemConfig().with_workload(workload)
        assert config.active_cores == 16

    def test_tile_width_is_positive(self):
        assert SystemConfig().tile_width_mm > 1.0
