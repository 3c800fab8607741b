"""Unit tests for topology descriptors and grid geometry."""

import pytest

from repro.config import presets
from repro.config.noc import Topology
from repro.noc.topology import (
    GridGeometry,
    describe_flattened_butterfly,
    describe_mesh,
    describe_topology,
    tiled_grid_geometry,
)


def link_bit_mm(descriptor) -> float:
    """Total wire (bit x mm) over a descriptor's links."""
    return sum(spec.total_bit_mm for spec in descriptor.links)


class TestGridGeometry:
    def test_positions_are_tile_centres(self):
        geometry = GridGeometry(4, 4, 2.0)
        assert geometry.position_mm((0, 0)) == (1.0, 1.0)
        assert geometry.position_mm((3, 3)) == (7.0, 7.0)

    def test_manhattan_distance(self):
        geometry = GridGeometry(4, 4, 2.0)
        assert geometry.manhattan_mm((0, 0), (3, 3)) == pytest.approx(12.0)
        assert geometry.manhattan_tiles((0, 0), (3, 3)) == 6

    def test_die_dimensions(self):
        geometry = GridGeometry(8, 8, 1.5)
        # The far edge of the last tile is cols (rows) tiles from the origin.
        x, y = geometry.position_mm((7, 7))
        half = geometry.tile_width_mm / 2
        assert (x + half, y + half) == pytest.approx((12.0, 12.0))

    def test_out_of_range_coordinate_rejected(self):
        with pytest.raises(ValueError):
            GridGeometry(2, 2, 1.0).position_mm((5, 0))

    def test_all_coords_covers_grid(self):
        assert len(list(GridGeometry(4, 2, 1.0).all_coords())) == 8

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(ValueError):
            GridGeometry(0, 4, 1.0)
        with pytest.raises(ValueError):
            GridGeometry(4, 4, -1.0)


class TestMeshDescriptor:
    def test_router_count_and_radix(self):
        descriptor = describe_mesh(presets.mesh_system())
        assert descriptor.num_routers == 64
        assert descriptor.routers[0].ports == 5

    def test_link_count_matches_grid(self):
        descriptor = describe_mesh(presets.mesh_system())
        # 2 directions * (7*8 + 8*7) adjacent pairs.
        assert sum(link.count for link in descriptor.links) == 224

    def test_buffer_bits_match_table1(self):
        descriptor = describe_mesh(presets.mesh_system())
        # 64 routers * 5 ports * 3 VCs * 5 flits * 128 bits.
        assert descriptor.total_buffer_bits == 64 * 5 * 3 * 5 * 128


class TestFlattenedButterflyDescriptor:
    def test_router_radix_matches_paper(self):
        descriptor = describe_flattened_butterfly(presets.flattened_butterfly_system())
        assert descriptor.routers[0].ports == 15

    def test_link_count_is_all_to_all_per_dimension(self):
        descriptor = describe_flattened_butterfly(presets.flattened_butterfly_system())
        # Each row: 8*7 ordered pairs, 8 rows; same for columns.
        assert sum(link.count for link in descriptor.links) == 2 * 8 * 7 * 8

    def test_uses_sram_buffers(self):
        descriptor = describe_flattened_butterfly(presets.flattened_butterfly_system())
        assert descriptor.routers[0].uses_sram_buffers

    def test_total_wire_length_far_exceeds_mesh(self):
        mesh = describe_mesh(presets.mesh_system())
        fbfly = describe_flattened_butterfly(presets.flattened_butterfly_system())
        assert link_bit_mm(fbfly) > 5 * link_bit_mm(mesh)


class TestDescribeTopology:
    def test_dispatch_by_topology(self):
        assert describe_topology(presets.mesh_system()).name == "mesh"
        assert (
            describe_topology(presets.flattened_butterfly_system()).name
            == "flattened_butterfly"
        )
        assert describe_topology(presets.nocout_system()).name == "noc_out"

    def test_ideal_topology_has_no_hardware(self):
        descriptor = describe_topology(presets.ideal_system())
        assert descriptor.num_routers == 0
        assert link_bit_mm(descriptor) == 0

    def test_tiled_geometry_uses_system_tile_width(self):
        config = presets.mesh_system()
        geometry = tiled_grid_geometry(config)
        assert geometry.tile_width_mm == pytest.approx(config.tile_width_mm)
