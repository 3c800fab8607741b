"""Unit tests for the NoC area and energy models (Figures 8, 9 and §6.4).

``tests/data/power_values.json`` pins every area and power number exactly
(``float.hex``); regenerate it with
``PYTHONPATH=src python -m tests.test_power_models``.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.config import presets
from repro.experiments.ablations import SCALING_VARIANTS
from repro.experiments.fig9_area_normalized import area_budget_link_widths, figure9_spec
from repro.fabrics import FABRICS
from repro.noc.topology import describe_topology
from repro.power import link_width_for_area_budget, noc_area, noc_power
from repro.scenarios import build_system

PINNED = Path(__file__).parent / "data" / "power_values.json"

#: Fixed switching-activity windows for the pinned power numbers: the
#: unit tests' window, a 27-bit one, a fractional one and an empty one
#: (every counter falls back to its default).
ACTIVITY_WINDOWS = {
    "base_128b": (
        {
            "flits_injected": 1000.0,
            "flits_switched": 5000.0,
            "buffer_flit_writes": 5000.0,
            "crossbar_flit_ports": 25000.0,
            "link_flit_mm": 10000.0,
            "flit_width_bits": 128.0,
        },
        1000,
    ),
    "narrow_27b": (
        {
            "flits_switched": 81234.0,
            "buffer_flit_writes": 79001.0,
            "crossbar_flit_ports": 512345.0,
            "link_flit_mm": 123456.789,
            "flit_width_bits": 27.0,
        },
        40000,
    ),
    "fractional_109b": (
        {
            "flits_switched": 3.0,
            "buffer_flit_writes": 7.0,
            "crossbar_flit_ports": 0.1,
            "link_flit_mm": 0.3,
            "flit_width_bits": 109.0,
        },
        7,
    ),
    "empty": ({}, 1),
}


def _nocout_128(concentration, express):
    config = build_system("noc_out", num_cores=128)
    return config.with_noc(
        replace(config.noc, tree_concentration=concentration, tree_express_links=express)
    )


def _area_configs():
    configs = {
        f"{name}_{cores}": build_system(name, num_cores=cores)
        for name in FABRICS
        for cores in (64, 256, 1024)
    }
    for concentration, express in SCALING_VARIANTS.values():
        label = f"noc_out_128_c{concentration}{'_express' if express else ''}"
        configs[label] = _nocout_128(concentration, express)
    return configs


def pinned_values() -> dict:
    """Every pinned number, each as ``float.hex`` (widths as ints)."""
    area = {}
    for label, config in _area_configs().items():
        breakdown = noc_area(config)
        area[label] = {
            "links_mm2": breakdown.links_mm2.hex(),
            "buffers_mm2": breakdown.buffers_mm2.hex(),
            "crossbars_mm2": breakdown.crossbars_mm2.hex(),
            "total_mm2": breakdown.total_mm2.hex(),
        }
    budget, widths = area_budget_link_widths(num_cores=64)
    power = {}
    for label, (activity, cycles) in ACTIVITY_WINDOWS.items():
        report = noc_power(activity, cycles)
        power[label] = {
            "link_energy_j": report.link_energy_j.hex(),
            "buffer_energy_j": report.buffer_energy_j.hex(),
            "crossbar_energy_j": report.crossbar_energy_j.hex(),
            "arbiter_energy_j": report.arbiter_energy_j.hex(),
            "total_energy_j": report.total_energy_j.hex(),
            "total_power_w": report.total_power_w.hex(),
        }
    return {
        "area": area,
        "fig9_64": {
            "budget_mm2": budget.hex(),
            "link_widths": {topology.value: width for topology, width in widths.items()},
        },
        "power": power,
    }


def test_values_match_the_pinned_file():
    assert pinned_values() == json.loads(PINNED.read_text())


def total_area(config):
    return noc_area(config).total_mm2


def with_link_width(config, width):
    return config.with_noc(config.noc.with_link_width(width))


def area_per_buffer_bit(config):
    descriptor = describe_topology(config)
    bits = sum(router.count * router.buffer_bits_per_router for router in descriptor.routers)
    return noc_area(config).buffers_mm2 / bits


def crossbar_area_per_router(config):
    return noc_area(config).crossbars_mm2 / describe_topology(config).num_routers


class TestWireModel:
    def test_repeater_area_scales_with_length_and_width(self):
        mesh = presets.mesh_system()
        base = noc_area(mesh).links_mm2
        assert noc_area(with_link_width(mesh, 256)).links_mm2 == pytest.approx(2 * base)
        # Bigger cores make wider tiles, hence longer mesh links.
        big_tiles = replace(mesh, core=replace(mesh.core, area_mm2=4 * mesh.core.area_mm2))
        stretch = big_tiles.tile_width_mm / mesh.tile_width_mm
        assert stretch > 1.5
        assert noc_area(big_tiles).links_mm2 == pytest.approx(stretch * base)

    def test_link_energy_matches_paper_constant(self):
        report = noc_power({"link_flit_mm": 1.0, "flit_width_bits": 1.0}, cycles=1)
        assert report.link_energy_j == pytest.approx(50e-15)


class TestRouterAreaModels:
    def test_sram_buffers_are_denser_than_flip_flops(self):
        # The flattened butterfly buffers in SRAM, the mesh in flip-flops.
        fbfly, mesh = presets.flattened_butterfly_system(), presets.mesh_system()
        assert describe_topology(fbfly).routers[0].uses_sram_buffers
        assert not describe_topology(mesh).routers[0].uses_sram_buffers
        assert area_per_buffer_bit(fbfly) < area_per_buffer_bit(mesh)

    def test_crossbar_area_grows_quadratically_with_ports(self):
        mesh, cmesh = presets.mesh_system(), build_system("cmesh")
        (mesh_router,) = describe_topology(mesh).routers
        (cmesh_router,) = describe_topology(cmesh).routers
        assert cmesh_router.flit_width_bits == mesh_router.flit_width_bits
        assert cmesh_router.ports > mesh_router.ports
        assert crossbar_area_per_router(cmesh) == pytest.approx(
            (cmesh_router.ports / mesh_router.ports) ** 2 * crossbar_area_per_router(mesh)
        )
        # Quadratic in ports x flit width: doubling the width quadruples it too.
        assert crossbar_area_per_router(with_link_width(mesh, 256)) == pytest.approx(
            4 * crossbar_area_per_router(mesh)
        )


class TestNocAreaModel:
    def test_figure8_ordering(self):
        mesh = total_area(presets.mesh_system())
        fbfly = total_area(presets.flattened_butterfly_system())
        nocout = total_area(presets.nocout_system())
        assert nocout < mesh < fbfly

    def test_figure8_absolute_values_close_to_paper(self):
        mesh = total_area(presets.mesh_system())
        fbfly = total_area(presets.flattened_butterfly_system())
        nocout = total_area(presets.nocout_system())
        assert mesh == pytest.approx(3.5, rel=0.25)
        assert fbfly == pytest.approx(23.0, rel=0.25)
        assert nocout == pytest.approx(2.5, rel=0.25)

    def test_fbfly_is_roughly_9x_nocout(self):
        fbfly = total_area(presets.flattened_butterfly_system())
        nocout = total_area(presets.nocout_system())
        assert 6.0 <= fbfly / nocout <= 12.0

    def test_breakdown_components_are_positive(self):
        breakdown = noc_area(presets.mesh_system())
        assert breakdown.links_mm2 > 0
        assert breakdown.buffers_mm2 > 0
        assert breakdown.crossbars_mm2 > 0
        assert breakdown.total_mm2 == pytest.approx(
            breakdown.links_mm2 + breakdown.buffers_mm2 + breakdown.crossbars_mm2
        )

    def test_area_shrinks_with_link_width(self):
        wide = presets.mesh_system(link_width_bits=128)
        narrow = presets.mesh_system(link_width_bits=32)
        assert total_area(narrow) < total_area(wide)

    def test_ideal_network_has_no_area(self):
        assert total_area(presets.ideal_system()) == 0.0

    def test_link_width_for_area_budget_fits_budget(self):
        nocout_area = total_area(presets.nocout_system())
        for system in (presets.mesh_system(), presets.flattened_butterfly_system()):
            width = link_width_for_area_budget(system, nocout_area)
            assert total_area(with_link_width(system, width)) <= nocout_area
            assert total_area(with_link_width(system, width + 1)) > nocout_area
            assert width >= 8

    def test_fbfly_needs_much_narrower_links_than_mesh(self):
        budget = total_area(presets.nocout_system())
        mesh_width = link_width_for_area_budget(presets.mesh_system(), budget)
        fbfly_width = link_width_for_area_budget(presets.flattened_butterfly_system(), budget)
        assert fbfly_width < mesh_width
        assert fbfly_width <= 32  # the paper reports roughly a 7x reduction

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError):
            link_width_for_area_budget(presets.mesh_system(), 0.0)

    def test_budget_the_narrowest_links_exceed_is_rejected(self):
        # At 1024 cores even 8-bit links leave the flattened butterfly
        # several times over NOC-Out's area.
        budget = total_area(presets.nocout_system(num_cores=1024))
        fbfly = presets.flattened_butterfly_system(num_cores=1024)
        narrowest = total_area(with_link_width(fbfly, 8))
        assert narrowest > 3 * budget
        with pytest.raises(ValueError) as excinfo:
            link_width_for_area_budget(fbfly, budget)
        message = str(excinfo.value)
        assert "flattened_butterfly" in message
        assert f"{budget:.2f} mm2" in message
        assert f"8-bit links it takes {narrowest:.2f} mm2" in message
        with pytest.raises(ValueError, match="flattened_butterfly"):
            figure9_spec(num_cores=1024)


class TestNocEnergyModel:
    def activity(self, scale=1.0):
        return {
            "flits_injected": 1000 * scale,
            "flits_switched": 5000 * scale,
            "buffer_flit_writes": 5000 * scale,
            "crossbar_flit_ports": 25000 * scale,
            "link_flit_mm": 10000.0 * scale,
            "flit_width_bits": 128.0,
        }

    def test_power_scales_with_activity(self):
        low = noc_power(self.activity(1.0), cycles=1000)
        high = noc_power(self.activity(2.0), cycles=1000)
        assert high.total_power_w == pytest.approx(2 * low.total_power_w)

    def test_links_dominate_energy(self):
        report = noc_power(self.activity(), cycles=1000)
        assert report.link_energy_j > report.buffer_energy_j
        assert report.link_energy_j > report.crossbar_energy_j

    def test_power_uses_cycle_count(self):
        short = noc_power(self.activity(), cycles=1000)
        long = noc_power(self.activity(), cycles=2000)
        assert short.total_power_w == pytest.approx(2 * long.total_power_w)

    def test_zero_cycles_rejected(self):
        with pytest.raises(ValueError):
            noc_power(self.activity(), cycles=0)

if __name__ == "__main__":
    PINNED.write_text(json.dumps(pinned_values(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINNED}")
