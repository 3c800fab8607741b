"""Unit tests for the NoC area and energy models (Figures 8, 9 and §6.4)."""

import pytest

from repro.config import presets
from repro.config.noc import Topology
from repro.power.area_model import NocAreaModel, link_width_for_area_budget
from repro.power.cacti import CacheAreaModel
from repro.power.energy_model import NocEnergyModel
from repro.power.orion import BufferAreaModel, CrossbarAreaModel
from repro.power.wire import WireModel


class TestWireModel:
    def test_repeater_area_scales_with_length_and_width(self):
        wire = WireModel()
        base = wire.repeater_area_mm2(1.0, 128)
        assert wire.repeater_area_mm2(2.0, 128) == pytest.approx(2 * base)
        assert wire.repeater_area_mm2(1.0, 256) == pytest.approx(2 * base)

    def test_link_energy_matches_paper_constant(self):
        wire = WireModel()
        assert wire.energy_joules(1, 1.0) == pytest.approx(50e-15)

    def test_repeater_energy_is_19_percent(self):
        assert WireModel().technology.repeater_energy_fraction == pytest.approx(0.19)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            WireModel().repeater_area_mm2(-1.0, 128)


class TestRouterAreaModels:
    def test_sram_buffers_are_denser_than_flip_flops(self):
        buffers = BufferAreaModel()
        bits = 10_000
        assert buffers.area_mm2(bits, uses_sram=True) < buffers.area_mm2(bits, uses_sram=False)

    def test_crossbar_area_grows_quadratically_with_ports(self):
        crossbar = CrossbarAreaModel()
        assert crossbar.area_mm2(10, 128) == pytest.approx(4 * crossbar.area_mm2(5, 128))

    def test_cache_area_model_matches_table1(self):
        model = CacheAreaModel()
        assert model.area_mm2(1024 * 1024) == pytest.approx(3.2)
        assert model.power_w(8 * 1024 * 1024) == pytest.approx(4.0)


class TestNocAreaModel:
    def setup_method(self):
        self.model = NocAreaModel()

    def test_figure8_ordering(self):
        mesh = self.model.total_area_mm2(presets.mesh_system())
        fbfly = self.model.total_area_mm2(presets.flattened_butterfly_system())
        nocout = self.model.total_area_mm2(presets.nocout_system())
        assert nocout < mesh < fbfly

    def test_figure8_absolute_values_close_to_paper(self):
        mesh = self.model.total_area_mm2(presets.mesh_system())
        fbfly = self.model.total_area_mm2(presets.flattened_butterfly_system())
        nocout = self.model.total_area_mm2(presets.nocout_system())
        assert mesh == pytest.approx(3.5, rel=0.25)
        assert fbfly == pytest.approx(23.0, rel=0.25)
        assert nocout == pytest.approx(2.5, rel=0.25)

    def test_fbfly_is_roughly_9x_nocout(self):
        fbfly = self.model.total_area_mm2(presets.flattened_butterfly_system())
        nocout = self.model.total_area_mm2(presets.nocout_system())
        assert 6.0 <= fbfly / nocout <= 12.0

    def test_breakdown_components_are_positive(self):
        breakdown = self.model.breakdown(presets.mesh_system())
        assert breakdown.links_mm2 > 0
        assert breakdown.buffers_mm2 > 0
        assert breakdown.crossbars_mm2 > 0
        assert breakdown.total_mm2 == pytest.approx(
            breakdown.links_mm2 + breakdown.buffers_mm2 + breakdown.crossbars_mm2
        )

    def test_area_shrinks_with_link_width(self):
        wide = presets.mesh_system(link_width_bits=128)
        narrow = presets.mesh_system(link_width_bits=32)
        assert self.model.total_area_mm2(narrow) < self.model.total_area_mm2(wide)

    def test_ideal_network_has_no_area(self):
        assert self.model.total_area_mm2(presets.ideal_system()) == 0.0

    def test_link_width_for_area_budget_fits_budget(self):
        nocout_area = self.model.total_area_mm2(presets.nocout_system())
        for system in (presets.mesh_system(), presets.flattened_butterfly_system()):
            width = link_width_for_area_budget(system, nocout_area)
            area = self.model.total_area_mm2(system.with_noc(system.noc.with_link_width(width)))
            assert area <= nocout_area * 1.001
            assert width >= 8

    def test_fbfly_needs_much_narrower_links_than_mesh(self):
        budget = self.model.total_area_mm2(presets.nocout_system())
        mesh_width = link_width_for_area_budget(presets.mesh_system(), budget)
        fbfly_width = link_width_for_area_budget(presets.flattened_butterfly_system(), budget)
        assert fbfly_width < mesh_width
        assert fbfly_width <= 32  # the paper reports roughly a 7x reduction

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError):
            link_width_for_area_budget(presets.mesh_system(), 0.0)


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
        model = NocEnergyModel()
        low = model.report(self.activity(1.0), cycles=1000)
        high = model.report(self.activity(2.0), cycles=1000)
        assert high.total_power_w == pytest.approx(2 * low.total_power_w)

    def test_links_dominate_energy(self):
        report = NocEnergyModel().report(self.activity(), cycles=1000)
        assert report.link_energy_j > report.buffer_energy_j
        assert report.link_energy_j > report.crossbar_energy_j

    def test_power_uses_cycle_count(self):
        model = NocEnergyModel()
        short = model.report(self.activity(), cycles=1000)
        long = model.report(self.activity(), cycles=2000)
        assert short.total_power_w == pytest.approx(2 * long.total_power_w)

    def test_zero_cycles_rejected(self):
        with pytest.raises(ValueError):
            NocEnergyModel().report(self.activity(), cycles=0)

    def test_report_dictionary(self):
        report = NocEnergyModel().report(self.activity(), cycles=1000)
        data = report.as_dict()
        assert data["total_power_w"] == pytest.approx(report.total_power_w)
        assert data["link_power_w"] <= data["total_power_w"]
