"""Tests for the experiment harnesses (run with tiny windows to stay fast)."""

import pytest

from repro.config.noc import Topology
from repro.experiments import ablations, fig4_snoops, fig7_performance, fig8_area, fig9_area_normalized, table1
from repro.experiments.harness import RunSettings
from repro.scenarios import SweepSpec, run_sweep

TINY = RunSettings(warmup_references=500, detailed_warmup_cycles=200, measure_cycles=800)


class TestHarness:
    def test_run_settings_scaling(self):
        scaled = TINY.scaled(2.0)
        assert scaled.measure_cycles == 1600
        # All three windows scale together (warmup_references used to be
        # skipped — that was the bug fixed alongside the scenario API).
        assert scaled.warmup_references == TINY.warmup_references * 2

    def test_run_settings_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXPERIMENT_SCALE", "0.5")
        settings = RunSettings.from_env(RunSettings(measure_cycles=6000))
        assert settings.measure_cycles == 3000
        assert settings.warmup_references == 1250

    def test_single_point_spec_produces_results(self):
        spec = SweepSpec(
            axes={"workload": ("Web Search",)},
            settings=TINY,
            fixed={"topology": "mesh", "num_cores": 16},
        )
        result = run_sweep(spec)[0].result
        assert result.total_instructions > 0
        assert result.topology == "mesh"

    def test_legacy_sweep_shims_are_gone(self):
        # Removed after their one-release deprecation window (PR 3 -> PR 4).
        import repro.experiments as experiments
        from repro.experiments import harness

        for name in ("run_single", "run_topology_sweep"):
            assert not hasattr(harness, name)
            assert not hasattr(experiments, name)


class TestFigureHarnesses:
    def test_table1_contains_all_rows(self):
        parameters = table1.run_table1()
        rendered = table1.render_table1(parameters).render()
        assert "NOC-Out" in rendered
        assert len(parameters) == 7

    def test_figure8_reports_three_topologies(self):
        breakdowns = fig8_area.run_figure8()
        assert set(breakdowns) == {"mesh", "flattened_butterfly", "noc_out"}
        rendered = fig8_area.render_figure8(breakdowns).render()
        assert "mesh" in rendered

    def test_figure9_link_width_selection(self):
        budget, widths = fig9_area_normalized.area_budget_link_widths()
        assert budget > 0
        assert widths[Topology.FLATTENED_BUTTERFLY] < widths[Topology.MESH] <= 128

    def test_figure7_single_workload_runs(self):
        normalised = fig7_performance.run_figure7(
            workload_names=["Web Search"], num_cores=16, settings=TINY
        )
        assert "Web Search" in normalised and "GMean" in normalised
        row = normalised["Web Search"]
        assert row["mesh"] == pytest.approx(1.0)
        assert row["noc_out"] > 0
        rendered = fig7_performance.render_figure7(normalised).render()
        assert "Web Search" in rendered

    def test_figure4_reports_percentages(self):
        rates = fig4_snoops.run_figure4(
            workload_names=["Web Search"], num_cores=16, settings=TINY
        )
        assert 0.0 <= rates["Web Search"] <= 100.0
        assert "Mean" in rates

    def test_ablation_render(self):
        table = ablations.render_ablation({"a": 1.0, "b": 1.1}, "t", "variant")
        assert "variant" in table.render()
