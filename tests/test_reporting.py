"""Tests for the paper-vs-measured reporting layer (repro.reporting)."""

import pytest

from repro.reporting import (
    BASELINES,
    Baseline,
    FigureReport,
    baseline,
    baseline_names,
    build_report,
    compare,
    render_figure,
    render_report,
    report_names,
    status_table,
)
from repro.reporting.baselines import KEY_SEPARATOR
from repro.reporting.cli import generate, main
from repro.reporting.compare import (
    STATUS_FAIL,
    STATUS_NO_DATA,
    STATUS_PARTIAL,
    STATUS_PASS,
)
from repro.reporting.render import ascii_bar_chart, delta_table
from repro.reporting.tables import markdown_table
from repro.scenarios import ResultSet

from tests._fixtures import TINY_SETTINGS

TEST_BASELINE = Baseline(
    figure="test",
    title="Test figure",
    quantity="a quantity",
    unit="x",
    values={"a": 1.0, "b": 2.0},
    rel_tolerance=0.10,
    abs_tolerance=0.0,
    source="Figure T",
)


# --------------------------------------------------------------------- #
# Baselines
# --------------------------------------------------------------------- #
class TestBaselines:
    def test_every_baseline_has_a_reporter(self):
        assert baseline_names() == report_names()

    def test_baselines_are_well_formed(self):
        for name in baseline_names():
            table = baseline(name)
            assert table.values, name
            assert table.unit, name
            assert table.source, name
            assert table.rel_tolerance > 0 or table.abs_tolerance > 0, name

    def test_unknown_baseline_lists_available(self):
        with pytest.raises(KeyError, match="available"):
            baseline("fig999")

    def test_missing_point_key_lists_available(self):
        with pytest.raises(KeyError, match="available"):
            TEST_BASELINE.value("zzz")

    def test_nested_splits_two_part_keys(self):
        nested = BASELINES["fig7"].nested()
        assert nested["Web Search"]["noc_out"] == pytest.approx(1.10)
        assert all(KEY_SEPARATOR not in outer for outer in nested)

    def test_baseline_requires_tolerance(self):
        with pytest.raises(ValueError, match="tolerance"):
            Baseline(
                figure="bad",
                title="t",
                quantity="q",
                unit="x",
                values={"a": 1.0},
            )


# --------------------------------------------------------------------- #
# Comparison
# --------------------------------------------------------------------- #
class TestCompare:
    def test_pass_when_all_points_inside_band(self):
        comparison = compare(TEST_BASELINE, {"a": 1.05, "b": 2.1})
        assert comparison.status == STATUS_PASS
        assert comparison.n_within == comparison.n_measured == 2

    def test_fail_when_any_point_outside_band(self):
        comparison = compare(TEST_BASELINE, {"a": 1.5, "b": 2.0})
        assert comparison.status == STATUS_FAIL
        assert comparison.n_within == 1

    def test_partial_when_baseline_key_unmeasured(self):
        """A measured mapping missing a baseline key reads as partial."""
        comparison = compare(TEST_BASELINE, {"a": 1.0})
        assert comparison.status == STATUS_PARTIAL
        assert comparison.n_measured == 1
        missing = [d for d in comparison.deltas if d.measured is None]
        assert [d.key for d in missing] == ["b"]
        assert missing[0].abs_error is None
        assert missing[0].rel_error is None
        assert comparison.verdict(missing[0]) is None

    def test_no_data_when_nothing_measured(self):
        comparison = compare(TEST_BASELINE, {})
        assert comparison.status == STATUS_NO_DATA
        assert comparison.max_rel_error is None

    def test_extra_measured_keys_ignored(self):
        comparison = compare(TEST_BASELINE, {"a": 1.0, "b": 2.0, "zzz": 9.0})
        assert comparison.n_points == 2
        assert comparison.status == STATUS_PASS

    def test_tolerance_boundary_counts_as_within(self):
        """Exactly rel_tolerance away is inside the band (<=, not <)."""
        comparison = compare(TEST_BASELINE, {"a": 1.10, "b": 2.0})
        assert comparison.status == STATUS_PASS
        # ...and epsilon past it is outside.
        comparison = compare(TEST_BASELINE, {"a": 1.1001, "b": 2.0})
        assert comparison.status == STATUS_FAIL

    def test_abs_tolerance_boundary(self):
        table = Baseline(
            figure="abs",
            title="t",
            quantity="q",
            unit="W",
            values={"a": 2.0},
            abs_tolerance=0.5,
        )
        assert compare(table, {"a": 2.5}).status == STATUS_PASS
        assert compare(table, {"a": 2.51}).status == STATUS_FAIL

    def test_zero_paper_value_uses_abs_tolerance(self):
        table = Baseline(
            figure="zero",
            title="t",
            quantity="q",
            unit="x",
            values={"a": 0.0},
            rel_tolerance=0.1,
            abs_tolerance=0.2,
        )
        comparison = compare(table, {"a": 0.1})
        assert comparison.deltas[0].rel_error is None
        assert comparison.status == STATUS_PASS
        assert compare(table, {"a": 0.3}).status == STATUS_FAIL

    def test_errors_computed(self):
        comparison = compare(TEST_BASELINE, {"a": 1.2, "b": 2.0})
        delta = comparison.deltas[0]
        assert delta.abs_error == pytest.approx(0.2)
        assert delta.rel_error == pytest.approx(0.2)
        assert comparison.max_rel_error == pytest.approx(0.2)
        assert comparison.mean_rel_error == pytest.approx(0.1)


# --------------------------------------------------------------------- #
# Rendering
# --------------------------------------------------------------------- #
class TestRender:
    def test_markdown_table_shape(self):
        text = markdown_table(("A", "B"), [("x", 1.0)])
        lines = text.splitlines()
        assert lines[0] == "| A | B |"
        assert lines[1] == "| --- | --- |"
        assert lines[2] == "| x | 1.000 |"
        with pytest.raises(ValueError):
            markdown_table(("A",), [("x", "y")])

    def test_delta_table_marks_missing_and_failing(self):
        comparison = compare(TEST_BASELINE, {"a": 1.5})
        text = delta_table(comparison)
        assert "NO" in text  # a is out of tolerance
        assert "n/a" in text  # b is unmeasured

    def test_ascii_chart_scales_and_handles_missing(self):
        comparison = compare(TEST_BASELINE, {"a": 1.0})
        chart = ascii_bar_chart(comparison, width=10)
        lines = chart.splitlines()
        assert len(lines) == 4  # two points x (paper, measured)
        assert "(no data)" in chart
        # b's paper bar (value 2.0) is the maximum: fully filled.
        assert "#" * 10 in lines[2]

    def test_empty_comparison_renders(self):
        comparison = compare(TEST_BASELINE, {})
        section = render_figure(FigureReport(comparison=comparison))
        assert "no-data" in section
        assert "Test figure" in section

    def test_full_report_contains_status_table_and_sections(self):
        reports = [FigureReport(comparison=compare(TEST_BASELINE, {"a": 1.0, "b": 2.0}))]
        text = render_report(reports, {"figures": "test"})
        assert "## Status by figure" in text
        assert "`test`" in text
        assert "## Test figure" in text
        assert status_table(reports) in text


# --------------------------------------------------------------------- #
# Reporting on real (tiny) sweeps
# --------------------------------------------------------------------- #
class TestFigureReports:
    def test_fig8_report_is_analytic_and_complete(self):
        report = build_report("fig8")
        assert report.comparison.n_measured == 3
        assert report.measured_table

    def test_fig4_report_partial_on_reduced_workloads(self):
        report = build_report(
            "fig4", settings=TINY_SETTINGS, workload_names=["Web Search"]
        )
        measured = {d.key for d in report.comparison.deltas if d.measured is not None}
        assert measured == {"Web Search"}
        assert report.comparison.status in (STATUS_PARTIAL, STATUS_FAIL)
        assert "Mean not compared" in report.notes

    def test_fig1_report_without_64_cores_reads_no_data(self):
        report = build_report(
            "fig1",
            settings=TINY_SETTINGS,
            workload_names=["Web Search"],
            core_counts=(4, 8),
        )
        assert report.comparison.status == STATUS_NO_DATA
        assert report.measured_table  # curves still rendered

    def test_unknown_figure_rejected(self):
        with pytest.raises(KeyError, match="available"):
            build_report("fig999")


# --------------------------------------------------------------------- #
# CLI / generate
# --------------------------------------------------------------------- #
class TestCli:
    def test_cold_cache_generates_report_and_counts_misses(self, tmp_path):
        outcome = generate(
            figures=["fig4"],
            out_dir=str(tmp_path / "reports"),
            settings=TINY_SETTINGS,
            workload_names=["Web Search"],
        )
        assert outcome["path"].exists()
        assert "Figure 4" in outcome["text"]
        stats = outcome["stats"]
        assert stats.simulations_run == 1
        assert stats.cache_hits == 0

    def test_warm_cache_runs_zero_simulations(self, tmp_path):
        """Acceptance: a warm-cache report is pure post-processing."""
        kwargs = dict(
            figures=["fig1"],
            settings=TINY_SETTINGS,
            workload_names=["Web Search"],
            core_counts=(4, 8),
        )
        cold = generate(out_dir=str(tmp_path / "r1"), **kwargs)
        assert cold["stats"].simulations_run == 4  # 2 fabrics x 2 core counts
        warm = generate(out_dir=str(tmp_path / "r2"), **kwargs)
        assert warm["stats"].simulations_run == 0
        assert warm["stats"].cache_misses == 0
        assert warm["stats"].cache_hits == 4

    def test_report_is_byte_stable_across_runs_from_same_cache(self, tmp_path):
        kwargs = dict(
            figures=["fig1", "fig8"],
            settings=TINY_SETTINGS,
            workload_names=["Web Search"],
            core_counts=(4, 8),
        )
        first = generate(out_dir=str(tmp_path / "r1"), **kwargs)
        second = generate(out_dir=str(tmp_path / "r2"), **kwargs)
        assert first["path"].read_bytes() == second["path"].read_bytes()

    def test_main_cold_cache(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_EXPERIMENT_SCALE", "0.01")
        code = main(
            [
                "--figure",
                "fig4",
                "--workloads",
                "Web Search",
                "--out",
                str(tmp_path / "reports"),
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "REPRODUCTION.md" in captured
        assert "simulations run: 1" in captured
        assert (tmp_path / "reports" / "REPRODUCTION.md").exists()

    def test_main_rejects_unknown_figure(self, tmp_path, capsys):
        code = main(["--figure", "fig999", "--out", str(tmp_path)])
        assert code == 2
        assert "available" in capsys.readouterr().err

    def test_main_rejects_non_positive_scale(self, tmp_path, capsys):
        code = main(["--scale", "0", "--out", str(tmp_path)])
        assert code == 2

    def test_main_list(self, capsys):
        assert main(["--list"]) == 0
        printed = capsys.readouterr().out.split()
        assert printed == report_names()

    def test_fig1_penalty_not_compared_on_reduced_workloads(self):
        """A partial workload set must not score against the full-figure value."""
        report = build_report(
            "fig1",
            settings=TINY_SETTINGS,
            workload_names=["Web Search"],
            core_counts=(4, 64),
        )
        assert report.comparison.status == STATUS_NO_DATA
        assert "Penalty not compared" in report.notes

    def test_counting_executor_counts_abandoned_streams(self, tmp_path):
        from repro.experiments.engine import ResultCache, SweepExecutor
        from repro.experiments.fig4_snoops import figure4_spec
        from repro.scenarios import iter_results

        executor = SweepExecutor(cache=ResultCache(tmp_path))
        spec = figure4_spec(
            ["Web Search", "Data Serving"], num_cores=16, settings=TINY_SETTINGS
        )
        for _ in iter_results(spec, executor=executor):
            break  # abandon the stream after the first record
        assert executor.total_stats.simulations_run >= 1

    def test_counting_executor_accumulates_across_sweeps(self, tmp_path):
        from repro.experiments.engine import ResultCache, SweepExecutor
        from repro.experiments.fig4_snoops import figure4_spec
        from repro.scenarios import run_sweep

        executor = SweepExecutor(cache=ResultCache(tmp_path))
        spec = figure4_spec(["Web Search"], num_cores=16, settings=TINY_SETTINGS)
        run_sweep(spec, executor=executor)
        run_sweep(spec, executor=executor)
        assert executor.total_stats.simulations_run == 1
        assert executor.total_stats.cache_hits == 1

    def test_empty_result_set_report_degrades_to_no_data(self):
        """An empty ResultSet pivots to nothing measured, not a crash."""
        empty = ResultSet([])
        assert empty.summary("throughput_ipc")["count"] == 0
        comparison = compare(TEST_BASELINE, {})
        assert comparison.status == STATUS_NO_DATA
