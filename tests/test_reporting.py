"""Tests for the paper-vs-measured reporting layer (repro.reporting)."""

import json
from pathlib import Path

import pytest

from repro import power
from repro.chip.chip import SimulationResults
from repro.config import presets
from repro.config.noc import Topology
from repro.experiments import ablations, colocation, fig9_area_normalized, scale_out
from repro.experiments.engine import ResultCache, SweepExecutor
from repro.experiments.fig1_scaling import figure1_report, figure1_spec
from repro.experiments.fig4_snoops import figure4_report, figure4_spec
from repro.experiments.fig7_performance import figure7_report, figure7_spec
from repro.experiments.fig9_area_normalized import figure9_report, figure9_spec
from repro.experiments.harness import RunSettings
from repro.experiments.power_analysis import power_report

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
from repro.reporting.figures import report_points
from repro.reporting.render import ascii_bar_chart, delta_table
from repro.reporting.tables import markdown_table
from repro.scenarios import ResultSet, record_for

from tests._fixtures import TINY_SETTINGS

REPO_ROOT = Path(__file__).resolve().parents[1]
#: The full-scale results behind the committed report (read-only here).
COMMITTED_RESULTS = REPO_ROOT / "benchmarks" / "perf" / "data" / "report_results.json"
COMMITTED_REPORT = REPO_ROOT / "reports" / "REPRODUCTION.md"

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

    @pytest.mark.parametrize("scale", ["nan", "inf"])
    def test_main_rejects_non_finite_scale(self, tmp_path, capsys, scale):
        code = main(["--scale", scale, "--out", str(tmp_path)])
        assert code == 2
        assert "finite positive" in capsys.readouterr().err

    def test_main_rejects_malformed_scale_variable(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_EXPERIMENT_SCALE", "abc")
        code = main(["--out", str(tmp_path)])
        assert code == 2
        assert "REPRO_EXPERIMENT_SCALE must be" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_main_rejects_jobs_below_one(self, tmp_path, capsys, jobs):
        code = main(["--jobs", jobs, "--out", str(tmp_path)])
        assert code == 2
        assert "--jobs" in capsys.readouterr().err

    @pytest.mark.parametrize("cores", ["4,x", "0", "-4"])
    def test_main_rejects_non_integer_cores(self, tmp_path, capsys, cores):
        code = main(["--cores", cores, "--out", str(tmp_path)])
        assert code == 2
        assert "--cores" in capsys.readouterr().err

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
        assert empty.pivot("workload", "topology") == {}
        comparison = compare(TEST_BASELINE, {})
        assert comparison.status == STATUS_NO_DATA


# --------------------------------------------------------------------- #
# The committed report, regenerated from its committed results
# --------------------------------------------------------------------- #
def committed_store(root: Path):
    """A store at ``root`` holding every report point's committed result."""
    committed = json.loads(COMMITTED_RESULTS.read_text())
    settings = RunSettings(seed=committed["seed"])
    cache = ResultCache(root)
    for sweep_point in report_points(settings):
        coords = sweep_point.coords
        label = ",".join(f"{key}={coords[key]}" for key in sorted(coords))
        cache.store(
            sweep_point.point,
            SimulationResults.from_dict(committed["results"][label]),
        )
    return settings, cache


class TestCommittedReport:
    def test_committed_results_regenerate_the_committed_report(self, tmp_path):
        """Every report point served from the committed results, byte for byte."""
        settings, cache = committed_store(tmp_path / "store")
        outcome = generate(
            out_dir=str(tmp_path / "out"),
            settings=settings,
            executor=SweepExecutor(jobs=1, cache=cache),
        )
        stats = outcome["stats"]
        assert (stats.simulations_run, stats.cache_misses) == (0, 0)
        assert outcome["path"].read_bytes() == COMMITTED_REPORT.read_bytes()


    def test_fig7_and_power_share_one_run_of_their_spec(self, tmp_path, monkeypatch):
        """``generate`` runs figure7_spec once; each report is as if built alone."""
        import functools

        from repro.experiments import fig7_performance

        settings, cache = committed_store(tmp_path / "store")
        factory_calls = []
        spec_factory = fig7_performance.figure7_spec

        @functools.wraps(spec_factory)
        def counting_spec(*args, **kwargs):
            factory_calls.append(kwargs)
            return spec_factory(*args, **kwargs)

        monkeypatch.setattr(fig7_performance, "figure7_spec", counting_spec)
        executor = SweepExecutor(jobs=1, cache=cache)
        outcome = generate(out_dir=str(tmp_path / "out"), settings=settings, executor=executor)
        assert len(factory_calls) == 1
        stats = outcome["stats"]
        assert (stats.cache_hits, stats.cache_misses, stats.simulations_run) == (80, 0, 0)
        assert outcome["path"].read_bytes() == COMMITTED_REPORT.read_bytes()

        by_name = dict(zip(report_names(), outcome["reports"]))
        for name in ("fig7", "power"):
            alone = build_report(
                name, settings=settings, executor=SweepExecutor(jobs=1, cache=cache)
            )
            assert by_name[name] == alone

    def test_a_shared_run_is_held_only_until_its_last_figure(self, tmp_path, monkeypatch):
        """fig7's records live until power reports; other sets die at once."""
        import weakref

        from repro.reporting import cli

        settings, cache = committed_store(tmp_path / "store")
        sets = {}
        alive_at = {}

        def watching(name, results):
            alive_at[name] = sorted(n for n, ref in sets.items() if ref() is not None)
            if results is not None:
                sets[name] = weakref.ref(results)
            return build_report(name, results=results)

        monkeypatch.setattr(cli, "build_report", watching)
        generate(
            out_dir=str(tmp_path / "out"),
            settings=settings,
            executor=SweepExecutor(jobs=1, cache=cache),
        )
        assert report_names()[:6] == ["fig1", "fig4", "fig7", "fig8", "fig9", "power"]
        assert alive_at["fig4"] == []
        assert alive_at["fig9"] == ["fig7"]
        assert alive_at["power"] == ["fig7"]
        assert alive_at["ablation_banking"] == []


# --------------------------------------------------------------------- #
# Report hooks are pure functions of a ResultSet
# --------------------------------------------------------------------- #
def hand_built(spec, **fields_for) -> ResultSet:
    """``spec``'s records over hand-built results: no simulation runs.

    Each keyword names a :class:`SimulationResults` field and maps a
    point's coordinates to its value; every point commits 1000
    instructions per core over 1000 cycles unless told otherwise.
    """
    records = []
    for sweep_point in spec.expand():
        coords = sweep_point.coords
        num_cores = coords.get("num_cores", 64)
        fields = dict(
            workload=coords.get("workload", ""),
            topology=coords.get("topology", "mesh"),
            num_cores=num_cores,
            active_cores=num_cores,
            cycles=1000,
            total_instructions=1000 * num_cores,
        )
        fields.update({name: value(coords) for name, value in fields_for.items()})
        records.append(record_for(sweep_point, SimulationResults(**fields)))
    return ResultSet(records)


def measured_keys(report) -> set:
    return {d.key for d in report.comparison.deltas if d.measured is not None}


SIX = tuple(presets.WORKLOAD_NAMES)
#: Throughput per fabric, relative to the mesh.
SPEEDUP = {"mesh": 1.0, "flattened_butterfly": 1.2, "noc_out": 1.25}


def fabric_instructions(coords):
    return int(64_000 * SPEEDUP[coords["topology"]])


class TestReportHooksArePure:
    @pytest.fixture(autouse=True)
    def _no_sweeps(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a report hook ran a sweep")

        monkeypatch.setattr(SweepExecutor, "run_iter", refuse)

    def test_fig1_penalty_with_the_two_workloads_passed_explicitly(self):
        def instructions(coords):
            slow = coords["topology"] == "mesh" and coords["num_cores"] == 64
            return int(1000 * coords["num_cores"] * (0.75 if slow else 1.0))

        spec = figure1_spec(presets.FIGURE1_WORKLOADS, settings=TINY_SETTINGS)
        results = hand_built(spec, total_instructions=instructions)
        report = figure1_report(results)
        assert report.notes == ""  # exactly the default sweep: no reduced-sweep note
        (delta,) = report.comparison.deltas
        assert delta.measured == pytest.approx(25.0)
        assert report == figure1_report(results)

    def test_fig1_notes_follow_the_swept_axes(self):
        spec = figure1_spec(["Web Search"], core_counts=(1, 64), settings=TINY_SETTINGS)
        report = figure1_report(hand_built(spec))
        assert report.comparison.status == STATUS_NO_DATA
        assert report.notes.startswith("Penalty not compared")
        assert (
            "Reduced sweep: core counts [1, 64], workloads ['Web Search']."
            in report.notes
        )

    def test_fig4_mean_gated_on_all_six_workloads(self):
        def snoops(coords):
            return 0.01 * (1 + SIX.index(coords["workload"]))

        full = figure4_report(
            hand_built(figure4_spec(settings=TINY_SETTINGS), snoop_rate=snoops)
        )
        assert "Mean" in measured_keys(full) and full.notes == ""
        mean = next(d.measured for d in full.comparison.deltas if d.key == "Mean")
        assert mean == pytest.approx(3.5)

        reduced = figure4_report(
            hand_built(figure4_spec(SIX[:2], settings=TINY_SETTINGS), snoop_rate=snoops)
        )
        assert "Mean" not in measured_keys(reduced)
        assert reduced.notes.startswith("Mean not compared")

    def test_fig7_gmean_gated_on_all_six_workloads(self):
        full = figure7_report(
            hand_built(
                figure7_spec(settings=TINY_SETTINGS),
                total_instructions=fabric_instructions,
            )
        )
        gmean = {
            d.key: d.measured
            for d in full.comparison.deltas
            if d.key.startswith("GMean")
        }
        assert gmean and full.notes == ""
        assert gmean["GMean / noc_out"] == pytest.approx(1.25)

        reduced = figure7_report(
            hand_built(
                figure7_spec(["Web Search"], settings=TINY_SETTINGS),
                total_instructions=fabric_instructions,
            )
        )
        assert not any(key.startswith("GMean") for key in measured_keys(reduced))
        assert reduced.notes.startswith("GMean not compared")

    def test_fig9_reads_link_widths_off_the_records(self):
        widths = {"mesh": 100, "flattened_butterfly": 20, "noc_out": 128}
        spec = figure9_spec(
            settings=TINY_SETTINGS,
            link_widths={Topology(name): width for name, width in widths.items()},
        )
        full = figure9_report(hand_built(spec, total_instructions=fabric_instructions))
        assert "mesh=100b, fbfly=20b, noc_out=128b" in full.measured_table
        assert measured_keys(full) and full.notes == ""

        reduced = figure9_report(
            hand_built(figure9_spec(["Web Search"], settings=TINY_SETTINGS))
        )
        assert reduced.comparison.status == STATUS_NO_DATA
        assert reduced.notes.startswith("GMean not compared")

    def test_fig9_outcome_computes_the_budget_once(self, monkeypatch):
        spec = figure9_spec(
            settings=TINY_SETTINGS,
            link_widths={Topology.MESH: 100, Topology.FLATTENED_BUTTERFLY: 20,
                         Topology.NOC_OUT: 128},
        )
        results = hand_built(spec)
        noc_area = power.noc_area
        calls = []

        def counted(config):
            calls.append(config.noc.topology)
            return noc_area(config)

        # The width search calls the module's own name; fig9 holds a copy.
        monkeypatch.setattr(power, "noc_area", counted)
        monkeypatch.setattr(fig9_area_normalized, "noc_area", counted)
        outcome = fig9_area_normalized.figure9_outcome(results)
        assert calls == [Topology.NOC_OUT]
        assert outcome["area_budget_mm2"] == noc_area(presets.nocout_system()).total_mm2

    def test_power_average_gated_on_all_six_workloads(self):
        def activity(coords):
            return {"link_flit_mm": 1e6, "flits_switched": 1e5}

        full = power_report(
            hand_built(figure7_spec(settings=TINY_SETTINGS), network_activity=activity)
        )
        assert measured_keys(full) == {"mesh", "flattened_butterfly", "noc_out"}
        assert full.notes == ""

        reduced = power_report(
            hand_built(
                figure7_spec(SIX[:3], settings=TINY_SETTINGS), network_activity=activity
            )
        )
        assert reduced.comparison.status == STATUS_NO_DATA
        assert reduced.notes.startswith("Average not compared")

    def test_ablations_note_the_workload_they_measured(self):
        banking = ablations.llc_banking_report(
            hand_built(ablations.llc_banking_spec("Web Search", settings=TINY_SETTINGS))
        )
        assert banking.notes == "Measured on Web Search."
        assert measured_keys(banking) == {"4 cores/bank vs 1 core/bank"}

        arbitration = ablations.tree_arbitration_report(
            hand_built(ablations.tree_arbitration_spec(settings=TINY_SETTINGS))
        )
        assert arbitration.notes == "Measured on Data Serving."

        scaling = ablations.scaling_report(
            hand_built(ablations.scaling_spec(settings=TINY_SETTINGS))
        )
        assert scaling.notes == "Measured on MapReduce-W at 128 cores."
        assert len(measured_keys(scaling)) == 3

    def test_scale_out_ratios_follow_the_swept_fabrics(self):
        spec = scale_out.scale_out_spec(
            ["MapReduce-W"], core_counts=(512,), fabrics=("mesh", "cmesh"),
            settings=TINY_SETTINGS,
        )
        report = scale_out.scale_out_report(
            hand_built(
                spec,
                total_instructions=lambda c: 512_000 * (3 if c["topology"] == "cmesh" else 2),
            )
        )
        (delta,) = [d for d in report.comparison.deltas if d.measured is not None]
        assert delta.key == "cmesh vs mesh @ 512 cores"
        assert delta.measured == pytest.approx(1.5)
        assert (
            "Reduced sweep: core counts [512], fabrics ['mesh', 'cmesh']."
            in report.notes
        )

    def test_colocation_ratios_from_per_tenant_tails(self):
        p99 = {"homogeneous": 100.0, "split_half": 50.0, "checkerboard": 65.0}
        spec = colocation.colocation_spec(
            arrivals=("bursty",), loads=(colocation.LOADS[1],), settings=TINY_SETTINGS
        )
        results = hand_built(
            spec,
            per_tenant_latency=lambda c: {
                "Data Serving": {"count": 10.0, "p99": p99[c["placement"]]}
            },
        )
        report = colocation.colocation_report(results)
        assert report.comparison.status == STATUS_PASS
        assert "Reduced sweep: placements" in report.notes
