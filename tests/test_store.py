"""Tests for the columnar result store and the query path.

Covers the result path end to end: segment format round-trips,
compaction canonicalisation, quarantine of damaged segments,
:class:`ResultCache` over the store and the never-simulates query CLI,
whose figures and pivots read through that same cache.
"""

import json

import pytest

from repro.chip.chip import SimulationResults
from repro.config.noc import Topology
from repro.experiments.engine import ResultCache, SweepExecutor
from repro.experiments.harness import RunSettings
from repro.scenarios import run_sweep
from repro.store import ColumnarStore, StoreError
from repro.store import columnar, query, specs

from tests._fixtures import TINY_SETTINGS
from tests.test_engine import tiny_point


def fake_result(seed: int = 0) -> SimulationResults:
    """A deterministic synthetic result (store tests never need real sims)."""
    return SimulationResults(
        workload="Web Search",
        topology="mesh",
        num_cores=16,
        active_cores=16,
        cycles=600 + seed,
        total_instructions=9000 + 7 * seed,
        per_core_instructions={0: 500 + seed, 1: 400},
        network_mean_latency=12.5 + seed,
        llc_accesses=1000 + seed,
        llc_hit_rate=0.5,
        snoop_rate=0.1,
        l1i_mpki=20.0,
        memory_reads=300,
        network_activity={"link_traversals": 10.0 + seed},
    )


class TestColumnarStore:
    def test_append_get_round_trip(self, tmp_path):
        store = ColumnarStore(tmp_path / "store")
        rows = [(f"{i:064x}", fake_result(i)) for i in range(3)]
        path = store.append_results(rows)
        assert path is not None and path.exists()
        for digest, result in rows:
            assert digest in store
            assert store.get(digest) == result
        assert store.get("f" * 64) is None
        assert len(store) == 3

    def test_append_empty_is_a_no_op(self, tmp_path):
        store = ColumnarStore(tmp_path / "store")
        assert store.append_results([]) is None
        assert store.segment_paths() == []

    def test_refresh_sees_sibling_appends(self, tmp_path):
        """A second store instance over the same directory sees new rows."""
        writer = ColumnarStore(tmp_path / "store")
        reader = ColumnarStore(tmp_path / "store")
        assert reader.get("0" * 64) is None
        writer.append_results([("0" * 64, fake_result())])
        # The reader refreshes lazily on the miss and finds the new segment.
        assert reader.get("0" * 64) == fake_result()

    def test_first_write_wins_on_duplicate_hashes(self, tmp_path):
        store = ColumnarStore(tmp_path / "store")
        store.append_results([("0" * 64, fake_result(1))])
        store.append_results([("0" * 64, fake_result(2))])
        assert store.get("0" * 64) == fake_result(1)
        stats = store.compact()
        assert stats.duplicates_dropped == 1
        assert store.get("0" * 64) == fake_result(1)

    def test_compact_folds_to_one_canonical_segment(self, tmp_path):
        """Same rows, different arrival orders -> byte-identical segment."""
        rows = [(f"{i:064x}", fake_result(i)) for i in range(5)]

        def fill(root, order):
            store = ColumnarStore(root)
            for index in order:
                store.append_results([rows[index]])
            store.compact()
            (segment,) = store.segment_paths()
            return segment.read_bytes()

        bytes_a = fill(tmp_path / "a", [0, 1, 2, 3, 4])
        bytes_b = fill(tmp_path / "b", [4, 2, 0, 3, 1])
        assert bytes_a == bytes_b

    def test_compact_is_idempotent(self, tmp_path):
        store = ColumnarStore(tmp_path / "store")
        store.append_results([(f"{i:064x}", fake_result(i)) for i in range(3)])
        store.compact()
        (segment,) = store.segment_paths()
        before = segment.read_bytes()
        stats = store.compact()
        assert stats.duplicates_dropped == 0
        (segment,) = store.segment_paths()
        assert segment.read_bytes() == before

    def test_malformed_segment_is_quarantined(self, tmp_path, monkeypatch):
        """An unparseable segment drops out as *.corrupt; its rows are misses."""
        monkeypatch.setattr(columnar, "_corruption_warned", False)
        store = ColumnarStore(tmp_path / "store")
        store.append_results([("0" * 64, fake_result(0))])
        store.append_results([("1" * 64, fake_result(1))])
        bad, good = store.segment_paths()
        bad.write_text("{ not json")

        reader = ColumnarStore(tmp_path / "store")
        with pytest.warns(columnar.CacheCorruptionWarning, match=bad.name):
            assert reader.refresh() == 1
        assert reader.segment_paths() == [good]
        assert bad.with_name(bad.name + ".corrupt").exists()
        assert reader.get("0" * 64) is None
        assert reader.get("1" * 64) == fake_result(1)

    def test_future_segment_schema_refuses_loudly(self, tmp_path):
        """A foreign schema version is not damage: it raises, nothing is moved."""
        store = ColumnarStore(tmp_path / "store")
        store.append_results([("0" * 64, fake_result())])
        (segment,) = store.segment_paths()
        payload = json.loads(segment.read_text())
        payload["schema"] = 99
        segment.write_text(json.dumps(payload))
        with pytest.raises(StoreError, match="schema 99"):
            ColumnarStore(tmp_path / "store").refresh()
        assert segment.exists()

    def test_future_manifest_schema_refuses_loudly(self, tmp_path):
        store = ColumnarStore(tmp_path / "store")
        store.append_results([("0" * 64, fake_result())])
        manifest = json.loads(store.manifest_path.read_text())
        manifest["schema"] = 99
        store.manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(StoreError, match="manifest schema"):
            ColumnarStore(tmp_path / "store").refresh()


class TestResultCacheRoundTrip:
    def test_executor_round_trip_on_columnar_backend(self, tmp_path):
        """Simulate through the columnar cache; rerun serves purely from it."""
        cache = ResultCache(tmp_path / "store")
        points = [
            tiny_point(topology=Topology.MESH),
            tiny_point(topology=Topology.NOC_OUT),
        ]
        executor = SweepExecutor(jobs=1, cache=cache)
        first = executor.run(points)
        assert executor.last_stats.simulations_run == 2

        fresh = SweepExecutor(jobs=1, cache=ResultCache(tmp_path / "store"))
        second = fresh.run(points)
        assert fresh.last_stats.simulations_run == 0
        assert fresh.last_stats.cache_hits == 2
        assert second == first


class TestQueryCLI:
    SCALE = "0.02"

    def fill_fig1(self, tmp_path):
        """Fill the fig1 sweep with synthetic results (no real sims)."""
        spec = specs.figure_spec("fig1", RunSettings().scaled(float(self.SCALE)))
        store = ColumnarStore(tmp_path / "store")
        store.append_results(
            (sp.content_hash(), fake_result(sp.point.config.num_cores))
            for sp in spec.expand()
        )
        return store

    def test_stats_reports_rows_and_segments(self, tmp_path, capsys):
        store = self.fill_fig1(tmp_path)
        assert query.main(["--store", str(store.root), "stats"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rows"] == len(store)
        assert payload["segments"] == len(store.segment_paths())

    def test_figure_served_from_warm_store(self, tmp_path, capsys):
        store = self.fill_fig1(tmp_path)
        status = query.main(
            ["--store", str(store.root), "--scale", self.SCALE, "figure", "fig1"]
        )
        assert status == 0
        out = capsys.readouterr().out
        assert "0 simulations" in out
        assert "Figure 1" in out

    def test_pivot_served_from_warm_store(self, tmp_path, capsys):
        """The served pivot is run_sweep's pivot over the same store."""
        store = self.fill_fig1(tmp_path)
        segments_before = store.segment_paths()
        status = query.main(
            [
                "--store", str(store.root), "--scale", self.SCALE,
                "pivot", "fig1",
                "--index", "num_cores", "--columns", "topology",
                "--metric", "per_core_ipc",
                "--where", "workload=Data Serving",
            ]
        )
        assert status == 0
        served = capsys.readouterr().out
        assert store.segment_paths() == segments_before

        spec = specs.figure_spec("fig1", RunSettings().scaled(float(self.SCALE)))
        executor = SweepExecutor(jobs=1, cache=ResultCache(store.root))
        table = (
            run_sweep(spec, executor=executor)
            .filter(workload="Data Serving")
            .pivot("num_cores", "topology", metric="per_core_ipc")
        )
        assert executor.last_stats.simulations_run == 0
        expected = json.dumps(table, indent=2, sort_keys=True, default=str)
        assert served == expected + "\n"

    def test_cold_store_is_exit_code_3_not_a_simulation(self, tmp_path, capsys):
        store = ColumnarStore(tmp_path / "empty")
        status = query.main(
            ["--store", str(store.root), "--scale", self.SCALE, "figure", "fig1"]
        )
        assert status == 3
        err = capsys.readouterr().err
        assert "cold store" in err
        # The hint names a fill command that exists, pointed at this store.
        assert f"python -m repro.reporting --store {store.root}" in err
        assert len(store) == 0  # nothing was simulated to paper over the miss

    def test_cold_on_demand_sweep_names_run_sweep(self, tmp_path, capsys):
        store = ColumnarStore(tmp_path / "empty")
        status = query.main(
            [
                "--store", str(store.root), "--scale", self.SCALE,
                "pivot", "scale_out", "--index", "num_cores", "--columns", "topology",
            ]
        )
        assert status == 3
        # scale_out is not a report figure, so the hint fills it via run_sweep.
        assert 'run_sweep(figure_spec("scale_out"))' in capsys.readouterr().err

    def test_unknown_names_are_exit_code_2(self, tmp_path, capsys):
        store = ColumnarStore(tmp_path / "empty")
        assert query.main(["--store", str(store.root), "figure", "nope"]) == 2
        status = query.main(
            [
                "--store", str(store.root), "pivot", "nope",
                "--index", "a", "--columns", "b",
            ]
        )
        assert status == 2


class TestSpecRegistry:
    def test_figure_names_and_order_are_pinned(self):
        from repro.reporting.figures import report_names

        assert specs.spec_names() == [
            "fig1",
            "fig4",
            "fig7",
            "fig9",
            "power",
            "ablation_banking",
            "ablation_arbitration",
            "ablation_scaling",
            "scale_out",
            "colocation",
        ]
        assert report_names() == [
            "fig1",
            "fig4",
            "fig7",
            "fig8",
            "fig9",
            "power",
            "ablation_banking",
            "ablation_arbitration",
            "ablation_scaling",
        ]

    def test_report_points_cover_figures_with_spec_and_report(self):
        from repro.reporting.figures import report_names

        reported = set(report_names())
        expected = {}
        for name in specs.spec_names():
            if name in reported:
                for sweep_point in specs.figure_spec(name, TINY_SETTINGS).expand():
                    expected.setdefault(sweep_point.content_hash(), sweep_point)
        points = specs.report_points(TINY_SETTINGS)
        assert [sp.content_hash() for sp in points] == list(expected)

    def test_power_reuses_fig7_sweep(self):
        settings = TINY_SETTINGS
        power = {sp.content_hash() for sp in specs.figure_spec("power", settings).expand()}
        fig7 = {sp.content_hash() for sp in specs.figure_spec("fig7", settings).expand()}
        assert power == fig7

    def test_report_points_deduplicates(self):
        points = specs.report_points(TINY_SETTINGS)
        hashes = [sp.content_hash() for sp in points]
        assert len(hashes) == len(set(hashes))
        assert len(hashes) > 0

    def test_unknown_spec_name_lists_options(self):
        with pytest.raises(KeyError, match="fig1"):
            specs.figure_spec("nope")
