"""Tests for the result store and the query path.

Covers the result path end to end: one-file-per-result round-trips,
writers sharing a directory, quarantine of damaged files,
:class:`ResultCache` under the executor and the never-simulates query
CLI, whose figures and pivots read through that same cache.
"""

import json
import sys
import threading

import pytest

from repro.chip.chip import SimulationResults
from repro.config.noc import Topology
from repro.experiments import engine
from repro.experiments.engine import ResultCache, SweepExecutor
from repro.experiments.harness import RunSettings
from repro.scenarios import run_sweep
from repro.store import query, specs

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


class TestResultFiles:
    def test_store_load_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path / "store")
        points = [tiny_point(num_cores=cores) for cores in (4, 8, 16)]
        for seed, point in enumerate(points):
            path = cache.store(point, fake_result(seed))
            assert path == cache.results_dir / f"{point.content_hash()}.json"
        for seed, point in enumerate(points):
            assert cache.load(point) == fake_result(seed)
        assert cache.load(tiny_point(num_cores=2)) is None
        assert sorted(cache.results_dir.iterdir()) == sorted(
            cache.path(point) for point in points
        )

    def test_file_is_sorted_key_json(self, tmp_path):
        path = ResultCache(tmp_path).store(tiny_point(), fake_result())
        text = path.read_text()
        assert text == json.dumps(
            fake_result().to_dict(), sort_keys=True, separators=(",", ":")
        )

    def test_second_cache_sees_sibling_writes(self, tmp_path):
        """A second cache over the same directory sees new results at once."""
        writer = ResultCache(tmp_path / "store")
        reader = ResultCache(tmp_path / "store")
        point = tiny_point()
        assert reader.load(point) is None
        writer.store(point, fake_result())
        assert reader.load(point) == fake_result()

    def test_two_caches_store_the_same_point(self, tmp_path):
        """Two writers of one point both succeed; both read the result back."""
        caches = [ResultCache(tmp_path / "store"), ResultCache(tmp_path / "store")]
        point = tiny_point()
        paths = [cache.store(point, fake_result()) for cache in caches]
        assert paths[0] == paths[1]
        assert [cache.load(point) for cache in caches] == [fake_result()] * 2
        # Only the result file remains: no temp files are left behind.
        assert list(caches[0].results_dir.iterdir()) == [paths[0]]

    def test_concurrent_writers_never_expose_a_torn_file(self, tmp_path):
        """Threads re-storing one point through their own caches always
        read back the whole result: no load ever sees a partial file."""
        point = tiny_point()
        torn = []

        def write_and_read():
            cache = ResultCache(tmp_path / "store")
            for _ in range(25):
                cache.store(point, fake_result())
                if cache.load(point) != fake_result():
                    torn.append(True)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=write_and_read) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert torn == []
        cache = ResultCache(tmp_path / "store")
        assert list(cache.results_dir.iterdir()) == [cache.path(point)]

    def test_malformed_file_is_quarantined(self, tmp_path, monkeypatch):
        """An unparseable file drops out as *.corrupt; its point is a miss."""
        monkeypatch.setattr(engine, "_corruption_warned", False)
        bad_point, good_point = tiny_point(num_cores=4), tiny_point(num_cores=8)
        cache = ResultCache(tmp_path / "store")
        bad = cache.store(bad_point, fake_result(0))
        good = cache.store(good_point, fake_result(1))
        bad.write_text("{ not json")

        with pytest.warns(engine.CacheCorruptionWarning, match=bad.name):
            assert cache.load(bad_point) is None
        assert sorted(cache.results_dir.glob("*.json")) == [good]
        assert bad.with_name(bad.name + ".corrupt").exists()
        assert cache.load(good_point) == fake_result(1)


class TestResultCacheRoundTrip:
    def test_executor_round_trip(self, tmp_path):
        """Simulate through the result cache; rerun serves purely from it."""
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
        store = ResultCache(tmp_path / "store")
        for sp in spec.expand():
            store.store(sp.point, fake_result(sp.point.config.num_cores))
        return store

    def test_stats_reports_rows_and_bytes(self, tmp_path, capsys):
        store = self.fill_fig1(tmp_path)
        files = list(store.results_dir.glob("*.json"))
        (store.results_dir / "stray.json.corrupt").write_text("{")
        assert query.main(["--store", str(store.root), "stats"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {
            "store": str(store.root),
            "rows": len(files),
            "bytes": sum(path.stat().st_size for path in files),
        }

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
        files_before = sorted(store.results_dir.iterdir())
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
        assert sorted(store.results_dir.iterdir()) == files_before

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
        store = ResultCache(tmp_path / "empty")
        status = query.main(
            ["--store", str(store.root), "--scale", self.SCALE, "figure", "fig1"]
        )
        assert status == 3
        err = capsys.readouterr().err
        assert "cold store" in err
        # The hint names a fill command that exists, pointed at this store.
        assert f"python -m repro.reporting --store {store.root}" in err
        assert not store.root.exists()  # nothing was simulated to paper over the miss

    def test_cold_on_demand_sweep_names_run_sweep(self, tmp_path, capsys):
        store = ResultCache(tmp_path / "empty")
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
        store = ResultCache(tmp_path / "empty")
        assert query.main(["--store", str(store.root), "figure", "nope"]) == 2
        status = query.main(
            [
                "--store", str(store.root), "pivot", "nope",
                "--index", "a", "--columns", "b",
            ]
        )
        assert status == 2


    @pytest.mark.parametrize("scale", ["0", "nan", "inf"])
    def test_bad_scale_is_exit_code_2(self, tmp_path, capsys, scale):
        store = ResultCache(tmp_path / "empty")
        status = query.main(
            ["--store", str(store.root), "--scale", scale, "figure", "fig1"]
        )
        assert status == 2
        assert "finite positive" in capsys.readouterr().err

    def test_malformed_scale_variable_is_exit_code_2(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_EXPERIMENT_SCALE", "abc")
        store = ResultCache(tmp_path / "empty")
        status = query.main(
            [
                "--store", str(store.root),
                "pivot", "fig1", "--index", "num_cores", "--columns", "topology",
            ]
        )
        assert status == 2
        assert "REPRO_EXPERIMENT_SCALE must be" in capsys.readouterr().err


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
