"""Tests for the result store and the query path.

Covers the result path end to end: one-file-per-result round-trips,
writers sharing a directory, quarantine of damaged files,
:class:`ResultCache` under the executor, and the report CLI's
never-simulating ``pivot`` command, which reads through that same cache.
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
from repro.reporting import cli, figures

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
    """``python -m repro.reporting pivot``: served from the store, never simulated."""

    SCALE = "0.02"

    def fill(self, tmp_path, name="fig1"):
        """Fill sweep ``name`` with synthetic results (no real sims)."""
        spec = figures.figure_spec(name, RunSettings().scaled(float(self.SCALE)))
        store = ResultCache(tmp_path / "store")
        for sp in spec.expand():
            store.store(sp.point, fake_result(sp.point.config.num_cores))
        return store

    def pivot(self, store, name="fig1", *extra, scale=SCALE):
        argv = ["--store", str(store.root)]
        if scale is not None:
            argv += ["--scale", scale]
        argv += ["pivot", name, "--index", "num_cores", "--columns", "topology"]
        return cli.main(argv + list(extra))

    def test_figure_served_from_warm_store(self, tmp_path, capsys):
        """``--store DIR --figure NAME`` renders a warm figure with 0 simulations."""
        store = self.fill(tmp_path)
        status = cli.main(
            [
                "--store", str(store.root), "--scale", self.SCALE,
                "--figure", "fig1", "--out", str(tmp_path / "out"),
            ]
        )
        assert status == 0
        assert "simulations run: 0" in capsys.readouterr().out
        assert "Figure 1" in (tmp_path / "out" / "REPRODUCTION.md").read_text()

    def test_pivot_served_from_warm_store(self, tmp_path, capsys):
        """The served pivot is run_sweep's pivot over the same store."""
        store = self.fill(tmp_path)
        files_before = sorted(store.results_dir.iterdir())
        status = self.pivot(
            store, "fig1",
            "--metric", "per_core_ipc", "--where", "workload=Data Serving",
        )
        assert status == 0
        served = capsys.readouterr().out
        assert sorted(store.results_dir.iterdir()) == files_before

        spec = figures.figure_spec("fig1", RunSettings().scaled(float(self.SCALE)))
        executor = SweepExecutor(jobs=1, cache=ResultCache(store.root))
        table = (
            run_sweep(spec, executor=executor)
            .filter(workload="Data Serving")
            .pivot("num_cores", "topology", metric="per_core_ipc")
        )
        assert executor.last_stats.simulations_run == 0
        expected = json.dumps(table, indent=2, sort_keys=True, default=str)
        assert served == expected + "\n"

    def test_tuple_coordinates_print_as_strings(self, tmp_path, capsys):
        """A tuple-valued coordinate (colocation's ``tenants``) is a string key."""
        store = self.fill(tmp_path, "colocation")
        status = cli.main(
            [
                "--store", str(store.root), "--scale", self.SCALE,
                "pivot", "colocation", "--index", "tenants", "--columns", "placement",
            ]
        )
        assert status == 0
        table = json.loads(capsys.readouterr().out)
        from repro.experiments.colocation import TENANTS

        assert list(table) == [str(tuple(TENANTS))]
        assert sorted(table[str(tuple(TENANTS))]) == [
            "checkerboard", "homogeneous", "split_half",
        ]

    def test_cold_store_is_exit_code_3_not_a_simulation(self, tmp_path, capsys):
        store = ResultCache(tmp_path / "empty")
        assert self.pivot(store, "fig1") == 3
        err = capsys.readouterr().err
        assert "cold store" in err
        # The hint names a fill command that exists, pointed at this store
        # and at the query's scale.
        assert (
            f"python -m repro.reporting --store {store.root} --scale 0.02 "
            "--figure fig1" in err
        )
        assert not store.root.exists()  # nothing was simulated to paper over the miss

    def test_cold_hint_without_scale_leaves_scale_to_the_environment(
        self, tmp_path, capsys
    ):
        store = ResultCache(tmp_path / "empty")
        assert self.pivot(store, "fig1", scale=None) == 3
        err = capsys.readouterr().err
        assert f"--store {store.root} --figure fig1" in err
        assert "--scale" not in err

    def test_cold_on_demand_sweep_names_run_sweep(self, tmp_path, capsys):
        store = ResultCache(tmp_path / "empty")
        assert self.pivot(store, "scale_out") == 3
        # scale_out is not a report figure, so the hint fills it via run_sweep,
        # at the query's scale.
        err = capsys.readouterr().err
        assert f"REPRO_CACHE_DIR={store.root} REPRO_EXPERIMENT_SCALE=0.02 " in err
        assert "from repro.reporting.figures import figure_spec" in err
        assert 'run_sweep(figure_spec("scale_out"))' in err

    def test_unknown_names_are_exit_code_2(self, tmp_path, capsys):
        store = ResultCache(tmp_path / "empty")
        assert cli.main(["--store", str(store.root), "--figure", "nope"]) == 2
        assert self.pivot(store, "nope") == 2
        assert "unknown sweep 'nope'" in capsys.readouterr().err

    def test_malformed_where_is_exit_code_2(self, tmp_path, capsys):
        store = self.fill(tmp_path)
        assert self.pivot(store, "fig1", "--where", "workload") == 2
        assert "--where expects name=value" in capsys.readouterr().err

    @pytest.mark.parametrize("scale", ["0", "nan", "inf"])
    def test_bad_scale_is_exit_code_2(self, tmp_path, capsys, scale):
        store = ResultCache(tmp_path / "empty")
        assert self.pivot(store, "fig1", scale=scale) == 2
        assert "finite positive" in capsys.readouterr().err

    def test_malformed_scale_variable_is_exit_code_2(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_EXPERIMENT_SCALE", "abc")
        store = ResultCache(tmp_path / "empty")
        assert self.pivot(store, "fig1", scale=None) == 2
        assert "REPRO_EXPERIMENT_SCALE must be" in capsys.readouterr().err


class TestSpecRegistry:
    def test_figure_names_and_order_are_pinned(self):
        assert figures.spec_names() == [
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
        assert figures.report_names() == [
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
        reported = set(figures.report_names())
        expected = {}
        for name in figures.spec_names():
            if name in reported:
                for sweep_point in figures.figure_spec(name, TINY_SETTINGS).expand():
                    expected.setdefault(sweep_point.content_hash(), sweep_point)
        points = figures.report_points(TINY_SETTINGS)
        assert [sp.content_hash() for sp in points] == list(expected)

    def test_store_shim_reexports_report_points(self):
        """The old import path the frozen benchmark harness uses still works."""
        from repro.store.specs import report_points

        assert report_points is figures.report_points
        assert [sp.content_hash() for sp in report_points(TINY_SETTINGS)] == [
            sp.content_hash() for sp in figures.report_points(TINY_SETTINGS)
        ]

    def test_power_reuses_fig7_sweep(self):
        power, fig7 = (
            {sp.content_hash() for sp in figures.figure_spec(n, TINY_SETTINGS).expand()}
            for n in ("power", "fig7")
        )
        assert power == fig7

    def test_report_points_deduplicates(self):
        points = figures.report_points(TINY_SETTINGS)
        hashes = [sp.content_hash() for sp in points]
        assert len(hashes) == len(set(hashes))
        assert len(hashes) > 0

    def test_unknown_spec_name_lists_options(self):
        with pytest.raises(KeyError, match="fig1"):
            figures.figure_spec("nope")
