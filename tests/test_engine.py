"""Tests for the parallel, cache-aware experiment engine."""

import json
import os
import pickle
import subprocess
import warnings
import sys
from pathlib import Path

import pytest

from repro.chip.chip import SimulationResults
from repro.config import presets
from repro.config.noc import Topology
from repro.experiments import engine
from repro.experiments.engine import (
    CACHE_SCHEMA_VERSION,
    MODEL_VERSION,
    ExperimentPoint,
    ResultCache,
    SweepExecutor,
    resolve_jobs,
)
from repro.config.noc import topology_key
from repro.experiments.harness import RunSettings
from repro.scenarios import SweepSpec, point_for_coords, run_sweep

from repro.store import columnar

from tests._fixtures import TINY_SETTINGS

REPO_ROOT = Path(__file__).resolve().parents[1]


def segments(root: Path):
    """The segment files of the result store at ``root``."""
    return columnar.ColumnarStore(root).segment_paths()


def tiny_point(
    topology=Topology.MESH,
    workload_name="Web Search",
    num_cores=16,
    settings=TINY_SETTINGS,
    **coords,
) -> ExperimentPoint:
    return point_for_coords(
        {
            "topology": topology_key(topology),
            "workload": workload_name,
            "num_cores": num_cores,
            **coords,
        },
        settings,
    )


class TestExperimentPoint:
    def test_requires_workload(self):
        config = presets.baseline_system(Topology.MESH, num_cores=16)
        with pytest.raises(ValueError):
            ExperimentPoint(config=config, settings=TINY_SETTINGS)

    def test_hash_is_stable_for_equal_points(self):
        assert tiny_point().content_hash() == tiny_point().content_hash()

    def test_hash_payload_covers_model_version(self):
        """Simulator behaviour changes must invalidate cached results.

        The config/settings hash cannot see simulator source edits, so the
        canonical payload carries ``MODEL_VERSION``; bumping it (the policy
        is: in the same commit as any output-changing model edit) turns
        every stale cache entry into a miss.
        """
        payload = tiny_point().canonical_dict()
        assert payload["model"] == MODEL_VERSION
        assert payload["schema"] == CACHE_SCHEMA_VERSION

    def test_hash_changes_with_model_version(self, monkeypatch):
        before = tiny_point().content_hash()
        monkeypatch.setattr("repro.experiments.engine.MODEL_VERSION", MODEL_VERSION + 1)
        assert tiny_point().content_hash() != before

    def test_hash_changes_with_settings(self):
        longer = RunSettings(
            warmup_references=300, detailed_warmup_cycles=200, measure_cycles=700
        )
        assert tiny_point().content_hash() != tiny_point(settings=longer).content_hash()

    def test_hash_changes_with_config(self):
        assert (
            tiny_point().content_hash()
            != tiny_point(topology=Topology.NOC_OUT).content_hash()
        )
        assert (
            tiny_point().content_hash()
            != tiny_point(mesh_link_latency=2).content_hash()
        )

    def test_hash_is_stable_across_processes(self):
        """SHA-256 over canonical JSON must not depend on the interpreter run."""
        code = (
            "from repro.experiments.harness import RunSettings\n"
            "from repro.scenarios import point_for_coords\n"
            "settings = RunSettings(warmup_references=300, "
            "detailed_warmup_cycles=200, measure_cycles=600)\n"
            "point = point_for_coords({'topology': 'mesh', "
            "'workload': 'Web Search', 'num_cores': 16}, settings)\n"
            "print(point.content_hash())\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
        output = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env=env,
        ).stdout.strip()
        assert output == tiny_point().content_hash()

    def test_point_is_picklable(self):
        point = tiny_point()
        clone = pickle.loads(pickle.dumps(point))
        assert clone == point
        assert clone.content_hash() == point.content_hash()

    def test_describe_mentions_workload_and_topology(self):
        assert "Web Search" in tiny_point().describe()
        assert "mesh" in tiny_point().describe()


class TestSimulationResultsSerialization:
    def test_json_round_trip(self):
        result = SweepExecutor().run([tiny_point()])[0]
        restored = SimulationResults.from_dict(json.loads(json.dumps(result.to_dict())))
        assert restored == result
        # JSON stringifies the int keys; from_dict must restore them.
        assert all(isinstance(core, int) for core in restored.per_core_instructions)

    def test_from_dict_ignores_unknown_keys(self):
        result = SweepExecutor().run([tiny_point()])[0]
        data = result.to_dict()
        data["some_future_field"] = 123
        assert SimulationResults.from_dict(data) == result


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        point = tiny_point()
        assert cache.load(point) is None

        executor = SweepExecutor(jobs=1, cache=cache)
        (result,) = executor.run([point])
        assert executor.last_stats.cache_misses == 1
        assert executor.last_stats.simulations_run == 1

        (again,) = executor.run([point])
        assert again == result
        assert executor.last_stats.cache_hits == 1
        assert executor.last_stats.simulations_run == 0

    def test_cache_invalidated_by_settings_change(self, tmp_path):
        cache = ResultCache(tmp_path)
        executor = SweepExecutor(jobs=1, cache=cache)
        executor.run([tiny_point()])
        longer = RunSettings(
            warmup_references=300, detailed_warmup_cycles=200, measure_cycles=700
        )
        executor.run([tiny_point(settings=longer)])
        assert executor.last_stats.cache_hits == 0
        assert executor.last_stats.simulations_run == 1

    def test_cache_invalidated_by_config_change(self, tmp_path):
        cache = ResultCache(tmp_path)
        executor = SweepExecutor(jobs=1, cache=cache)
        executor.run([tiny_point()])
        executor.run([tiny_point(link_width_bits=64)])
        assert executor.last_stats.cache_hits == 0
        assert executor.last_stats.simulations_run == 1

    def test_corrupted_entry_is_discarded_and_recovered(self, tmp_path):
        point = tiny_point()
        (result,) = SweepExecutor(jobs=1, cache=ResultCache(tmp_path)).run([point])

        (path,) = segments(tmp_path)
        path.write_text("{ this is not json")
        assert ResultCache(tmp_path).load(point) is None
        assert not path.exists()  # corrupt segment moved aside, not left to re-fail

        executor = SweepExecutor(jobs=1, cache=ResultCache(tmp_path))
        (recovered,) = executor.run([point])
        assert recovered == result
        assert executor.last_stats.simulations_run == 1

    @pytest.mark.parametrize(
        "payload",
        ["null", "[1, 2, 3]", '{"schema": 1, "result": [1, 2]}', '{"schema": 1}'],
    )
    def test_wrong_shaped_json_is_a_miss(self, tmp_path, payload):
        """A segment of valid JSON but the wrong shape reads as a miss."""
        cache = ResultCache(tmp_path)
        path = cache.columnar.segment_dir / "seg-0-0-1.json"
        path.parent.mkdir(parents=True)
        path.write_text(payload)
        assert cache.load(tiny_point()) is None
        assert not path.exists()

    def test_schema_mismatch_is_a_miss(self, tmp_path, monkeypatch):
        """The cache schema is hashed into every key: a bump turns rows into misses."""
        cache = ResultCache(tmp_path)
        point = tiny_point()
        SweepExecutor(jobs=1, cache=cache).run([point])
        assert cache.load(point) is not None
        monkeypatch.setattr(engine, "CACHE_SCHEMA_VERSION", CACHE_SCHEMA_VERSION + 1)
        assert cache.load(point) is None

    def test_cache_dir_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "custom"))
        assert ResultCache().root == tmp_path / "custom"

    def test_cache_disabled_by_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")
        assert SweepExecutor(jobs=1).cache is None

    def test_truncated_entry_is_quarantined_with_one_warning(
        self, tmp_path, monkeypatch
    ):
        """A torn segment reads as a miss, is kept as *.corrupt, warns once."""
        monkeypatch.setattr(columnar, "_corruption_warned", False)
        point = tiny_point()
        (result,) = SweepExecutor(jobs=1, cache=ResultCache(tmp_path)).run([point])

        (path,) = segments(tmp_path)
        intact = path.read_text()
        path.write_text(intact[: len(intact) // 2])  # disk trouble mid-file
        cache = ResultCache(tmp_path)
        with pytest.warns(columnar.CacheCorruptionWarning):
            assert cache.load(point) is None
        assert not path.exists()
        quarantined = path.with_name(path.name + ".corrupt")
        assert quarantined.exists()  # damaged bytes survive for diagnosis

        executor = SweepExecutor(jobs=1, cache=cache)
        (recovered,) = executor.run([point])
        assert recovered == result
        assert executor.last_stats.simulations_run == 1

        # Further corruption is quarantined silently: one warning per process.
        (path,) = segments(tmp_path)
        path.write_text("{ torn again")
        with warnings.catch_warnings():
            warnings.simplefilter("error", columnar.CacheCorruptionWarning)
            assert ResultCache(tmp_path).load(point) is None
        assert not path.exists()

    def test_quarantined_entries_never_answer_lookups_again(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(columnar, "_corruption_warned", True)
        point = tiny_point()
        SweepExecutor(jobs=1, cache=ResultCache(tmp_path)).run([point])
        (path,) = segments(tmp_path)
        path.write_text("not json at all")
        cache = ResultCache(tmp_path)
        assert cache.load(point) is None
        assert cache.load(point) is None  # the .corrupt file is not re-read
        assert ResultCache(tmp_path).load(point) is None
        assert segments(tmp_path) == []

    def test_old_json_layout_is_ignored_and_resimulated(self, tmp_path):
        """A pre-columnar ``<hash>.json`` entry is not read and not warned
        about: its point misses, re-simulates into ``segments/``, and the
        stray file is left as it was."""
        point = tiny_point()
        stray = tmp_path / f"{point.content_hash()}.json"
        stray.write_text(
            json.dumps(
                {
                    "schema": CACHE_SCHEMA_VERSION,
                    "point": point.canonical_dict(),
                    "result": engine.execute_point(point).to_dict(),
                },
                sort_keys=True,
            )
        )
        before = stray.read_bytes()

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cache = ResultCache(tmp_path)
            assert cache.load(point) is None
            executor = SweepExecutor(jobs=1, cache=cache)
            (result,) = executor.run([point])

        assert executor.last_stats.simulations_run == 1
        assert len(segments(tmp_path)) == 1
        assert ResultCache(tmp_path).load(point) == result
        assert stray.read_bytes() == before


class TestSweepExecutor:
    def test_jobs_resolution(self, monkeypatch):
        assert resolve_jobs(3) == 3
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs() == 5
        monkeypatch.setenv("REPRO_JOBS", "zero")
        with pytest.raises(ValueError):
            resolve_jobs()
        with pytest.raises(ValueError):
            resolve_jobs(0)

    def test_duplicate_points_simulated_once(self, tmp_path):
        executor = SweepExecutor(jobs=1, cache=ResultCache(tmp_path))
        first, second = executor.run([tiny_point(), tiny_point()])
        assert first == second
        assert executor.last_stats.simulations_run == 1

    def test_results_keep_point_order(self, tmp_path):
        points = [
            tiny_point(topology=Topology.MESH),
            tiny_point(topology=Topology.NOC_OUT),
            tiny_point(topology=Topology.IDEAL),
        ]
        results = SweepExecutor(jobs=1, cache=ResultCache(tmp_path)).run(points)
        assert [r.topology for r in results] == ["mesh", "noc_out", "ideal"]

    def test_parallel_matches_serial(self, monkeypatch):
        """Same seed, REPRO_JOBS=1 vs 4 workers: bit-identical results."""
        monkeypatch.setenv("REPRO_CACHE", "0")
        points = [
            tiny_point(topology=topology, workload_name=name)
            for name in ("Web Search", "Data Serving")
            for topology in (Topology.MESH, Topology.NOC_OUT)
        ]
        serial = SweepExecutor(jobs=1).run(points)
        parallel = SweepExecutor(jobs=4).run(points)
        assert serial == parallel

    def test_second_sweep_served_entirely_from_cache(self, tmp_path):
        """2 workloads x 3 topologies, rerun must run zero new simulations."""
        cache = ResultCache(tmp_path)
        spec = SweepSpec(
            axes={
                "workload": ("Web Search", "Data Serving"),
                "topology": ("mesh", "flattened_butterfly", "noc_out"),
            },
            settings=TINY_SETTINGS,
            fixed={"num_cores": 16},
        )
        points = spec.size()

        executor = SweepExecutor(jobs=4, cache=cache)
        first = run_sweep(spec, executor=executor)
        assert executor.last_stats.simulations_run == points

        executor = SweepExecutor(jobs=4, cache=cache)
        second = run_sweep(spec, executor=executor)
        assert executor.last_stats.simulations_run == 0
        assert executor.last_stats.cache_hits == points
        assert [r.result for r in second] == [r.result for r in first]


class TestPointProfiling:
    """REPRO_PROFILE=1: per-point cProfile output next to the cache entry."""

    def test_profile_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        assert not engine.profiling_enabled()
        for off in ("0", "off", "false", "no", ""):
            monkeypatch.setenv("REPRO_PROFILE", off)
            assert not engine.profiling_enabled()

    def test_profiled_point_writes_pstats_and_table(self, tmp_path, monkeypatch):
        import pstats

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_PROFILE", "1")
        point = tiny_point()
        result = engine.execute_point(point)
        assert result.total_instructions > 0

        stem = point.content_hash()
        raw = tmp_path / f"{stem}.pstats"
        table = tmp_path / f"{stem}.profile.txt"
        assert raw.exists() and table.exists()
        # The raw dump must load back as a pstats database with real samples.
        stats = pstats.Stats(str(raw))
        assert stats.total_calls > 0
        # The rendered table names the point and shows the top functions by
        # cumulative time (the chip run itself must be among them).
        text = table.read_text()
        assert stem in text
        assert "cumulative" in text
        assert "run_experiment" in text
        # Profiling observes the run; it does not change it.
        monkeypatch.delenv("REPRO_PROFILE")
        assert engine.execute_point(point) == result

    def test_profiles_do_not_confuse_the_cache(self, tmp_path, monkeypatch):
        """Profile droppings next to entries must not count as entries."""
        monkeypatch.setenv("REPRO_PROFILE", "1")
        cache = ResultCache(tmp_path)
        point = tiny_point()
        result = engine.execute_point(point)
        assert cache.load(point) is None  # profiling never populates the cache
        cache.store(point, result)
        loaded = cache.load(point)
        assert loaded is not None
        assert loaded.to_dict() == result.to_dict()
