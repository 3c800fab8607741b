"""Tests for the parallel, cache-aware experiment engine."""

import dataclasses
import json
import os
import pickle
import subprocess
import warnings
import sys
from enum import Enum, IntEnum
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
from repro.scenarios import (
    SweepPoint,
    SweepSpec,
    point_for_coords,
    record_for,
    run_sweep,
)

from tests._fixtures import TINY_SETTINGS

REPO_ROOT = Path(__file__).resolve().parents[1]


def result_files(root: Path):
    """The result files of the store at ``root``."""
    return sorted((root / "results").glob("*.json"))


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

    def test_a_served_point_is_canonicalised_once(self, tmp_path, monkeypatch):
        """Grouping, the store's file name and the record share one hash."""
        calls = []
        canonical_dict = ExperimentPoint.canonical_dict

        def counting(point):
            calls.append(point)
            return canonical_dict(point)

        monkeypatch.setattr(ExperimentPoint, "canonical_dict", counting)
        sweep_point = SweepPoint(coords={"num_cores": 16}, point=tiny_point())
        executor = SweepExecutor(jobs=1, cache=ResultCache(tmp_path))
        [result] = executor.run([sweep_point.point])
        record = record_for(sweep_point, result)
        assert executor.last_stats.simulations_run == 1
        assert record.point_hash == result_files(tmp_path)[0].stem
        assert len(calls) == 1

    def test_replaced_point_hashes_afresh(self):
        point = tiny_point()
        before = point.content_hash()
        longer = RunSettings(
            warmup_references=300, detailed_warmup_cycles=200, measure_cycles=700
        )
        replaced = dataclasses.replace(point, settings=longer)
        assert replaced.content_hash() != before
        assert replaced.content_hash() == tiny_point(settings=longer).content_hash()

    def test_one_instance_rehashes_after_a_model_bump(self, monkeypatch):
        point = tiny_point()
        before = point.content_hash()
        monkeypatch.setattr(engine, "MODEL_VERSION", MODEL_VERSION + 1)
        bumped = point.content_hash()
        assert bumped != before
        assert bumped == tiny_point().content_hash()
        monkeypatch.setattr(engine, "MODEL_VERSION", MODEL_VERSION)
        assert point.content_hash() == before

    def test_equal_int_and_float_configs_hash_apart(self):
        """``12 == 12.0``, but the canonical JSON reads ``12`` against ``12.0``.

        Equal points must not share a memoised hash, in either hashing
        order, or a key would depend on which was hashed first.
        """

        def point_with(blocks):
            point = tiny_point()
            workload = dataclasses.replace(
                point.config.workload, mean_block_instructions=blocks
            )
            return dataclasses.replace(point, config=point.config.with_workload(workload))

        as_int, as_float = point_with(12), point_with(12.0)
        assert as_int == as_float and hash(as_int) == hash(as_float)
        int_hash = as_int.content_hash()  # the int point hashed first
        float_hash = as_float.content_hash()
        assert int_hash != float_hash
        as_int, as_float = point_with(12), point_with(12.0)
        assert as_float.content_hash() == float_hash  # the float point first
        assert as_int.content_hash() == int_hash

    def test_describe_mentions_workload_and_topology(self):
        assert "Web Search" in tiny_point().describe()
        assert "mesh" in tiny_point().describe()


#: ``_canonical`` as it stood before exact leaf types returned at once: an
#: oracle that every cache key must keep matching byte for byte.
_ORACLE_PLANS = {}


def oracle_canonical(value):
    cls = type(value)
    try:
        plan = _ORACLE_PLANS[cls]
    except KeyError:
        plan = _ORACLE_PLANS[cls] = None
        if dataclasses.is_dataclass(cls):
            plan = _ORACLE_PLANS[cls] = tuple(
                (field.name, bool(field.metadata.get("canonical_omit_none")))
                for field in dataclasses.fields(cls)
            )
    if plan is not None:
        return {
            name: oracle_canonical(item)
            for name, omit_none in plan
            if (item := getattr(value, name)) is not None or not omit_none
        }
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, dict):
        return {str(key): oracle_canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [oracle_canonical(item) for item in value]
    return value


def canonical_json(value, canonical=engine._canonical) -> str:
    return json.dumps(canonical(value), sort_keys=True, separators=(",", ":"))


@dataclasses.dataclass(frozen=True)
class Holder:
    """One field, so a value goes through the dataclass comprehension."""

    value: object


class Level(IntEnum):
    LOW = 1


class TestCanonicalLeaves:
    """Exact leaf types return at once; every canonical form stays as it was."""

    @pytest.mark.parametrize("name", ["report", "scale_out", "colocation"])
    def test_every_sweep_point_matches_the_oracle(self, name):
        from repro.reporting.figures import figure_spec, report_points

        settings = RunSettings()
        points = (
            report_points(settings)
            if name == "report"
            else figure_spec(name, settings).expand()
        )
        assert points
        for sweep_point in points:
            point = sweep_point.point
            expected = json.dumps(
                {
                    "schema": CACHE_SCHEMA_VERSION,
                    "model": MODEL_VERSION,
                    "config": oracle_canonical(point.config),
                    "settings": oracle_canonical(point.settings),
                },
                sort_keys=True,
                separators=(",", ":"),
            )
            actual = json.dumps(point.canonical_dict(), sort_keys=True, separators=(",", ":"))
            assert actual == expected, point.describe()

    @pytest.mark.parametrize("wrap", [lambda v: v, Holder], ids=["top", "field"])
    def test_bool_and_int_and_float_stay_apart(self, wrap):
        assert canonical_json(wrap(True)) != canonical_json(wrap(1))
        assert canonical_json(wrap(12)) != canonical_json(wrap(12.0))
        for value in (True, 1, 12, 12.0, "mesh", None):
            assert canonical_json(wrap(value)) == canonical_json(wrap(value), oracle_canonical)

    def test_enum_members_reduce_to_their_values(self):
        for member, plain in ((Level.LOW, 1), (Topology.MESH, "mesh")):
            top = engine._canonical(member)
            field = engine._canonical(Holder(member))["value"]
            for reduced in (top, field):
                assert reduced == plain and type(reduced) is type(plain)


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

    def test_stored_file_is_compact_sorted_json_of_the_result(self, tmp_path):
        cache = ResultCache(tmp_path)
        point = tiny_point()
        (result,) = SweepExecutor(jobs=1, cache=cache).run([point])
        expected = json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":"))
        assert cache.path(point).read_bytes() == expected.encode("ascii")
        assert cache.store(point, result).read_bytes() == expected.encode("ascii")

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

        (path,) = result_files(tmp_path)
        path.write_text("{ this is not json")
        assert ResultCache(tmp_path).load(point) is None
        assert not path.exists()  # corrupt file moved aside, not left to re-fail

        executor = SweepExecutor(jobs=1, cache=ResultCache(tmp_path))
        (recovered,) = executor.run([point])
        assert recovered == result
        assert executor.last_stats.simulations_run == 1

    @pytest.mark.parametrize(
        "payload",
        ["null", "[1, 2, 3]", '{"schema": 1, "result": [1, 2]}', '{"schema": 1}'],
    )
    def test_wrong_shaped_json_is_a_miss(self, tmp_path, monkeypatch, payload):
        """A file of valid JSON but the wrong shape is quarantined as a miss."""
        monkeypatch.setattr(engine, "_corruption_warned", True)
        cache = ResultCache(tmp_path)
        point = tiny_point()
        path = cache.path(point)
        path.parent.mkdir(parents=True)
        path.write_text(payload)
        assert cache.load(point) is None
        assert not path.exists()
        assert path.with_name(path.name + ".corrupt").read_text() == payload

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
        """A torn file reads as a miss, is kept as *.corrupt, warns once."""
        monkeypatch.setattr(engine, "_corruption_warned", False)
        point = tiny_point()
        (result,) = SweepExecutor(jobs=1, cache=ResultCache(tmp_path)).run([point])

        (path,) = result_files(tmp_path)
        intact = path.read_text()
        path.write_text(intact[: len(intact) // 2])  # disk trouble mid-file
        cache = ResultCache(tmp_path)
        with pytest.warns(engine.CacheCorruptionWarning):
            assert cache.load(point) is None
        assert not path.exists()
        quarantined = path.with_name(path.name + ".corrupt")
        assert quarantined.exists()  # damaged bytes survive for diagnosis

        executor = SweepExecutor(jobs=1, cache=cache)
        (recovered,) = executor.run([point])
        assert recovered == result
        assert executor.last_stats.simulations_run == 1

        # Further corruption is quarantined silently: one warning per process.
        (path,) = result_files(tmp_path)
        path.write_text("{ torn again")
        with warnings.catch_warnings():
            warnings.simplefilter("error", engine.CacheCorruptionWarning)
            assert ResultCache(tmp_path).load(point) is None
        assert not path.exists()

    def test_quarantined_entries_never_answer_lookups_again(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(engine, "_corruption_warned", True)
        point = tiny_point()
        SweepExecutor(jobs=1, cache=ResultCache(tmp_path)).run([point])
        (path,) = result_files(tmp_path)
        path.write_text("not json at all")
        cache = ResultCache(tmp_path)
        assert cache.load(point) is None
        assert cache.load(point) is None  # the .corrupt file is not re-read
        assert ResultCache(tmp_path).load(point) is None
        assert result_files(tmp_path) == []

    def test_old_json_layout_is_ignored_and_resimulated(self, tmp_path):
        """A root-level ``<hash>.json`` entry is never read and not warned
        about: its point misses, re-simulates into ``results/``, and the
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
        # The same name one level down is where a result is read from.
        assert ResultCache(tmp_path).path(point) == tmp_path / "results" / stray.name
        before = stray.read_bytes()

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cache = ResultCache(tmp_path)
            assert cache.load(point) is None
            executor = SweepExecutor(jobs=1, cache=cache)
            (result,) = executor.run([point])

        assert executor.last_stats.simulations_run == 1
        assert len(result_files(tmp_path)) == 1
        assert ResultCache(tmp_path).load(point) == result
        assert stray.read_bytes() == before

    def test_columnar_segment_layout_is_ignored_and_resimulated(self, tmp_path):
        """A store in the earlier columnar layout (``manifest.json`` plus
        ``segments/seg-*.json`` tables) opens empty: its points re-simulate
        into ``results/`` and its files stay byte-for-byte as they were."""
        point = tiny_point()
        row = engine.execute_point(point).to_dict()
        (tmp_path / "segments").mkdir()
        old_files = {
            tmp_path / "manifest.json": {"cache_schema": 2, "schema": 1},
            tmp_path / "segments" / "seg-0000000000000001-1-1.json": {
                "schema": 1,
                "count": 1,
                "hashes": [point.content_hash()],
                "columns": {name: [value] for name, value in row.items()},
            },
        }
        for path, payload in old_files.items():
            path.write_text(json.dumps(payload, sort_keys=True))
        before = {path: path.read_bytes() for path in old_files}

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cache = ResultCache(tmp_path)
            assert cache.load(point) is None
            executor = SweepExecutor(jobs=1, cache=cache)
            (result,) = executor.run([point])

        assert executor.last_stats.simulations_run == 1
        assert result_files(tmp_path) == [cache.path(point)]
        assert ResultCache(tmp_path).load(point) == result
        assert {path: path.read_bytes() for path in old_files} == before
        assert sorted((tmp_path / "segments").iterdir()) == [
            tmp_path / "segments" / "seg-0000000000000001-1-1.json"
        ]


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
