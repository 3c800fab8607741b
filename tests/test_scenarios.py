"""Tests for the declarative scenario API (name tables, SweepSpec, ResultSet)."""

import itertools
import shutil

import pytest

from repro.config import presets
from repro.config.noc import Topology
from repro.experiments.engine import ResultCache, SweepExecutor
from repro.experiments.harness import (
    MIN_DETAILED_WARMUP_CYCLES,
    MIN_MEASURE_CYCLES,
    MIN_WARMUP_REFERENCES,
    RunSettings,
)
from repro.fabrics import FABRICS
from repro.scenarios import (
    SweepSpec,
    build_system,
    fabric_for,
    iter_results,
    point_for_coords,
    run_sweep,
    topology_names,
    workload,
    workload_names,
)
from repro.tenancy import MatrixContext, build_placement, make_arrival, make_matrix

from tests._fixtures import TINY_SETTINGS, small_workload


# --------------------------------------------------------------------- #
# Name tables
# --------------------------------------------------------------------- #
class TestRegistries:
    def test_builtin_workloads_registered(self):
        assert set(presets.WORKLOAD_NAMES) <= set(workload_names())

    def test_builtin_topologies_registered(self):
        assert set(topology_names()) >= {t.value for t in Topology}

    def test_workload_lookup_matches_presets(self):
        assert workload("Web Search") == presets.workload("Web Search")

    def test_build_system_matches_presets(self):
        built = build_system("noc_out", num_cores=16, link_width_bits=64, seed=7)
        legacy = presets.baseline_system(
            Topology.NOC_OUT, num_cores=16, link_width_bits=64, seed=7
        )
        assert built == legacy

    def test_unknown_name_raises_keyerror_listing_available(self):
        with pytest.raises(KeyError, match="unknown workload.*available"):
            workload("HPC Linpack")
        with pytest.raises(KeyError, match="unknown topology.*available"):
            fabric_for("torus")
        with pytest.raises(KeyError, match="unknown placement.*available"):
            build_placement("diagonal", 4, ["Web Search"])
        with pytest.raises(KeyError, match="unknown arrival process.*available"):
            make_arrival("sawtooth", 0.1)
        with pytest.raises(KeyError, match="unknown traffic matrix.*available"):
            make_matrix("transpose", MatrixContext(destinations=(0, 1)))

    def test_registered_workload_usable_in_spec(self, monkeypatch):
        monkeypatch.setitem(presets.WORKLOADS, "__spec_workload__", small_workload)
        spec = SweepSpec(
            axes={"workload": ("__spec_workload__",)},
            settings=TINY_SETTINGS,
            fixed={"topology": "mesh", "num_cores": 16},
        )
        (sweep_point,) = spec.expand()
        assert sweep_point.point.config.workload.name == "TestWorkload"

    def test_registered_topology_usable_in_spec(self, monkeypatch):
        def narrow_mesh(num_cores=64, link_width_bits=32, seed=42):
            # Pins 32-bit links whatever width the sweep asks for.
            return presets.mesh_system(num_cores=num_cores, link_width_bits=32, seed=seed)

        monkeypatch.setitem(
            FABRICS, "__narrow_mesh__", FABRICS["mesh"]._replace(build_system=narrow_mesh)
        )
        spec = SweepSpec(
            axes={"topology": ("__narrow_mesh__",)},
            settings=TINY_SETTINGS,
            fixed={"workload": "Web Search", "num_cores": 16},
        )
        (sweep_point,) = spec.expand()
        assert sweep_point.point.config.noc.link_width_bits == 32


# --------------------------------------------------------------------- #
# SweepSpec
# --------------------------------------------------------------------- #
def tiny_spec(**overrides) -> SweepSpec:
    kwargs = dict(
        axes={
            "workload": ("Web Search", "Data Serving"),
            "topology": ("mesh", "noc_out"),
            "num_cores": (16, 32),  # both build a NOC-Out floorplan
        },
        settings=TINY_SETTINGS,
    )
    kwargs.update(overrides)
    return SweepSpec(**kwargs)


class TestSweepSpec:
    def test_expansion_is_the_cross_product(self):
        spec = tiny_spec()
        points = spec.expand()
        assert len(points) == spec.size() == 8
        coords = [(sp.coords["workload"], sp.coords["topology"], sp.coords["num_cores"])
                  for sp in points]
        assert coords == list(
            itertools.product(
                ("Web Search", "Data Serving"), ("mesh", "noc_out"), (16, 32)
            )
        )

    def test_noc_override_coordinates(self):
        spec = SweepSpec(
            axes={"llc_banks_per_tile": (1, 4)},
            settings=TINY_SETTINGS,
            fixed={"workload": "Web Search", "topology": "noc_out", "num_cores": 16},
        )
        banks = [sp.point.config.noc.llc_banks_per_tile for sp in spec.expand()]
        assert banks == [1, 4]

    def test_zipped_axis_sets_several_coordinates(self):
        spec = SweepSpec(
            axes={
                "fabric": (
                    {"topology": "mesh", "link_width_bits": 64},
                    {"topology": "noc_out", "link_width_bits": 128},
                ),
            },
            settings=TINY_SETTINGS,
            fixed={"workload": "Web Search", "num_cores": 16},
        )
        points = spec.expand()
        assert [sp.point.config.noc.link_width_bits for sp in points] == [64, 128]
        assert [sp.coords["topology"] for sp in points] == ["mesh", "noc_out"]

    def test_unknown_coordinate_rejected(self):
        spec = SweepSpec(
            axes={"bogus_knob": (1, 2)},
            settings=TINY_SETTINGS,
            fixed={"workload": "Web Search"},
        )
        with pytest.raises(ValueError, match="bogus_knob"):
            spec.expand()

    def test_axes_fixed_overlap_rejected(self):
        spec = tiny_spec(fixed={"num_cores": 16})
        with pytest.raises(ValueError, match="more than once"):
            spec.expand()

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="no values"):
            SweepSpec(axes={"workload": ()}, settings=TINY_SETTINGS)

    def test_json_round_trip(self):
        spec = tiny_spec(
            axes={
                "workload": ("Web Search",),
                "fabric": ({"topology": "mesh", "link_width_bits": 64},),
            },
            fixed={"num_cores": 16},
        ).shard(1, 3)
        clone = SweepSpec.from_json(spec.to_json())
        assert clone == spec
        assert [sp.coords for sp in clone.expand()] == [
            sp.coords for sp in spec.expand()
        ]

    def test_spec_is_hashable_even_with_zipped_axes(self):
        plain = tiny_spec()
        zipped = SweepSpec(
            axes={
                "fabric": (
                    {"topology": "mesh", "link_width_bits": 64},
                    {"link_width_bits": 128, "topology": "noc_out"},
                ),
            },
            settings=TINY_SETTINGS,
            fixed={"workload": "Web Search", "num_cores": 16},
        )
        # Frozen dataclass => usable as dict key / set member.
        assert len({plain, zipped, tiny_spec()}) == 2
        # Equal mappings hash equally regardless of key order.
        reordered = SweepSpec.from_json(zipped.to_json())
        assert hash(reordered) == hash(zipped) and reordered == zipped

    @pytest.mark.parametrize("count", [2, 3, 5])
    def test_shards_partition_points_disjointly_and_exhaustively(self, count):
        spec = tiny_spec()
        full = {sp.content_hash() for sp in spec.expand()}
        shards = [
            {sp.content_hash() for sp in spec.shard(index, count).expand()}
            for index in range(count)
        ]
        assert set().union(*shards) == full
        assert sum(len(shard) for shard in shards) == len(full)

    def test_shard_validation(self):
        spec = tiny_spec()
        with pytest.raises(ValueError):
            spec.shard(2, 2)
        with pytest.raises(ValueError):
            spec.shard(0, 0)
        with pytest.raises(ValueError, match="already sharded"):
            spec.shard(0, 2).shard(0, 2)

    def test_point_for_coords_requires_workload(self):
        with pytest.raises(ValueError, match="workload"):
            point_for_coords({"topology": "mesh"}, TINY_SETTINGS)


# --------------------------------------------------------------------- #
# run_sweep / iter_results / ResultSet
# --------------------------------------------------------------------- #
ONE_WORKLOAD_SPEC = SweepSpec(
    axes={"topology": ("mesh", "noc_out"), "num_cores": (16, 32)},
    settings=TINY_SETTINGS,
    fixed={"workload": "Web Search"},
)


class TestRunSweep:
    def test_records_follow_spec_order_and_carry_metrics(self):
        results = run_sweep(ONE_WORKLOAD_SPEC)
        assert len(results) == 4
        assert [r.coords["topology"] for r in results] == ["mesh", "mesh", "noc_out", "noc_out"]
        for record in results:
            assert record.metric("throughput_ipc") == record.result.throughput_ipc > 0
            assert record.metric("cycles") == record.result.cycles
        with pytest.raises(KeyError, match="unknown metric"):
            results[0].metric("no_such_metric")
        with pytest.raises(KeyError, match="unknown metric"):
            results[0].metric("workload")  # an attribute, but not a number

    def test_values_match_legacy_engine_run(self):
        results = run_sweep(ONE_WORKLOAD_SPEC)
        legacy = SweepExecutor().run([sp.point for sp in ONE_WORKLOAD_SPEC.expand()])
        for record, result in zip(results, legacy):
            assert record.metric("throughput_ipc") == result.throughput_ipc
            assert record.result == result

    def test_iter_results_yields_every_record_of_blocking_call(self):
        blocking = run_sweep(ONE_WORKLOAD_SPEC)
        streamed = list(iter_results(ONE_WORKLOAD_SPEC))
        assert {r.point_hash for r in streamed} == {r.point_hash for r in blocking}
        by_hash = {r.point_hash: r for r in streamed}
        for record in blocking:
            assert by_hash[record.point_hash].result == record.result
            assert by_hash[record.point_hash].coords == record.coords

    def test_iter_results_streams_cache_hits_first(self, tmp_path):
        cache = ResultCache(tmp_path)
        shard = ONE_WORKLOAD_SPEC.shard(0, 2)
        run_sweep(shard, executor=SweepExecutor(cache=cache))
        cached_hashes = {sp.content_hash() for sp in shard.expand()}

        executor = SweepExecutor(jobs=1, cache=cache)
        stream = iter_results(ONE_WORKLOAD_SPEC, executor=executor)
        first = next(stream)
        assert first.point_hash in cached_hashes  # a hit, before any simulation
        list(stream)

    def test_sharded_union_equals_full_sweep(self, tmp_path):
        full = run_sweep(ONE_WORKLOAD_SPEC)
        union = {}
        for index in range(2):
            for record in run_sweep(ONE_WORKLOAD_SPEC.shard(index, 2)):
                union[record.point_hash] = record
        assert {r.point_hash for r in full} == set(union)
        for record in full:
            assert union[record.point_hash].result == record.result


class TestResultSet:
    def test_filter_and_value(self):
        results = run_sweep(ONE_WORKLOAD_SPEC)
        mesh = results.filter(topology="mesh")
        assert len(mesh) == 2
        value = results.value("throughput_ipc", topology="mesh", num_cores=32)
        assert value == mesh.filter(num_cores=32)[0].metric("throughput_ipc")
        with pytest.raises(LookupError):
            results.value("throughput_ipc", topology="mesh")  # ambiguous

    def test_pivot_matches_legacy_fig1_nested_dict(self):
        """The ResultSet pivot reproduces the pre-redesign fig1 shape exactly."""
        from repro.experiments.fig1_scaling import figure1_spec, normalise_figure1

        names = ["Web Search"]
        core_counts = (1, 4)
        results = run_sweep(figure1_spec(names, core_counts, TINY_SETTINGS))
        curves = normalise_figure1(results)

        # Legacy computation from the pre-redesign fig1_scaling: one point
        # per (workload, series, core count), run as a flat engine batch.
        series = ("ideal", "mesh")
        keys, points = [], []
        for name in names:
            for label in series:
                for count in core_counts:
                    keys.append((name, label, count))
                    points.append(
                        point_for_coords(
                            {"topology": label, "workload": name, "num_cores": count},
                            TINY_SETTINGS,
                        )
                    )
        per_core = dict(
            zip(keys, (r.per_core_ipc for r in SweepExecutor().run(points)))
        )
        expected = {}
        for name in names:
            expected[name] = {}
            for label in series:
                baseline = per_core[(name, label, core_counts[0])]
                expected[name][label] = {
                    count: (per_core[(name, label, count)] / baseline if baseline else 0.0)
                    for count in core_counts
                }
        assert curves == expected

        # And the generic pivot helper returns the same raw table.
        raw = results.pivot("topology", "num_cores", "per_core_ipc")
        assert raw["ideal"][4] == per_core[("Web Search", "ideal", 4)]

    def test_axis_values_preserve_order(self):
        results = run_sweep(ONE_WORKLOAD_SPEC)
        assert results.axis_values("topology") == ["mesh", "noc_out"]
        assert results.axis_values("num_cores") == [16, 32]

    def test_pivot_rejects_points_sharing_a_cell(self):
        """Two records in one cell raise instead of the last one winning."""
        results = run_sweep(ONE_WORKLOAD_SPEC)
        with pytest.raises(ValueError) as excinfo:
            results.pivot("workload", "topology")
        message = str(excinfo.value)
        assert "2 points share the cell workload='Web Search', topology='mesh'" in message
        assert "they differ in num_cores" in message
        assert "filter(" in message and "--where" in message
        assert results.filter(num_cores=16).pivot("workload", "topology") == {
            "Web Search": {
                topology: results.value("throughput_ipc", topology=topology, num_cores=16)
                for topology in ("mesh", "noc_out")
            }
        }


# --------------------------------------------------------------------- #
# RunSettings scaling fix
# --------------------------------------------------------------------- #
class TestRunSettingsScaling:
    def test_scaled_scales_all_three_windows(self):
        settings = RunSettings(
            warmup_references=2500, detailed_warmup_cycles=1500, measure_cycles=6000
        )
        scaled = settings.scaled(0.5)
        assert scaled.warmup_references == 1250
        assert scaled.detailed_warmup_cycles == 750
        assert scaled.measure_cycles == 3000

    def test_scaled_floor_clamps_each_window(self):
        settings = RunSettings(
            warmup_references=2500, detailed_warmup_cycles=1500, measure_cycles=6000
        )
        scaled = settings.scaled(0.01)
        assert scaled.warmup_references == MIN_WARMUP_REFERENCES
        assert scaled.detailed_warmup_cycles == MIN_DETAILED_WARMUP_CYCLES
        assert scaled.measure_cycles == MIN_MEASURE_CYCLES

    def test_from_env_scales_warmup_references(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXPERIMENT_SCALE", "0.5")
        settings = RunSettings.from_env(
            RunSettings(warmup_references=2000, measure_cycles=6000)
        )
        assert settings.warmup_references == 1000
        assert settings.measure_cycles == 3000

    def test_identity_scale_changes_nothing(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXPERIMENT_SCALE", raising=False)
        assert RunSettings.from_env() == RunSettings()
        assert TINY_SETTINGS.scaled(1.0) == TINY_SETTINGS

    @pytest.mark.parametrize("factor", [0.0, -0.5, float("nan"), float("inf")])
    def test_scaled_rejects_non_finite_or_non_positive_factor(self, factor):
        with pytest.raises(ValueError, match="finite positive"):
            RunSettings().scaled(factor)

    @pytest.mark.parametrize("raw", ["abc", "0", "nan", "inf"])
    def test_from_env_names_the_variable(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_EXPERIMENT_SCALE", raw)
        with pytest.raises(
            ValueError, match="REPRO_EXPERIMENT_SCALE must be a finite positive"
        ):
            RunSettings.from_env()


# --------------------------------------------------------------------- #
# Store merging
# --------------------------------------------------------------------- #
def stored_hashes(root) -> set:
    """Content hashes of the results stored under ``root``."""
    return {path.stem for path in (root / "results").glob("*.json")}


def store_bytes(root) -> dict:
    """Every file of the store at ``root``, by path relative to it."""
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


class TestCacheMerge:
    def test_merge_combines_shard_caches(self, tmp_path):
        """Shards on two stores: copy result files across, serve the spec."""
        spec = ONE_WORKLOAD_SPEC
        caches = [ResultCache(tmp_path / f"s{index}") for index in range(2)]
        for index, cache in enumerate(caches):
            run_sweep(spec.shard(index, 2), executor=SweepExecutor(jobs=1, cache=cache))

        merged, other = caches
        for path in other.results_dir.glob("*.json"):
            shutil.copy2(path, merged.results_dir / path.name)
        assert stored_hashes(merged.root) == {sp.content_hash() for sp in spec.expand()}

        executor = SweepExecutor(jobs=1, cache=ResultCache(merged.root))
        run_sweep(spec, executor=executor)
        assert executor.last_stats.simulations_run == 0

    def test_shards_sharing_one_store_match_serial_bytes(self, tmp_path):
        """Shards on one shared root, as two machines sharing a directory."""
        spec = ONE_WORKLOAD_SPEC
        shared = tmp_path / "shared"
        caches = [ResultCache(shared), ResultCache(shared)]  # one per machine
        simulated = []
        for index, cache in enumerate(caches):
            before = stored_hashes(shared)
            executor = SweepExecutor(jobs=1, cache=cache)
            run_sweep(spec.shard(index, 2), executor=executor)
            added = stored_hashes(shared) - before
            # No shard finds its points already simulated by the other.
            assert executor.last_stats.cache_hits == 0
            assert executor.last_stats.simulations_run == len(added)
            simulated.append(added)
        assert simulated[0].isdisjoint(simulated[1])
        assert simulated[0] | simulated[1] == {
            sp.content_hash() for sp in spec.expand()
        }

        rerun = SweepExecutor(jobs=1, cache=ResultCache(shared))
        run_sweep(spec, executor=rerun)
        assert rerun.last_stats.simulations_run == 0

        serial = tmp_path / "serial"
        run_sweep(spec, executor=SweepExecutor(jobs=1, cache=ResultCache(serial)))
        assert store_bytes(shared) == store_bytes(serial)
