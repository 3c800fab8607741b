"""Tenancy layer: WorkloadMap placements, arrivals, matrices, per-tenant tails.

Also carries the cache-key compatibility gate for this subsystem: every
pre-tenancy sweep spec must keep byte-identical content hashes (golden
file in ``tests/data/spec_hashes_v2.json``), because the ``workload_map``
config field defaults to ``None`` and is canonically *omitted* then.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.chip.chip import Chip
from repro.config.noc import Topology
from repro.experiments.engine import ExperimentPoint, ResultCache, SweepExecutor
from repro.noc.mesh import MeshNetwork
from repro.scenarios import SweepSpec, run_sweep
from repro.sim.kernel import Simulator
from repro.sim.stats import DEFAULT_RESERVOIR, Histogram, StatError, StatGroup
from repro.tenancy import (
    MatrixContext,
    TenantSpec,
    WorkloadMap,
    arrival_names,
    build_placement,
    is_workload_map_dict,
    make_arrival,
    make_matrix,
    matrix_names,
    placement_names,
)
from repro.workloads.traffic import OpenLoopTrafficGenerator, UniformRandomTrafficGenerator

from tests._fixtures import TINY_SETTINGS, small_system, small_workload

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN_HASHES = Path(__file__).parent / "data" / "spec_hashes_v2.json"

PAIR = ("Data Serving", "MapReduce-C")


def split_pair(num_cores=16, rate=0.08, arrival="bursty"):
    return build_placement(
        "split_half", num_cores, list(PAIR), arrival=arrival, rate=rate
    )


# ----------------------------------------------------------------------- #
# WorkloadMap and TenantSpec
# ----------------------------------------------------------------------- #
class TestTenantSpec:
    def test_requires_workload_name(self):
        with pytest.raises(ValueError, match="workload name"):
            TenantSpec(workload="")

    def test_rate_must_be_a_probability(self):
        with pytest.raises(ValueError, match=r"rate must be within \[0, 1\]"):
            TenantSpec(workload="Data Serving", rate=1.5)

    def test_round_trips_through_dict(self):
        spec = TenantSpec("Data Serving", arrival="bursty", rate=0.1, matrix="hotspot")
        assert TenantSpec.from_dict(spec.to_dict()) == spec


class TestWorkloadMap:
    def test_rejects_overlapping_ranges(self):
        with pytest.raises(ValueError, match="overlaps"):
            WorkloadMap("bad", ((0, 8, 0), (4, 16, 0)), (TenantSpec("A"),))

    def test_rejects_unsorted_ranges(self):
        with pytest.raises(ValueError, match="sorted"):
            WorkloadMap("bad", ((8, 16, 0), (0, 8, 0)), (TenantSpec("A"),))

    def test_rejects_empty_range(self):
        with pytest.raises(ValueError, match="half-open"):
            WorkloadMap("bad", ((4, 4, 0),), (TenantSpec("A"),))

    def test_rejects_dangling_tenant_index(self):
        with pytest.raises(ValueError, match="only 1 tenant"):
            WorkloadMap("bad", ((0, 8, 1),), (TenantSpec("A"),))

    def test_rejects_coreless_tenant(self):
        with pytest.raises(ValueError, match="own no core range"):
            WorkloadMap("bad", ((0, 8, 0),), (TenantSpec("A"), TenantSpec("B")))

    def test_geometry_queries(self):
        wmap = split_pair()
        assert wmap.num_cores_required == 16
        assert wmap.tenant_cores(0) == list(range(8))
        assert wmap.tenant_cores(1) == list(range(8, 16))
        assert all(99 not in wmap.tenant_cores(i) for i in range(len(wmap.tenants)))
        wmap.validate_for(16)
        with pytest.raises(ValueError, match="needs 16 cores"):
            wmap.validate_for(8)

    def test_duplicate_workloads_get_distinct_labels(self):
        wmap = build_placement("split_half", 8, ["Data Serving", "Data Serving"])
        assert wmap.tenant_labels() == ["Data Serving", "Data Serving#1"]

    def test_describe_names_placement_and_tenants(self):
        assert split_pair().describe() == "split_half[Data Serving+MapReduce-C]"

    def test_round_trips_through_dict(self):
        wmap = split_pair()
        payload = wmap.to_dict()
        assert is_workload_map_dict(payload)
        assert not is_workload_map_dict({"placement": "x"})
        assert WorkloadMap.from_dict(payload) == wmap
        assert json.loads(json.dumps(payload)) == payload

    def test_from_dict_rejects_other_kinds(self):
        with pytest.raises(ValueError, match="__kind__"):
            WorkloadMap.from_dict({"__kind__": "something_else"})

    def test_content_hash_tracks_content(self):
        """A map is hashed as part of its point's config, nowhere else."""
        base = small_system(Topology.MESH).with_workload(small_workload())

        def point_hash(wmap):
            config = base.with_workload_map(wmap)
            return ExperimentPoint(config=config, settings=TINY_SETTINGS).content_hash()

        assert point_hash(split_pair()) == point_hash(split_pair())
        assert point_hash(split_pair(rate=0.08)) != point_hash(split_pair(rate=0.09))


class TestPlacements:
    def test_builtins_registered(self):
        names = placement_names()
        for name in ("homogeneous", "split_half", "checkerboard"):
            assert name in names

    def test_homogeneous_gives_first_tenant_every_core(self):
        wmap = build_placement("homogeneous", 16, list(PAIR))
        assert wmap.entries == ((0, 16, 0),)
        assert [t.workload for t in wmap.tenants] == ["Data Serving"]

    def test_checkerboard_alternates_cores(self):
        wmap = build_placement("checkerboard", 6, list(PAIR))
        assert wmap.tenant_cores(0) == [0, 2, 4]
        assert wmap.tenant_cores(1) == [1, 3, 5]

    def test_split_half_needs_two_tenants(self):
        with pytest.raises(ValueError, match="two tenants"):
            build_placement("split_half", 16, ["Data Serving"])

    def test_shared_traffic_knobs_apply_to_named_tenants(self):
        wmap = build_placement(
            "split_half", 16, list(PAIR), arrival="diurnal", rate=0.2, matrix="hotspot"
        )
        assert all(t.arrival == "diurnal" for t in wmap.tenants)
        assert all(t.rate == 0.2 for t in wmap.tenants)
        assert all(t.matrix == "hotspot" for t in wmap.tenants)

    def test_explicit_tenant_specs_pass_through(self):
        specs = [TenantSpec("Data Serving", rate=0.1), TenantSpec("Web Search", rate=0.3)]
        wmap = build_placement("split_half", 16, specs)
        assert wmap.tenants == tuple(specs)


# ----------------------------------------------------------------------- #
# Arrival processes and traffic matrices
# ----------------------------------------------------------------------- #
class _ForbiddenRng:
    """Deterministic arrival processes must never touch the RNG."""

    def __getattr__(self, name):  # pragma: no cover - failure path
        raise AssertionError(f"deterministic arrival drew rng.{name}")


class TestArrivals:
    def test_builtins_registered(self):
        for name in ("poisson", "bursty", "diurnal"):
            assert name in arrival_names()

    def test_rate_must_be_a_probability(self):
        with pytest.raises(ValueError, match=r"within \[0, 1\]"):
            make_arrival("poisson", 1.2)

    def test_poisson_is_constant_and_deterministic(self):
        process = make_arrival("poisson", 0.25)
        assert process.rate(0, _ForbiddenRng()) == 0.25
        assert process.rate(10_000, _ForbiddenRng()) == 0.25

    def test_diurnal_swings_around_base_without_rng(self):
        process = make_arrival("diurnal", 0.5)
        rates = [process.rate(c, _ForbiddenRng()) for c in range(process.period)]
        assert max(rates) == pytest.approx(0.5 * 1.8)
        assert min(rates) == pytest.approx(0.5 * 0.2)
        assert rates[0] == pytest.approx(0.5)
        assert all(0.0 <= r <= 1.0 for r in rates)

    def test_bursty_is_mean_preserving(self):
        import random

        process = make_arrival("bursty", 0.1)
        rng = random.Random(17)
        cycles = 200_000
        mean = sum(process.rate(c, rng) for c in range(cycles)) / cycles
        assert mean == pytest.approx(0.1, rel=0.1)
        assert process.on_rate == pytest.approx(0.4)
        assert process.on_rate > 0.1 > process.off_rate

    def test_bursty_parameter_validation(self):
        from repro.tenancy.arrivals import BurstyArrival

        with pytest.raises(ValueError, match="burst_factor"):
            BurstyArrival(0.1, burst_factor=0.5)
        with pytest.raises(ValueError, match="p_enter"):
            BurstyArrival(0.1, p_enter=0.0)


class TestMatrices:
    def test_builtins_registered(self):
        for name in ("uniform", "hotspot", "partitioned"):
            assert name in matrix_names()

    def test_context_validation(self):
        with pytest.raises(ValueError, match="at least one destination"):
            MatrixContext(destinations=())
        with pytest.raises(ValueError, match="tenant slot"):
            MatrixContext(destinations=(1, 2), tenant_index=2, num_tenants=2)

    def _draws(self, picker, n=2000, seed=5):
        import random

        rng = random.Random(seed)
        return [picker(0, rng) for _ in range(n)]

    def test_uniform_covers_every_destination(self):
        picker = make_matrix("uniform", MatrixContext(tuple(range(8))))
        assert set(self._draws(picker)) == set(range(8))

    def test_hotspot_concentrates_on_the_tenant_hot_node(self):
        context = MatrixContext(tuple(range(4)), tenant_index=1, num_tenants=2)
        draws = self._draws(make_matrix("hotspot", context))
        assert draws.count(1) / len(draws) > 0.5

    def test_partitioned_stripes_are_disjoint(self):
        destinations = tuple(range(8))
        stripes = [
            set(
                self._draws(
                    make_matrix(
                        "partitioned",
                        MatrixContext(destinations, tenant_index=i, num_tenants=2),
                    )
                )
            )
            for i in range(2)
        ]
        assert stripes[0] == {0, 2, 4, 6}
        assert stripes[1] == {1, 3, 5, 7}

    def test_partitioned_empty_stripe_falls_back_to_full_set(self):
        context = MatrixContext((10, 11), tenant_index=2, num_tenants=3)
        assert set(self._draws(make_matrix("partitioned", context))) == {10, 11}


# ----------------------------------------------------------------------- #
# Traffic-generator validation (satellite: reject broken configurations)
# ----------------------------------------------------------------------- #
class TestTrafficValidation:
    def _network(self):
        sim = Simulator(seed=3)
        config = small_system(Topology.MESH)
        coords = {i: (i % 4, i // 4) for i in range(16)}
        return sim, MeshNetwork(sim, config, coords)

    def test_out_of_range_injection_rate_rejected(self):
        sim, network = self._network()
        with pytest.raises(ValueError, match=r"base rate must be within \[0, 1\], got 1.5"):
            UniformRandomTrafficGenerator(sim, network, [0, 1], 1.5)

    def test_duplicate_sources_rejected(self):
        sim, network = self._network()
        with pytest.raises(ValueError, match=r"gen_c: duplicate source node\(s\) \[1\]"):
            OpenLoopTrafficGenerator(
                sim, network, [0, 1, 1, 2], make_arrival("poisson", 0.1),
                lambda s, rng: 0, name="gen_c", register_endpoints=False,
            )

    def test_source_outside_the_network_rejected_at_construction(self):
        sim, network = self._network()
        with pytest.raises(KeyError, match=r"unknown node 99"):
            UniformRandomTrafficGenerator(sim, network, [0, 99], 0.1)


# ----------------------------------------------------------------------- #
# Reservoir histograms (satellite: bounded-memory percentiles)
# ----------------------------------------------------------------------- #
class TestReservoirHistogram:
    def test_caps_retained_samples_but_keeps_exact_moments(self):
        hist = Histogram("latency", reservoir=16)
        for value in range(1000):
            hist.add(value)
        assert hist.count == 1000
        assert hist.mean == pytest.approx(499.5)
        assert hist.min == 0 and hist.max == 999
        assert len(hist._samples) == 16
        assert 0 <= hist.percentile(50) <= 999

    def test_retained_set_is_deterministic_per_name(self):
        def fill(name):
            hist = Histogram(name, reservoir=8)
            for value in range(500):
                hist.add(value)
            return list(hist._samples)

        assert fill("latency") == fill("latency")

    def test_reset_reseeds_the_reservoir(self):
        hist = Histogram("latency", reservoir=8)
        for value in range(500):
            hist.add(value)
        first = list(hist._samples)
        hist.reset()
        assert hist.count == 0 and len(hist._samples) == 0
        for value in range(500):
            hist.add(value)
        assert list(hist._samples) == first

    def test_below_cap_keeps_everything_in_order(self):
        hist = Histogram("latency", reservoir=64)
        for value in (5, 3, 9):
            hist.add(value)
        assert list(hist._samples) == [5.0, 3.0, 9.0]

    def test_reservoir_requires_kept_samples(self):
        with pytest.raises(StatError):
            Histogram("latency", keep_samples=False, reservoir=8)

    def test_reservoir_must_be_positive(self):
        with pytest.raises(ValueError):
            Histogram("latency", reservoir=0)

    def test_stat_group_passes_reservoir_through(self):
        group = StatGroup("g")
        hist = group.histogram("h", reservoir=4)
        for value in range(100):
            hist.add(value)
        assert len(hist._samples) == 4

    def test_default_reservoir_is_a_fixed_constant(self):
        assert DEFAULT_RESERVOIR == 8192


# ----------------------------------------------------------------------- #
# Config + cache-key compatibility
# ----------------------------------------------------------------------- #
class TestConfigIntegration:
    def test_config_validates_map_against_core_count(self):
        config = small_system(Topology.MESH, num_cores=8)
        with pytest.raises(ValueError, match="needs 16 cores"):
            config.with_workload_map(split_pair(num_cores=16))

    def test_none_map_is_canonically_omitted(self):
        point = ExperimentPoint(
            config=small_system(Topology.MESH).with_workload(small_workload()),
            settings=TINY_SETTINGS,
        )
        assert "workload_map" not in point.canonical_dict()["config"]

    def test_map_changes_the_cache_key(self):
        base = small_system(Topology.MESH).with_workload(small_workload())
        plain = ExperimentPoint(config=base, settings=TINY_SETTINGS)
        mapped = ExperimentPoint(
            config=base.with_workload_map(split_pair()), settings=TINY_SETTINGS
        )
        assert "workload_map" in mapped.canonical_dict()["config"]
        assert plain.content_hash() != mapped.content_hash()

    def test_pre_tenancy_spec_hashes_are_byte_identical(self, monkeypatch):
        """Golden gate: every pre-existing sweep keeps its cache keys."""
        from repro.reporting.figures import figure_spec

        monkeypatch.delenv("REPRO_EXPERIMENT_SCALE", raising=False)
        golden = json.loads(GOLDEN_HASHES.read_text())
        assert len(golden) == 9 and sum(len(v) for v in golden.values()) == 146
        for name, hashes in golden.items():
            current = [p.content_hash() for p in figure_spec(name).expand()]
            assert current == hashes, f"cache keys changed for spec {name!r}"

    def test_pre_chiplet_scale_out_hashes_survive(self, monkeypatch):
        """The pre-chiplet scale-out points keep their exact cache keys.

        PR 9 widened the scale-out grid (chiplet fabric, 1024/2048 cores);
        the original 24-point sub-sweep must still hash to the same keys it
        always had, all of which live inside the extended golden list.
        """
        from repro.experiments.scale_out import scale_out_spec

        monkeypatch.delenv("REPRO_EXPERIMENT_SCALE", raising=False)
        golden = set(json.loads(GOLDEN_HASHES.read_text())["scale_out"])
        legacy = scale_out_spec(
            core_counts=(64, 128, 256, 512), fabrics=("mesh", "cmesh", "noc_out")
        )
        hashes = [p.content_hash() for p in legacy.expand()]
        assert len(hashes) == 24
        assert set(hashes) <= golden


# ----------------------------------------------------------------------- #
# Scenario coordinates
# ----------------------------------------------------------------------- #
class TestSpecCoordinates:
    def test_placement_coordinates_build_a_workload_map(self):
        from repro.scenarios.spec import point_for_coords

        point = point_for_coords(
            {
                "placement": "split_half",
                "tenants": PAIR,
                "arrival": "bursty",
                "load": 0.08,
                "num_cores": 16,
            },
            TINY_SETTINGS,
        )
        wmap = point.config.workload_map
        assert wmap.placement == "split_half"
        assert [t.workload for t in wmap.tenants] == list(PAIR)
        assert all(t.arrival == "bursty" and t.rate == 0.08 for t in wmap.tenants)
        assert point.config.workload.name == "Data Serving"

    def test_placement_requires_tenants(self):
        from repro.scenarios.spec import point_for_coords

        with pytest.raises(ValueError, match="'tenants'"):
            point_for_coords({"placement": "split_half"}, TINY_SETTINGS)

    def test_map_and_placement_are_mutually_exclusive(self):
        from repro.scenarios.spec import point_for_coords

        with pytest.raises(ValueError, match="one or the other"):
            point_for_coords(
                {
                    "workload_map": split_pair(),
                    "placement": "split_half",
                    "tenants": PAIR,
                },
                TINY_SETTINGS,
            )

    def test_tenancy_knobs_require_a_placement(self):
        from repro.scenarios.spec import point_for_coords

        with pytest.raises(ValueError, match="require a 'placement'"):
            point_for_coords(
                {"workload": "Data Serving", "arrival": "bursty"}, TINY_SETTINGS
            )

    def test_workload_map_axis_survives_json_and_sharding(self):
        maps = (split_pair(rate=0.05), build_placement("checkerboard", 16, list(PAIR)))
        spec = SweepSpec(
            axes={"workload_map": maps},
            fixed={"topology": "mesh", "num_cores": 16},
            settings=TINY_SETTINGS,
        )
        hashes = [p.content_hash() for p in spec.expand()]
        assert len(set(hashes)) == 2

        revived = SweepSpec.from_json(spec.to_json())
        assert [p.content_hash() for p in revived.expand()] == hashes

        union = set()
        for index in range(3):
            union |= {p.content_hash() for p in spec.shard(index, 3).expand()}
        assert union == set(hashes)

    def test_colocation_spec_expands_the_full_grid(self):
        from repro.experiments.colocation import colocation_spec

        spec = colocation_spec(settings=TINY_SETTINGS)
        points = spec.expand()
        assert len(points) == 27
        assert len({p.content_hash() for p in points}) == 27

    def test_colocation_registered_but_outside_report_set(self):
        from repro.reporting.figures import figure_spec, report_points, spec_names

        assert "colocation" in spec_names()
        colocation = {
            p.content_hash()
            for p in figure_spec("colocation", TINY_SETTINGS).expand()
        }
        default = {p.content_hash() for p in report_points(TINY_SETTINGS)}
        assert not colocation & default


# ----------------------------------------------------------------------- #
# Chip integration: per-tenant tails (the acceptance property)
# ----------------------------------------------------------------------- #
def run_tenancy_chip(wmap, num_cores=16):
    config = small_system(Topology.MESH, num_cores=num_cores).with_workload_map(wmap)
    chip = Chip(config)
    results = chip.run_experiment(
        warmup_references=300, detailed_warmup_cycles=200, measure_cycles=600
    )
    return chip, results


class TestChipTenancy:
    def test_split_half_separates_per_tenant_tails(self):
        chip, results = run_tenancy_chip(split_pair(rate=0.08))
        assert results.placement == "split_half"
        assert results.workload == "split_half[Data Serving+MapReduce-C]"
        assert sorted(results.per_tenant_latency) == sorted(PAIR)
        tails = {}
        for tenant, summary in results.per_tenant_latency.items():
            assert summary["count"] > 0
            for key in ("mean", "p50", "p95", "p99"):
                assert key in summary
            tails[tenant] = summary["p99"]
        # The acceptance property: co-located tenants report *distinct*
        # latency distributions, not one blended chip-wide number.
        assert tails[PAIR[0]] != tails[PAIR[1]]
        for generator in chip.tenant_traffic.values():
            assert generator.probes_sent.value > 0
            assert generator.probes_echoed.value > 0

    def test_plain_chip_reports_no_tenancy(self):
        config = small_system(Topology.MESH).with_workload(small_workload())
        results = Chip(config).run_experiment(
            warmup_references=300, detailed_warmup_cycles=200, measure_cycles=600
        )
        assert results.placement == ""
        assert results.per_tenant_latency == {}

    def test_zero_rate_tenants_skip_the_overlay(self):
        chip, results = run_tenancy_chip(split_pair(rate=0.0))
        assert chip.tenant_traffic == {}
        # Tenant attribution still works off coherence traffic alone.
        assert sorted(results.per_tenant_latency) == sorted(PAIR)
        assert all(s["count"] > 0 for s in results.per_tenant_latency.values())

    def test_results_round_trip_preserves_tenancy_fields(self):
        _chip, results = run_tenancy_chip(split_pair(rate=0.08))
        revived = type(results).from_dict(results.to_dict())
        assert revived.placement == results.placement
        assert revived.per_tenant_latency == results.per_tenant_latency

    def test_sweep_records_round_trip_with_full_results(self, tmp_path):
        """Per-tenant tails survive the store: a warm re-run serves them back."""
        from repro.experiments.colocation import colocation_spec

        spec = colocation_spec(
            placements=("split_half",),
            arrivals=("bursty",),
            loads=(0.08,),
            num_cores=16,
            settings=TINY_SETTINGS,
        )
        cache = ResultCache(tmp_path / "store")
        results = run_sweep(spec, executor=SweepExecutor(jobs=1, cache=cache))
        assert len(results) == 1
        record = results[0]
        tails = record.result.per_tenant_latency
        assert sorted(tails) == sorted(PAIR)

        warm = SweepExecutor(jobs=1, cache=ResultCache(cache.root))
        revived = run_sweep(spec, executor=warm)
        assert warm.last_stats.simulations_run == 0
        assert revived[0].coords == record.coords
        assert revived[0].result.per_tenant_latency == tails


# ----------------------------------------------------------------------- #
# Determinism: process restarts (satellite)
# ----------------------------------------------------------------------- #
class TestTenancyDeterminism:
    def test_tenanted_run_is_stable_across_process_restarts(self):
        script = (
            "import hashlib, json\n"
            "from repro.chip.chip import Chip\n"
            "from repro.config.noc import NocConfig, Topology\n"
            "from repro.config.system import SystemConfig\n"
            "from repro.tenancy import build_placement\n"
            "wmap = build_placement('split_half', 16,"
            " ['Data Serving', 'MapReduce-C'], arrival='bursty', rate=0.08)\n"
            "config = SystemConfig(num_cores=16,"
            " noc=NocConfig(topology=Topology.MESH), seed=3)\n"
            "chip = Chip(config.with_workload_map(wmap))\n"
            "results = chip.run_experiment(warmup_references=300,"
            " detailed_warmup_cycles=200, measure_cycles=600)\n"
            "blob = json.dumps(results.to_dict(), sort_keys=True, default=str)\n"
            "print(hashlib.sha256(blob.encode('utf-8')).hexdigest())\n"
        )
        digests = []
        for hash_seed in ("0", "1"):
            env = dict(os.environ)
            env["PYTHONPATH"] = str(REPO_ROOT / "src")
            env["PYTHONHASHSEED"] = hash_seed
            completed = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            digests.append(completed.stdout.strip())
        assert digests[0] == digests[1]
