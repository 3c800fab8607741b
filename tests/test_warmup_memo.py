"""The warm-up memo: each distinct core stream is warmed once per executor.

``Chip.warmup`` keys the fabric-independent part of a warm-up (each
core's L1 contents, shared-region fills and stream end state) on every
core's stream identity, and :class:`SweepExecutor` owns one memo for its
lifetime.  These tests check that a memo hit is indistinguishable from a
fresh warm-up, from the packed pieces up to whole sweep results.
"""

from __future__ import annotations

import random

from repro.cache.set_assoc import CacheLineState, SetAssociativeCache
from repro.chip.chip import Chip
from repro.config.cache import CacheConfig
from repro.experiments.engine import ExperimentPoint, ResultCache, SweepExecutor
from repro.experiments.harness import RunSettings
from repro.scenarios import build_system, workload
from repro.workloads.cloudsuite import make_stream

WINDOWS = RunSettings(warmup_references=300, detailed_warmup_cycles=100, measure_cycles=200)
#: Web Search scales to 16 of a 64-core chip's cores, and each of these
#: fabrics places those 16 on different core ids and directory homes.
FABRICS = ("mesh", "noc_out", "cmesh")


def web_search_point(fabric: str, seed: int = 7) -> ExperimentPoint:
    config = build_system(fabric, num_cores=64, seed=seed).with_workload(
        workload("Web Search")
    )
    return ExperimentPoint(config, WINDOWS)


def fresh_result(point: ExperimentPoint) -> dict:
    return (
        Chip(point.config)
        .run_experiment(
            warmup_references=WINDOWS.warmup_references,
            detailed_warmup_cycles=WINDOWS.detailed_warmup_cycles,
            measure_cycles=WINDOWS.measure_cycles,
        )
        .to_dict()
    )


def test_packed_lines_round_trip_every_set_in_lru_order():
    config = CacheConfig(size_bytes=4096, associativity=4, block_size=64)
    source = SetAssociativeCache(config)
    rng = random.Random(5)
    states = [CacheLineState.SHARED, CacheLineState.MODIFIED]
    source.insert_all(
        (rng.randrange(1 << 40) & -64, rng.choice(states)) for _ in range(500)
    )
    target = SetAssociativeCache(config)
    target.insert(0x40)  # replaced, not merged
    target.install_packed(*source.packed_lines())
    assert target._sets == source._sets
    assert [list(s) for s in target._sets] == [list(s) for s in source._sets]


def test_stream_restore_resumes_exactly_where_the_draw_left_it():
    config = workload("Data Serving")
    drawn = make_stream(config, 3, 16, seed=11)
    entry = drawn.identity()
    list(drawn.functional_references(400))
    resumed = make_stream(config, 3, 16, seed=11)
    assert resumed.identity() == entry
    resumed.restore(*drawn.packed_state())
    assert resumed.identity() == drawn.identity()
    assert resumed.rng.getstate() == drawn.rng.getstate()
    assert [resumed.next_block() for _ in range(50)] == [drawn.next_block() for _ in range(50)]


def test_identity_separates_streams_that_draw_differently():
    config = workload("Data Serving")
    base = make_stream(config, 3, 16, seed=11)
    assert len(
        {
            base.identity(),
            make_stream(config, 4, 16, seed=11).identity(),
            make_stream(config, 3, 32, seed=11).identity(),
            make_stream(config, 3, 16, seed=12).identity(),
            make_stream(config, 3, 16, seed=11, address_offset=1 << 40).identity(),
            make_stream(workload("Web Search"), 3, 16, seed=11).identity(),
        }
    ) == 6


def test_chips_with_other_streams_never_share_an_entry():
    memo: dict = {}
    Chip(web_search_point("mesh", seed=7).config).warmup(300, memo)
    Chip(web_search_point("mesh", seed=8).config).warmup(300, memo)
    Chip(web_search_point("mesh", seed=7).config).warmup(301, memo)
    assert len(memo) == 3


def test_serial_sweep_warms_shared_streams_once_and_matches_fresh_chips(tmp_path):
    points = [web_search_point(fabric) for fabric in FABRICS]
    executor = SweepExecutor(jobs=1, cache=ResultCache(tmp_path))
    results = executor.run(points)
    assert executor.last_stats.simulations_run == len(FABRICS)
    assert len(executor.warmup_memo) == 1
    assert [result.to_dict() for result in results] == [fresh_result(p) for p in points]

    # The memo belongs to its executor: a new one (a new report run or
    # benchmark operation) starts empty.
    second = SweepExecutor(jobs=1, cache=ResultCache(tmp_path / "other"))
    assert second.warmup_memo == {}
    assert second.warmup_memo is not executor.warmup_memo


def test_profiled_points_share_the_executor_memo(tmp_path, monkeypatch):
    """REPRO_PROFILE runs the same program, memo hits included."""
    monkeypatch.setenv("REPRO_PROFILE", "1")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "profiles"))
    points = [web_search_point(fabric) for fabric in FABRICS[:2]]
    executor = SweepExecutor(jobs=1, cache=ResultCache(tmp_path / "store"))
    results = executor.run(points)
    assert len(executor.warmup_memo) == 1
    assert len(list((tmp_path / "profiles").glob("*.pstats"))) == 2
    monkeypatch.delenv("REPRO_PROFILE")
    assert [result.to_dict() for result in results] == [fresh_result(p) for p in points]


def test_windows_left_out_take_run_settings_defaults():
    defaults = RunSettings()
    config = web_search_point("mesh").config
    memo: dict = {}
    Chip(config).warmup(memo=memo)
    Chip(config).warmup(defaults.warmup_references, memo)
    assert [key[0] for key in memo] == [defaults.warmup_references]

    chip = Chip(config)
    results = chip.run_experiment()
    assert results.cycles == defaults.measure_cycles
    assert chip.sim.cycle == defaults.detailed_warmup_cycles + defaults.measure_cycles
