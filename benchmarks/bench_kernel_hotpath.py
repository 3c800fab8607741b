"""Kernel/router hot-path microbenchmark: events per second on fixed scenarios.

Unlike the figure benchmarks (which reproduce paper results through the
experiment engine), this file measures the simulator itself: how fast the
event kernel and the mesh routers chew through a fixed, deterministic
workload.  It is the regression guard for the event-driven wake-up
machinery — a change that silently reintroduces per-cycle polling shows up
here as a collapse in cycles/second and a blow-up in the event count.

Three scenarios bracket the design space:

* ``uniform_mesh``   — light uniform-random traffic on an 8x8 mesh; mostly
  idle routers, so it measures how close "idle costs nothing" gets.
* ``congested_mesh`` — heavy uniform traffic over narrow (64-bit) links on
  the same mesh; credit-blocked heads everywhere, so it measures the
  wake/credit protocol under sustained backpressure.  It is the run of the
  ``congested_mesh_8x8`` golden stats digest (``tests/test_stats_digests.py``),
  whose event order tier-1 pins; its event count is asserted equal to
  that golden's ``events_processed``, so the events/s printed here were
  timed on the pinned event sequence.
* ``chip_mesh``      — a 16-core chip (cores + caches + directory + NoC)
  running the synthetic test workload; the end-to-end mix.

Event counts are deterministic (asserted), wall-clock is taken as the best
of ``ROUNDS`` runs to damp scheduler noise, and each scenario must finish
under a deliberately generous ceiling so CI catches order-of-magnitude
regressions without flaking on slow runners.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

from repro.chip.builder import build_chip
from repro.config.noc import NocConfig, Topology
from repro.config.system import SystemConfig
from repro.config.workload import WorkloadConfig
from repro.noc.mesh import MeshNetwork
from repro.sim.kernel import Simulator
from repro.workloads.traffic import UniformRandomTrafficGenerator

from bench_common import emit

KB = 1024
MB = 1024 * KB

#: Wall-clock budget per scenario, in seconds.  Roughly 10-20x the time the
#: scenarios take on a 2024-vintage laptop core; trip this and either the
#: kernel hot path regressed badly or polling crept back in.
WALL_CLOCK_CEILING_S = 90.0
#: Golden stats digests; ``congested_mesh_8x8`` is the congested_mesh run.
GOLDEN_DIGESTS = Path(__file__).resolve().parent.parent / "tests" / "data" / "stats_digests.json"
#: Timed repetitions per scenario (the work is deterministic; only the
#: wall-clock varies, so best-of is the right statistic).
ROUNDS = 3


@dataclass
class HotpathResult:
    name: str
    wall_s: float
    cycles: int
    events: int
    work_items: int  # packets delivered / instructions committed

    @property
    def events_per_s(self) -> float:
        return self.events / self.wall_s

    @property
    def cycles_per_s(self) -> float:
        return self.cycles / self.wall_s


def _bench_workload() -> WorkloadConfig:
    return WorkloadConfig(
        name="HotpathWorkload",
        instruction_footprint_bytes=256 * KB,
        hot_instruction_fraction=0.5,
        dataset_bytes=8 * MB,
        data_reuse_fraction=0.9,
        shared_fraction=0.02,
        shared_region_bytes=16 * KB,
        write_fraction=0.3,
        loads_per_instruction=0.3,
        mean_block_instructions=12.0,
        jump_probability=0.25,
        issue_width=3,
        mlp=2,
        max_cores=64,
    )


def _run_traffic_mesh(name: str, injection_rate: float, link_width_bits: int,
                      cycles: int) -> HotpathResult:
    best = None
    for _ in range(ROUNDS):
        noc = NocConfig(topology=Topology.MESH, link_width_bits=link_width_bits)
        config = SystemConfig(num_cores=64, noc=noc, seed=3)
        sim = Simulator(seed=3)
        coords = {i: (i % 8, i // 8) for i in range(64)}
        network = MeshNetwork(sim, config, coords)
        generator = UniformRandomTrafficGenerator(
            sim, network, list(coords), injection_rate, seed=5
        )
        generator.start()
        start = time.perf_counter()
        sim.run(cycles)
        wall = time.perf_counter() - start
        result = HotpathResult(
            name=name,
            wall_s=wall,
            cycles=cycles,
            events=sim.events_processed,
            work_items=int(network.messages_delivered.value),
        )
        if best is None:
            best = result
        else:
            # The simulation is deterministic; only the clock varies.
            assert result.events == best.events
            assert result.work_items == best.work_items
            if result.wall_s < best.wall_s:
                best = result
    return best


def _run_chip_mesh(name: str, cycles: int) -> HotpathResult:
    best = None
    for _ in range(ROUNDS):
        noc = NocConfig(topology=Topology.MESH)
        config = SystemConfig(num_cores=16, noc=noc, seed=3).with_workload(
            _bench_workload()
        )
        chip = build_chip(config)
        chip.warmup(1000)
        chip.start_cores()
        start = time.perf_counter()
        chip.sim.run(cycles)
        wall = time.perf_counter() - start
        instructions = sum(
            int(node.core.instructions_committed.value)
            for node in chip.core_nodes.values()
        )
        result = HotpathResult(
            name=name,
            wall_s=wall,
            cycles=cycles,
            events=chip.sim.events_processed,
            work_items=instructions,
        )
        if best is None:
            best = result
        else:
            assert result.events == best.events
            assert result.work_items == best.work_items
            if result.wall_s < best.wall_s:
                best = result
    return best


def _render(results) -> str:
    header = (
        f"{'scenario':<16} {'wall s':>8} {'cycles':>9} {'events':>10} "
        f"{'events/s':>12} {'cycles/s':>10} {'work':>8}"
    )
    lines = [header, "-" * len(header)]
    for r in results:
        lines.append(
            f"{r.name:<16} {r.wall_s:>8.3f} {r.cycles:>9} {r.events:>10} "
            f"{r.events_per_s:>12,.0f} {r.cycles_per_s:>10,.0f} {r.work_items:>8}"
        )
    return "\n".join(lines)


def test_kernel_hotpath_events_per_second():
    results = [
        _run_traffic_mesh("uniform_mesh", injection_rate=0.08,
                          link_width_bits=128, cycles=10_000),
        _run_traffic_mesh("congested_mesh", injection_rate=0.25,
                          link_width_bits=64, cycles=6_000),
        _run_chip_mesh("chip_mesh", cycles=3_000),
    ]
    emit("Kernel hot-path: events per second", _render(results))

    for r in results:
        # Forward progress sanity: the scenarios actually stress the NoC.
        assert r.work_items > 0
        assert r.events > 10_000
        # CI regression guard (generous: ~10-20x observed time).
        assert r.wall_s < WALL_CLOCK_CEILING_S, (
            f"{r.name}: {r.wall_s:.1f}s exceeds the {WALL_CLOCK_CEILING_S:.0f}s "
            "hot-path ceiling — did per-cycle polling creep back in?"
        )

    # The event-driven kernel's signature: an idle-ish mesh processes far
    # fewer events per simulated cycle than a saturated one.  Under the old
    # poll-every-cycle router loop both scenarios sat near the same
    # (events/cycle ~ routers+interfaces) floor, so this ratio is a direct
    # regression test for "blocked/idle components schedule no events".
    uniform, congested = results[0], results[1]
    assert uniform.events / uniform.cycles < congested.events / congested.cycles

    golden = json.loads(GOLDEN_DIGESTS.read_text())["scenarios"]["congested_mesh_8x8"]
    assert congested.events == golden["events_processed"], (
        "congested_mesh no longer runs the congested_mesh_8x8 golden's event "
        "sequence, so its events/s is not comparable across commits"
    )

