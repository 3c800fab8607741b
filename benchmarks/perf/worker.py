"""One benchmark process: set up a workload, time it, check its outputs.

``run.py`` starts this file in a fresh interpreter for every run, with
``REPRO_JOBS=1``, a private ``REPRO_CACHE_DIR`` and no other ``REPRO_*``
variable, and passes one JSON argument::

    {"workload": ..., "seed": ..., "seconds": ..., "mode": ..., "result": PATH}

``mode`` is ``setup`` (set up, then exit), ``run`` (timed phase),
``trace`` (untraced then traced phase, for the per-layer numbers),
``profile`` (one operation under cProfile), ``record`` (one operation,
return its digests) or ``full_report`` (the full-scale cold report).  The
outcome is written as JSON to ``result``; nothing is printed on stdout
that the caller parses.

Every workload is a closed loop: one client, one operation in flight.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
EXPECTED_PATH = HERE / "expected.json"
FIXTURE_PATH = HERE / "data" / "report_results.json"
COMMITTED_REPORT = ROOT / "reports" / "REPRODUCTION.md"

#: Window scale of the cold workloads.  At 0.1 every run window sits at its
#: floor (RunSettings.scaled), so one cold report fits one benchmark run;
#: the full-scale report is ``run.py full-report``.
COLD_SCALE = 0.1
#: Congested 8x8 mesh: 64-bit links past saturation at this injection rate.
NOC_INJECTION_RATE = 0.25
NOC_LINK_BITS = 64
NOC_CYCLES = 1000
#: The scale-out slice: one workload, every fabric, the two largest sizes.
XL_WORKLOADS = ("Data Serving",)
XL_CORE_COUNTS = (1024, 2048)

#: Host reference samples taken right after set-up, to scale ``setup_s``.
SETUP_REFERENCE_SAMPLES = 3

#: The package directories under ``src/repro`` that ``--profile`` reports.
PROFILE_PACKAGES = (
    "sim", "noc", "cache", "cpu", "chip", "fabrics", "workloads", "core",
    "store", "scenarios", "experiments", "reporting",
)


def digest(value) -> str:
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def text_digest(text: str) -> str:
    """sha256 of a rendered report, as ``sha256sum`` prints it for the file."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def point_label(coords) -> str:
    """A report point's sweep coordinates as a stable string key."""
    return ",".join(f"{key}={coords[key]}" for key in sorted(coords))


def report_points(settings) -> List[Tuple[str, object]]:
    """``(label, SweepPoint)`` for every point the default report needs."""
    from repro.store.specs import report_points as points

    return [(point_label(sp.coords), sp) for sp in points(settings)]


def model_counts(results) -> Dict[str, float]:
    """Simulated-time counts summed over points (rates weighted by their base)."""
    delivered = sum(r.messages_delivered for r in results)
    accesses = sum(r.llc_accesses for r in results)
    instructions = sum(r.total_instructions for r in results)
    cycles = sum(r.cycles for r in results)
    return {
        "noc.messages_delivered": delivered,
        "noc.flits_switched": sum(r.network_activity.get("flits_switched", 0.0) for r in results),
        "noc.mean_latency_cycles": (
            sum(r.network_mean_latency * r.messages_delivered for r in results) / delivered
            if delivered else 0.0
        ),
        "noc.mean_hops": (
            sum(r.network_mean_hops * r.messages_delivered for r in results) / delivered
            if delivered else 0.0
        ),
        "cache.llc_accesses": accesses,
        "cache.llc_hit_rate": (
            sum(r.llc_hit_rate * r.llc_accesses for r in results) / accesses if accesses else 0.0
        ),
        "cache.snoops_sent": sum(r.snoops_sent for r in results),
        "cache.memory_reads": sum(r.memory_reads for r in results),
        "cache.l1d_miss_rate": (
            sum(r.l1d_miss_rate for r in results) / len(results) if results else 0.0
        ),
        "cpu.instructions": instructions,
        "cpu.ipc": instructions / cycles if cycles else 0.0,
    }


NO_MODEL_COUNTS = model_counts([])


def paper_accuracy(reports) -> Dict[str, float]:
    """Points inside the paper's tolerance band and their mean error, in %."""
    within = 0
    errors = []
    for report in reports:
        comparison = report.comparison
        within += comparison.n_within
        errors.extend(d.rel_error for d in comparison.deltas if d.rel_error is not None)
    return {
        "paper.points_within_tol": within,
        "paper.mean_rel_err_pct": 100.0 * sum(errors) / len(errors) if errors else 0.0,
    }


NO_PAPER = {"paper.points_within_tol": 0, "paper.mean_rel_err_pct": 0.0}


class Check:
    """What one operation produced, ready to compare with expected digests.

    ``items`` maps an output name to its digest (or a small dict of
    counts); ``broken`` names items that failed an invariant regardless of
    any recorded digest.  Each item counts as one attempted operation.
    """

    def __init__(self, items, broken=(), model=None, paper=None) -> None:
        self.items: Dict[str, object] = items
        self.broken = set(broken)
        self.model = model if model is not None else dict(NO_MODEL_COUNTS)
        self.paper = paper if paper is not None else dict(NO_PAPER)


# --------------------------------------------------------------------- #
# Workloads
# --------------------------------------------------------------------- #
class Workload:
    name = ""

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.scratch = scratch
        self.reference = HostReference()
        self._ops = 0

    def expected_seed(self) -> int:
        return self.seed

    def fresh_dir(self) -> Path:
        self._ops += 1
        path = self.scratch / f"op{self._ops}"
        path.mkdir(parents=True)
        return path

    def sampling_cache(self, root: Path):
        """A result store that samples the host reference after each write,
        i.e. between the simulated points of one operation."""
        from repro.experiments.engine import ResultCache

        reference = self.reference

        class SamplingCache(ResultCache):
            def store(self, point, result):
                path = super().store(point, result)
                reference.sample()
                return path

        return SamplingCache(root)

    def setup(self) -> None:
        raise NotImplementedError

    def run_op(self):
        raise NotImplementedError

    def check(self, out) -> Check:
        raise NotImplementedError


class ReportCold(Workload):
    """The whole report from an empty store: every point is simulated."""

    name = "report_cold"

    def setup(self) -> None:
        from repro.experiments.harness import RunSettings

        self.settings = RunSettings(seed=self.seed).scaled(COLD_SCALE)
        self.points = report_points(self.settings)

    def run_op(self):
        from repro.reporting.cli import CountingExecutor, generate

        root = self.fresh_dir()
        cache = self.sampling_cache(root / "store")
        outcome = generate(
            out_dir=str(root / "out"),
            settings=self.settings,
            executor=CountingExecutor(jobs=1, cache=cache),
        )
        return root, cache, outcome

    def check(self, out) -> Check:
        root, cache, outcome = out
        items, broken, results = _stored_points(cache, self.points, self.settings)
        items["report"] = text_digest(outcome["text"])
        stats = outcome["stats"]
        if stats.simulations_run != len(self.points) or any(
            report.comparison.status == "no-data" for report in outcome["reports"]
        ):
            broken.add("report")
        shutil.rmtree(root)
        return Check(items, broken, model_counts(results), paper_accuracy(outcome["reports"]))


def _stored_points(cache, points, settings):
    """Digest every point's stored result; flag missing or empty ones."""
    items: Dict[str, object] = {}
    broken = set()
    results = []
    for label, sweep_point in points:
        result = cache.load(sweep_point.point)
        if result is None:
            items[label] = None
            broken.add(label)
            continue
        results.append(result)
        items[label] = digest(result.to_dict())
        if (
            result.cycles != settings.measure_cycles
            or result.total_instructions <= 0
            or result.messages_delivered <= 0
        ):
            broken.add(label)
    return items, broken, results


class NocCongested(Workload):
    """A bare 8x8 mesh with uniform random traffic past saturation."""

    name = "noc_congested"

    def setup(self) -> None:
        from repro.config.noc import NocConfig, Topology
        from repro.config.system import SystemConfig

        self.config = SystemConfig(
            num_cores=64,
            noc=NocConfig(topology=Topology.MESH, link_width_bits=NOC_LINK_BITS),
            seed=self.seed,
        )
        self.coords = {node: (node % 8, node // 8) for node in range(64)}
        self._simulate(NOC_CYCLES)

    def _simulate(self, cycles: int):
        from repro.noc.mesh import MeshNetwork
        from repro.sim.kernel import Simulator
        from repro.workloads.traffic import UniformRandomTrafficGenerator

        sim = Simulator(self.seed)
        network = MeshNetwork(sim, self.config, self.coords)
        UniformRandomTrafficGenerator(
            sim, network, list(self.coords), NOC_INJECTION_RATE, seed=self.seed + 1
        ).start()
        sim.run(cycles)
        return sim, network

    def run_op(self):
        return self._simulate(NOC_CYCLES)

    def check(self, out) -> Check:
        sim, network = out
        delivered = int(network.messages_delivered.value)
        run = {
            "events_processed": sim.events_processed,
            "messages_delivered": delivered,
            "stats_sha256": digest(network.stats.to_dict()),
        }
        broken = () if 0 < delivered <= network.messages_sent.value else ("run",)
        model = dict(NO_MODEL_COUNTS)
        model.update(
            {
                "noc.messages_delivered": delivered,
                "noc.flits_switched": network.activity()["flits_switched"],
                "noc.mean_latency_cycles": network.mean_latency(),
                "noc.mean_hops": network.mean_hops(),
            }
        )
        return Check({"run": run}, broken, model)


class ScaleOutXL(Workload):
    """Cold 1024- and 2048-core points of every scale-out fabric."""

    name = "scale_out_xl"

    def setup(self) -> None:
        from repro.experiments.harness import RunSettings
        from repro.experiments.scale_out import scale_out_spec

        self.settings = RunSettings(seed=self.seed).scaled(COLD_SCALE)
        spec = scale_out_spec(XL_WORKLOADS, XL_CORE_COUNTS, settings=self.settings)
        self.points = [(point_label(sp.coords), sp) for sp in spec.expand()]

    def run_op(self):
        from repro.experiments.engine import SweepExecutor
        from repro.experiments.scale_out import run_scale_out

        root = self.fresh_dir()
        cache = self.sampling_cache(root / "store")
        run_scale_out(
            XL_WORKLOADS,
            XL_CORE_COUNTS,
            settings=self.settings,
            executor=SweepExecutor(jobs=1, cache=cache),
        )
        return root, cache

    def check(self, out) -> Check:
        root, cache = out
        items, broken, results = _stored_points(cache, self.points, self.settings)
        shutil.rmtree(root)
        return Check(items, broken, model_counts(results))


class ReportWarm(Workload):
    """The whole report served from a store that already holds every point."""

    name = "report_warm"

    def expected_seed(self) -> int:
        # The fixture does not depend on the seed; only the report's
        # "seed=" field does, and check() normalises it to the fixture's.
        return self.fixture_seed

    def setup(self) -> None:
        from repro.chip.chip import SimulationResults
        from repro.experiments.engine import ResultCache
        from repro.experiments.harness import RunSettings

        fixture = json.loads(FIXTURE_PATH.read_text())
        self.fixture_seed = fixture["seed"]
        self.settings = RunSettings(seed=self.seed)
        self.root = self.scratch / "warm"
        cache = ResultCache(self.root / "store")
        for label, sweep_point in report_points(self.settings):
            cache.store(sweep_point.point, SimulationResults.from_dict(fixture["results"][label]))
        self.check(self.run_op())

    def run_op(self):
        from repro.experiments.engine import ResultCache
        from repro.reporting.cli import CountingExecutor, generate

        return generate(
            out_dir=str(self.root / "out"),
            settings=self.settings,
            executor=CountingExecutor(jobs=1, cache=ResultCache(self.root / "store")),
        )

    def check(self, outcome) -> Check:
        text = outcome["text"].replace(
            f", seed={self.seed}\n", f", seed={self.fixture_seed}\n", 1
        )
        stats = outcome["stats"]
        broken = ("report",) if stats.simulations_run or stats.cache_misses else ()
        paper = paper_accuracy(outcome["reports"])
        return Check({"report": text_digest(text)}, broken, paper=paper)


WORKLOADS = {cls.name: cls for cls in (ReportCold, NocCongested, ScaleOutXL, ReportWarm)}


# --------------------------------------------------------------------- #
# Expected outputs
# --------------------------------------------------------------------- #
def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text()) if EXPECTED_PATH.exists() else {}


def expected_items(workload: Workload, model_version: int) -> Tuple[Optional[dict], str]:
    """Recorded digests for this workload/seed, or ``None`` and why not."""
    by_model = load_expected().get(str(model_version))
    if by_model is None:
        return None, f"no expected outputs recorded for MODEL_VERSION {model_version}"
    entry = by_model.get(workload.name, {}).get(str(workload.expected_seed()))
    if entry is None:
        return None, (
            f"no expected outputs recorded for {workload.name} at seed "
            f"{workload.expected_seed()} (MODEL_VERSION {model_version})"
        )
    return entry, ""


class Verifier:
    """Counts attempted and failed outputs over a run's operations.

    An output fails when it breaks an invariant, differs from its recorded
    digest, or (with nothing recorded) differs from the same output of the
    run's first operation.
    """

    def __init__(self, expected: Optional[dict]) -> None:
        self.expected = expected
        self.first: Optional[Dict[str, object]] = None
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def add_raised(self) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append("raised")

    def add(self, check: Check) -> None:
        if self.first is None:
            self.first = check.items
        reference = self.expected if self.expected is not None else self.first
        for name, value in check.items.items():
            self.attempted += 1
            if name in check.broken or reference.get(name) != value:
                self.failed += 1
                if len(self.failures) < 10:
                    self.failures.append(name)


# --------------------------------------------------------------------- #
# Timed phases
# --------------------------------------------------------------------- #
class _Node:
    __slots__ = ("value", "log")

    def __init__(self, value: int) -> None:
        self.value = value
        self.log: list = []

    def visit(self, x: int) -> int:
        self.log.append(x)
        return self.value + x


class HostReference:
    """The host's current speed, sampled by timing a fixed pure-Python kernel.

    Shared machines drift in speed by 10-20% over minutes, far more than
    the bounds in ``BENCHMARK.json``.  An operation's time is divided by the
    median of the samples taken on either side of it and between its
    simulated points, so ``op_ref`` counts operation time in units of the
    reference kernel and the drift cancels.

    The kernel is method calls, attribute, dict and list traffic on objects
    allocated once; it runs with the cyclic collector off, so the size of
    the simulator's heap cannot leak into a sample.
    """

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []
        self._nodes = [_Node(i) for i in range(2000)]

    def _kernel(self) -> int:
        table: dict = {}
        total = 0
        nodes = self._nodes
        for rnd in range(25):
            for node in nodes:
                total += node.visit(rnd)
                table[total & 4095] = node
            for node in nodes:
                node.log.clear()
        return total

    def sample(self) -> None:
        gc.disable()
        try:
            start = time.perf_counter()
            self._kernel()
            self.samples.append((start, time.perf_counter()))
        finally:
            gc.enable()

    def since(self, first: int) -> Tuple[float, float]:
        """Seconds of work between ``samples[first:]`` and the median
        sample duration among them."""
        window = self.samples[first:]
        work = sum(nxt[0] - prev[1] for prev, nxt in zip(window, window[1:]))
        return work, statistics.median(end - start for start, end in window)


def timed_phase(workload: Workload, seconds: float, verifier: Verifier, tracer=None):
    """Run operations back to back until the next would overrun ``seconds``.

    At least one operation always runs.  Only ``run_op`` is timed: a
    garbage collection, a host reference sample on each side and the
    output check happen between operations.  An operation that raises
    counts as one failed output and is not timed.
    """
    reference = workload.reference
    ops: List[dict] = []
    checks: List[Check] = []
    started = time.monotonic()
    while True:
        gc.collect()
        first = len(reference.samples)
        reference.sample()
        if tracer is not None:
            tracer.op = len(ops)
            tracer.active = True
        try:
            out = workload.run_op()
        except Exception:
            traceback.print_exc()
            out = None
        finally:
            if tracer is not None:
                tracer.active = False
        reference.sample()
        wall, ref_s = reference.since(first)
        if out is None:
            verifier.add_raised()
        else:
            check = workload.check(out)
            del out  # the next operation starts from a heap without this one
            verifier.add(check)
            checks.append(check)
            ops.append({"wall": wall, "ref": wall / ref_s, "ref_s": ref_s})
        if time.monotonic() - started + wall > seconds:
            if not ops:
                raise RuntimeError(f"every {workload.name} operation raised")
            return ops, checks


def _mean_of(checks: List[Check], attr: str) -> Dict[str, float]:
    rows = [getattr(check, attr) for check in checks]
    return {key: sum(row[key] for row in rows) / len(rows) for key in rows[0]}


def profile_shares(workload: Workload) -> Dict[str, float]:
    """cProfile one operation; fold self time by ``repro`` package."""
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        out = workload.run_op()
    finally:
        profiler.disable()
    workload.check(out)
    totals = {name: 0.0 for name in PROFILE_PACKAGES + ("other",)}
    for (filename, _line, _func), row in pstats.Stats(profiler).stats.items():
        parts = Path(filename).parts
        package = "other"
        if "repro" in parts:
            index = len(parts) - 1 - parts[::-1].index("repro")
            if index + 2 < len(parts) and parts[index + 1] in totals:
                package = parts[index + 1]
        totals[package] += row[2]
    grand = sum(totals.values()) or 1.0
    return {f"host.{name}.share": value / grand for name, value in totals.items()}


def full_report(seed: int, scratch: Path, write_fixture: bool) -> dict:
    """Regenerate the full-scale report from an empty store."""
    from repro.experiments.engine import MODEL_VERSION, ResultCache
    from repro.experiments.harness import RunSettings
    from repro.reporting.cli import CountingExecutor, generate

    settings = RunSettings(seed=seed)
    cache = ResultCache(scratch / "store")
    started = time.perf_counter()
    outcome = generate(
        out_dir=str(scratch / "out"),
        settings=settings,
        executor=CountingExecutor(jobs=1, cache=cache),
    )
    wall = time.perf_counter() - started
    text = outcome["text"]
    result = {
        "wall_s": wall,
        "simulations": outcome["stats"].simulations_run,
        "report_sha256": text_digest(text),
        "identical_to_committed": COMMITTED_REPORT.exists()
        and COMMITTED_REPORT.read_text() == text,
    }
    if write_fixture:
        results = {
            label: cache.load(sweep_point.point).to_dict()
            for label, sweep_point in report_points(settings)
        }
        FIXTURE_PATH.parent.mkdir(parents=True, exist_ok=True)
        FIXTURE_PATH.write_text(
            json.dumps(
                {"model_version": MODEL_VERSION, "seed": seed, "results": results},
                sort_keys=True,
                separators=(",", ":"),
            )
            + "\n"
        )
    return result


def main(argv: List[str]) -> int:
    request = json.loads(argv[1])
    mode = request["mode"]
    scratch = Path(request["scratch"])
    if mode == "full_report":
        result = full_report(request["seed"], scratch, request["write_fixture"])
        Path(request["result"]).write_text(json.dumps(result))
        return 0

    from repro.experiments.engine import MODEL_VERSION

    workload = WORKLOADS[request["workload"]](request["seed"], scratch)
    workload.setup()
    result: dict = {"ready": time.monotonic(), "model_version": MODEL_VERSION}
    for _ in range(SETUP_REFERENCE_SAMPLES):
        workload.reference.sample()
    result["setup_ref_s"] = workload.reference.since(0)[1]

    if mode == "record":
        result["items"] = workload.check(workload.run_op()).items
        result["expected_seed"] = workload.expected_seed()
    elif mode == "profile":
        result["shares"] = profile_shares(workload)
    elif mode in ("run", "trace"):
        expected, reason = expected_items(workload, MODEL_VERSION)
        verifier = Verifier(expected)
        window = request["seconds"] if mode == "run" else request["seconds"] / 2
        ops, _ = timed_phase(workload, window, verifier)
        result["ops"] = ops
        if mode == "trace":
            from spans import Tracer, layer_metrics

            tracer = Tracer()
            tracer.install_layer_wrappers()
            # Samples taken between points become spans of their own, so
            # they count as no layer's self time.
            tracer.patch(HostReference, "sample", "host.reference")
            try:
                traced, checks = timed_phase(workload, window, verifier, tracer)
            finally:
                tracer.uninstall()
            layers = layer_metrics(tracer, len(traced))
            layers.update(_mean_of(checks, "model"))
            layers.update(_mean_of(checks, "paper"))
            layers["host.op_ms"] = 1000.0 * statistics.median(op["wall"] for op in ops)
            layers["host.ref_ms"] = 1000.0 * statistics.median(op["ref_s"] for op in ops)
            layers["trace_overhead_frac"] = (
                statistics.median(op["ref"] for op in traced)
                / statistics.median(op["ref"] for op in ops)
                - 1.0
            )
            result["traced_ops"] = traced
            result["layers"] = layers
            result["spans"] = tracer.to_dict(op=0)
        result.update(
            attempted=verifier.attempted,
            failed=verifier.failed,
            failures=verifier.failures,
            verified=expected is not None,
            unverified_reason=reason,
        )
    elif mode != "setup":
        raise ValueError(f"unknown mode {mode!r}")
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(request["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
