"""Outside-in tracing for the benchmark's traced run.

The simulator carries no instrumentation of its own, so the traced run
times each layer by wrapping the public functions its callers reach.  A
wrapper is installed on the name the *caller* looks up: ``Chip.__init__``
resolves ``build_network`` in :mod:`repro.chip.chip`, so that is where it
is patched, not in :mod:`repro.chip.builder`.  :meth:`Tracer.uninstall`
puts every original object back.

Spans are kept in memory.  A span's *self time* is its duration minus the
durations of its direct children; wrapped calls nest strictly on one
thread, so children never overlap.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Union

_MISSING = object()

#: Spans that together make up one simulated point, from chip construction
#: to the store write.  ``trace.phase_coverage_min`` is their summed
#: duration over the point's interval, which must stay at or above 0.95.
PHASES = (
    "chip.build",
    "chip.warmup",
    "chip.start",
    "sim.detailed",
    "sim.measure",
    "chip.reset",
    "chip.collect",
    "store.store",
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 at top level
    point: int  # simulated point id, -1 outside any point
    op: int  # timed operation the span belongs to


class Tracer:
    """Collects spans and counters from the wrappers it installs."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = {}
        self.op = 0
        self.point = -1
        #: Wrappers record only while set, so checks between operations
        #: leave no spans.
        self.active = False
        self._stack: List[int] = []
        self._patches: list = []
        self._next_point = 0
        # Simulators owned by a chip that has not reset its statistics yet:
        # their runs are the detailed warm-up, every other run is measured.
        self._unreset_sims: set = set()

    # ------------------------------------------------------------------ #
    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def patch(
        self,
        owner,
        attr: str,
        name: Union[str, Callable[[tuple], str]],
        before: Optional[Callable[[tuple], None]] = None,
        after: Optional[Callable[[tuple, object], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper."""
        original = vars(owner).get(attr, _MISSING)
        target = getattr(owner, attr)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.active:
                return target(*args, **kwargs)
            if before is not None:
                before(args)
            index = len(spans)
            spans.append(
                Span(
                    name if isinstance(name, str) else name(args),
                    clock(),
                    0.0,
                    stack[-1] if stack else -1,
                    self.point,
                    self.op,
                )
            )
            stack.append(index)
            try:
                result = target(*args, **kwargs)
            finally:
                stack.pop()
                spans[index].end = clock()
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = target
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    def install_layer_wrappers(self) -> None:
        """Wrap the entry points of chip, fabrics, sim, experiments,
        store, scenarios and reporting."""
        from repro.chip import chip as chip_module
        from repro.experiments import engine
        from repro.reporting import cli
        from repro.scenarios.spec import SweepSpec
        from repro.sim.kernel import Simulator

        Chip = chip_module.Chip

        def begin_point(args) -> None:
            self.point = self._next_point
            self._next_point += 1

        def stored(args, path) -> None:
            self.count("store.bytes_written", path.stat().st_size)
            self.point = -1

        def loaded(args, result) -> None:
            self.count(
                "experiments.cache_hits" if result is not None else "experiments.cache_misses"
            )

        def built(args, result) -> None:
            self._unreset_sims.add(id(args[0].sim))

        def reset(args, result) -> None:
            self._unreset_sims.discard(id(args[0].sim))

        def sim_phase(args) -> str:
            return "sim.detailed" if id(args[0]) in self._unreset_sims else "sim.measure"

        def ran(args, events) -> None:
            self.count("sim.events", events)
            self.count("sim.cycles", args[1])

        def network_built(args, network) -> None:
            self.count("fabrics.routers", len(network.routers))

        self.patch(engine, "execute_point", "experiments.execute_point", before=begin_point)
        self.patch(engine.ExperimentPoint, "content_hash", "experiments.hash")
        self.patch(engine.ResultCache, "load", "store.load", after=loaded)
        self.patch(engine.ResultCache, "store", "store.store", after=stored)
        self.patch(SweepSpec, "expand", "scenarios.expand")
        self.patch(cli, "build_report", "reporting.build_report")
        self.patch(cli, "render_report", "reporting.render")
        self.patch(Chip, "__init__", "chip.build", after=built)
        self.patch(chip_module, "build_system_map", "fabrics.system_map")
        self.patch(chip_module, "build_network", "fabrics.build_network", after=network_built)
        self.patch(Chip, "warmup", "chip.warmup")
        self.patch(Chip, "start_cores", "chip.start")
        self.patch(Chip, "reset_statistics", "chip.reset", after=reset)
        self.patch(Chip, "collect_results", "chip.collect")
        self.patch(Simulator, "run", sim_phase, after=ran)

    # ------------------------------------------------------------------ #
    def self_times(self) -> Dict[str, List[float]]:
        """Span name -> ``[self seconds, calls]`` summed over all spans."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        totals: Dict[str, List[float]] = {}
        for index, span in enumerate(self.spans):
            entry = totals.setdefault(span.name, [0.0, 0])
            entry[0] += span.end - span.start - child_time[index]
            entry[1] += 1
        return totals

    def phase_coverage(self) -> Dict[int, float]:
        """Point id -> share of the point's interval covered by phase spans.

        A point's interval runs from the start of its ``execute_point``
        span to the end of its last span (the store write).
        """
        start: Dict[int, float] = {}
        end: Dict[int, float] = {}
        covered: Dict[int, float] = {}
        for span in self.spans:
            if span.point < 0:
                continue
            if span.name == "experiments.execute_point":
                start[span.point] = span.start
            end[span.point] = max(end.get(span.point, span.end), span.end)
            if span.name in PHASES:
                covered[span.point] = covered.get(span.point, 0.0) + span.end - span.start
        return {
            point: covered.get(point, 0.0) / (end[point] - start[point])
            for point in start
        }

    def to_dict(self, op: int) -> List[dict]:
        """The spans of operation ``op`` as plain dicts."""
        return [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "point": s.point,
                "op": s.op,
            }
            for s in self.spans
            if s.op == op
        ]


def layer_metrics(tracer: Tracer, ops: int) -> Dict[str, float]:
    """Per-operation layer numbers from a tracer's spans and counters."""
    totals = tracer.self_times()
    counts = tracer.counts

    def self_s(name: str) -> float:
        return totals.get(name, [0.0, 0])[0] / ops

    def calls(name: str) -> float:
        return totals.get(name, [0.0, 0])[1] / ops

    sim_s = self_s("sim.detailed") + self_s("sim.measure")
    events = counts.get("sim.events", 0) / ops
    cycles = counts.get("sim.cycles", 0) / ops
    coverage = tracer.phase_coverage()
    return {
        "chip.build_s": self_s("chip.build"),
        "chip.warmup_s": self_s("chip.warmup"),
        "chip.reset_s": self_s("chip.reset"),
        "chip.collect_s": self_s("chip.collect"),
        "fabrics.build_network_s": self_s("fabrics.build_network"),
        "fabrics.system_map_s": self_s("fabrics.system_map"),
        "fabrics.routers": counts.get("fabrics.routers", 0) / ops,
        "sim.detailed_warmup_s": self_s("sim.detailed"),
        "sim.measure_s": self_s("sim.measure"),
        "sim.events": events,
        "sim.events_per_s": events / sim_s if sim_s else 0.0,
        "sim.events_per_cycle": events / cycles if cycles else 0.0,
        "experiments.points_simulated": calls("experiments.execute_point"),
        "experiments.cache_hits": counts.get("experiments.cache_hits", 0) / ops,
        "experiments.cache_misses": counts.get("experiments.cache_misses", 0) / ops,
        "experiments.hash_s": self_s("experiments.hash"),
        "experiments.hash_calls": calls("experiments.hash"),
        "store.load_s": self_s("store.load"),
        "store.loads": calls("store.load"),
        "store.store_s": self_s("store.store"),
        "store.stores": calls("store.store"),
        "store.bytes_written": counts.get("store.bytes_written", 0) / ops,
        "scenarios.expand_s": self_s("scenarios.expand"),
        "reporting.build_report_s": self_s("reporting.build_report"),
        "reporting.render_s": self_s("reporting.render"),
        "trace.phase_coverage_min": min(coverage.values()) if coverage else 0.0,
    }
