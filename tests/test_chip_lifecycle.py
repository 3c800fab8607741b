"""A finished chip frees itself: closing it leaves nothing for the collector.

``execute_point`` closes its chip once the results are collected, or when
the run raises.  Closing breaks every reference cycle in the model, so
reference counting frees the chip and a full collection afterwards finds
no unreachable object.  The engine also keeps its chip out of the
collector's sight: it builds the chip with automatic collection paused and
freezes it until close, then thaws the heap and leaves the collector as it
found it.  Whether an object is freed by reference counting or only by the
cyclic collector is a CPython detail, so CI also runs this file on newer
interpreters.
"""

from __future__ import annotations

import gc
import itertools
import weakref
from contextlib import contextmanager

import pytest

import repro.chip.chip as chip_module
from repro.chip.chip import Chip
from repro.config.noc import Topology
from repro.experiments.engine import ExperimentPoint, execute_point
from repro.fabrics import FABRICS, build_system, chiplet_system
from repro.fabrics.chiplet import CHIPLET_NAME
from repro.noc.router import Router
from repro.scenarios import workload
from repro.sim.kernel import DEFAULT_HORIZON, Simulator
from repro.tenancy.placement import build_placement
from tests._fixtures import TINY_SETTINGS, small_system, small_workload


@contextmanager
def collector_state(enabled: bool):
    """Run the body with the collector on or off, restoring it afterwards."""
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was_enabled else gc.disable)()


@contextmanager
def collector_off():
    """Run the body with the cyclic collector off, starting from a clean heap."""
    gc.collect()
    with collector_state(False):
        yield


def cyclic_garbage_after(point: ExperimentPoint) -> int:
    """Objects that only the collector could free once ``point`` has run."""
    with collector_off():
        result = execute_point(point, {})
        assert result.total_instructions > 0
        # Frozen garbage is invisible to gc.collect(), which would then
        # find 0 however much of the chip was left behind.
        assert gc.get_freeze_count() == 0
        return gc.collect()


def mesh_point(num_cores: int = 16) -> ExperimentPoint:
    config = build_system("mesh", num_cores=num_cores, seed=3)
    return ExperimentPoint(config.with_workload(small_workload()), TINY_SETTINGS)


def fail_router_tick(monkeypatch) -> str:
    """Make the 500th router tick of the next run raise; returns the message.

    Patches ``Router._run_tick``, the callback the kernel runs for each
    router tick event.
    """
    ticks = itertools.count()
    original = Router._run_tick

    def failing_tick(self):
        if next(ticks) == 500:
            raise RuntimeError("injected router fault")
        original(self)

    monkeypatch.setattr(Router, "_run_tick", failing_tick)
    return "injected router fault"


def fail_network_build(monkeypatch) -> str:
    """Make the next chip build raise; returns the message."""

    def failing_build(*args, **kwargs):
        raise RuntimeError("injected build fault")

    monkeypatch.setattr(chip_module, "build_network", failing_build)
    return "injected build fault"


def fabric_config(name: str):
    if name == CHIPLET_NAME:
        # The default concentration (16 cores per NoI router) needs 64 cores.
        return chiplet_system(num_cores=16, concentration=4)
    return build_system(name, num_cores=16, seed=3)


@pytest.mark.parametrize("name", list(FABRICS))
def test_every_fabric_frees_its_chip(name):
    point = ExperimentPoint(fabric_config(name).with_workload(small_workload()), TINY_SETTINGS)
    assert cyclic_garbage_after(point) == 0


def test_chiplet_chip_with_blocked_heads_frees_itself():
    # Heads here block on full downstream VCs, so a blocked state reaches
    # the downstream VC (through its blocked port and its resolved VC)
    # whose credit listeners point back at it: the cycle Router.close breaks.
    config = chiplet_system(num_cores=64).with_workload(small_workload())
    assert cyclic_garbage_after(ExperimentPoint(config, TINY_SETTINGS)) == 0


def test_tenanted_chip_frees_itself():
    wmap = build_placement(
        "split_half", 16, ["Data Serving", "MapReduce-C"], arrival="bursty", rate=0.08
    )
    config = (
        small_system(Topology.MESH, num_cores=16)
        .with_workload(workload("Data Serving"))
        .with_workload_map(wmap)
    )
    assert cyclic_garbage_after(ExperimentPoint(config, TINY_SETTINGS)) == 0


def test_point_that_raises_frees_its_chip(monkeypatch):
    message = fail_router_tick(monkeypatch)
    with collector_off():
        with pytest.raises(RuntimeError, match=message):
            execute_point(mesh_point(), {})
        assert gc.get_freeze_count() == 0
        assert gc.collect() == 0


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("inject", [None, fail_router_tick, fail_network_build])
def test_execute_point_leaves_the_collector_as_it_found_it(monkeypatch, inject, enabled):
    with collector_state(enabled):
        if inject is None:
            execute_point(mesh_point(), {})
        else:
            with pytest.raises(RuntimeError, match=inject(monkeypatch)):
                execute_point(mesh_point(), {})
        assert gc.isenabled() is enabled
        assert gc.get_freeze_count() == 0


class _Cycle:
    def __init__(self) -> None:
        self.me = self


def test_garbage_left_before_a_point_is_not_frozen_with_its_chip():
    # Frozen with the chip and thawed into the oldest generation, this
    # cycle would outlive the point: no automatic full pass runs in one.
    ref = weakref.ref(_Cycle())
    with collector_state(True):
        execute_point(mesh_point(), {})
    assert ref() is None


def test_engine_builds_its_chip_without_collecting(monkeypatch):
    building = []
    collections = []
    original = Chip.__init__

    def probed_init(self, *args, **kwargs):
        building.append(True)
        try:
            original(self, *args, **kwargs)
        finally:
            building.pop()

    def probe(phase, info):
        if phase == "start" and building:
            collections.append(info["generation"])

    monkeypatch.setattr(Chip, "__init__", probed_init)
    gc.callbacks.append(probe)
    try:
        with collector_state(True):
            execute_point(mesh_point(256), {})
    finally:
        gc.callbacks.remove(probe)
    assert collections == []


def test_closed_chip_keeps_component_names():
    config = build_system("mesh", num_cores=16, seed=3).with_workload(small_workload())
    chip = Chip(config)
    sim = chip.sim
    router = chip.network.routers[0]
    name = router.name
    chip.close()
    assert repr(router) == f"Router({name!r})"
    assert vars(router) == {"name": name}
    assert vars(chip) == {}
    assert sim.components == [] and sim.pending_events == 0


def test_simulator_close_drops_queued_events():
    sim = Simulator()
    fired = []
    sim.schedule(lambda: fired.append("near"), 1)
    sim.schedule(lambda: fired.append("far"), 10 * DEFAULT_HORIZON)  # overflow heap
    sim.close()
    assert sim.pending_events == 0
    sim.run(20 * DEFAULT_HORIZON)
    assert fired == []
