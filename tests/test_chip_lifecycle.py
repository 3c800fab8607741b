"""A finished chip frees itself: closing it leaves nothing for the collector.

``execute_point`` closes its chip once the results are collected, or when
the run raises.  Closing breaks every reference cycle in the model, so
reference counting frees the chip and a full collection afterwards finds
no unreachable object.  Whether an object is freed by reference counting
or only by the cyclic collector is a CPython detail, so CI also runs this
file on newer interpreters.
"""

from __future__ import annotations

import gc
import itertools
from contextlib import contextmanager

import pytest

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
def collector_off():
    """Run the body with the cyclic collector off, starting from a clean heap."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def cyclic_garbage_after(point: ExperimentPoint) -> int:
    """Objects that only the collector could free once ``point`` has run."""
    with collector_off():
        result = execute_point(point, {})
        assert result.total_instructions > 0
        return gc.collect()


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
    # Heads here block on full downstream VCs, so VCs cache routes to VCs
    # whose credit listeners point back: the cycle Router.close breaks.
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
    ticks = itertools.count()
    original = Router._tick

    def failing_tick(self):
        if next(ticks) == 500:
            raise RuntimeError("injected router fault")
        original(self)

    monkeypatch.setattr(Router, "_tick", failing_tick)
    point = ExperimentPoint(
        build_system("mesh", num_cores=16, seed=3).with_workload(small_workload()),
        TINY_SETTINGS,
    )
    with collector_off():
        with pytest.raises(RuntimeError, match="injected router fault"):
            execute_point(point, {})
        assert gc.collect() == 0


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
