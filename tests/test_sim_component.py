"""Unit tests for the Component wake/tick idiom."""

import pytest

from repro.sim.component import Component
from repro.sim.kernel import Simulator
from repro.sim.stats import StatError


class TickRecorder(Component):
    def __init__(self, sim):
        super().__init__(sim, "recorder")
        self.ticks = []

    def _tick(self):
        self.ticks.append(self.sim.cycle)


def test_wake_schedules_tick():
    sim = Simulator()
    component = TickRecorder(sim)
    component.wake(3)
    sim.run(10)
    assert component.ticks == [3]


def test_duplicate_wakes_for_same_cycle_coalesce():
    sim = Simulator()
    component = TickRecorder(sim)
    component.wake(2)
    component.wake(2)
    component.wake(2)
    sim.run(5)
    assert component.ticks == [2]


def test_component_can_rewake_itself():
    sim = Simulator()

    class SelfWaking(TickRecorder):
        def _tick(self):
            super()._tick()
            if len(self.ticks) < 3:
                self.wake(1)

    component = SelfWaking(sim)
    component.wake(0)
    sim.run(10)
    assert component.ticks == [0, 1, 2]


def test_earlier_wake_supersedes_later_pending_wake():
    """Regression: wake(5) then wake(0) must tick once, at cycle 0 only.

    The seed implementation left the later callback live in the kernel
    queue with stale ``_next_wake`` bookkeeping, so the component ticked a
    second time at cycle 5 without ever being asked to.
    """
    sim = Simulator()
    component = TickRecorder(sim)
    component.wake(5)
    component.wake(0)
    sim.run(20)
    assert component.ticks == [0]


def test_stale_wake_patterns_never_double_tick():
    """Count ticks per cycle under adversarial wake(n)-then-wake(0) mixes."""
    from collections import Counter

    sim = Simulator()
    component = TickRecorder(sim)
    component.wake(5)
    component.wake(2)
    component.wake(0)
    sim.run(10)  # the wake(5) and wake(2) entries are stale: single tick at 0
    component.wake(12)  # pending at cycle 22
    component.wake(5)   # supersedes: tick at cycle 15, entry at 22 goes stale
    sim.run(30)
    per_cycle = Counter(component.ticks)
    assert max(per_cycle.values()) == 1
    assert component.ticks == [0, 15]


def test_rewake_on_superseded_cycle_ticks_exactly_once():
    sim = Simulator()
    component = TickRecorder(sim)
    component.wake(5)   # pending at 5
    component.wake(0)   # supersedes; stale entry remains queued for cycle 5
    sim.run(2)          # tick at 0 consumed; clock now at 2
    component.wake(3)   # a *live* wake for cycle 5 again
    sim.run(10)
    assert component.ticks == [0, 5]


def test_wake_during_tick_at_stale_cycle_is_honoured():
    sim = Simulator()

    class RewakeAtFive(TickRecorder):
        def _tick(self):
            super()._tick()
            if self.sim.cycle == 0:
                self.wake(5)

    component = RewakeAtFive(sim)
    component.wake(5)
    component.wake(0)
    sim.run(20)
    assert component.ticks == [0, 5]


def test_now_property_tracks_clock():
    sim = Simulator()
    component = TickRecorder(sim)
    sim.run(5)
    assert component.now == 5


def test_component_has_stats_group():
    sim = Simulator()
    component = TickRecorder(sim)
    component.stats.counter("events").add()
    assert component.stats.counter("events").value == 1


@pytest.mark.parametrize("kernel_cls", [Simulator])
def test_component_stats_are_registered_in_the_simulator_tree(kernel_cls):
    sim = kernel_cls()
    component = TickRecorder(sim)
    component.stats.counter("events").add(3)
    assert sim.stats.children["recorder"] is component.stats
    sim.stats.reset()
    assert component.stats.counter("events").value == 0


def test_duplicate_component_name_raises():
    sim = Simulator()
    TickRecorder(sim)
    with pytest.raises(StatError, match="recorder"):
        TickRecorder(sim)
    TickRecorder(Simulator())  # names are per simulator
