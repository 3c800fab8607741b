"""Discrete-event, cycle-accurate simulation kernel.

The kernel is deliberately small: a :class:`~repro.sim.kernel.Simulator`
owns the global cycle counter and an event heap of callbacks, and
:class:`~repro.sim.component.Component` provides the wake/tick idiom used by
routers, caches, cores and memory controllers.  Statistics live in one
:class:`~repro.sim.stats.StatGroup` tree per simulator (``sim.stats``), with
one child group per component.
"""

from repro.sim.kernel import Simulator
from repro.sim.component import Component
from repro.sim.stats import Counter, Histogram, StatGroup

__all__ = ["Simulator", "Component", "Counter", "Histogram", "StatGroup"]
