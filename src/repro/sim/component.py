"""Base class for simulated hardware components."""

from __future__ import annotations

from repro.sim.kernel import SimulationError, Simulator

_NO_ARGS: tuple = ()


class Component:
    """A named hardware block attached to a :class:`Simulator`.

    Components use the *wake/tick* idiom: anything that hands work to a
    component (a link delivering a packet, a core issuing a request) calls
    :meth:`wake`, which schedules a single :meth:`_tick` callback for the
    requested cycle.  Duplicate wake-ups for a pending target are coalesced;
    only a wake requested after the cycle's tick already ran (e.g. a credit
    listener firing mid-cycle) re-ticks the component within that cycle.

    Each component's ``stats`` group is registered in ``sim.stats`` under
    the component's name, which must therefore be unique per simulator.
    The component is also listed in ``sim.components``, so
    :meth:`Simulator.close` can close it; a closed component keeps only
    its ``name``.
    """

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        self.stats = sim.stats.new_group(name)
        self._next_wake: int = -1
        sim.components.append(self)

    # ------------------------------------------------------------------ #
    def wake(self, delay: int = 0) -> None:
        """Ensure :meth:`_tick` runs ``delay`` cycles from now (coalesced).

        Duplicate requests while a wake is pending coalesce: an
        earlier-or-equal pending wake absorbs the new request, and
        requesting an *earlier* wake supersedes a later pending one
        (``_next_wake`` moves forward; the superseded callback, still in
        the kernel queue, is recognised as stale and dropped by
        :meth:`_run_tick` when it fires).  A wake requested *after* the
        current cycle's tick has already run schedules a fresh tick — for
        ``wake(0)`` within the same cycle.  That re-tick is load-bearing:
        it is what lets a credit listener fired mid-cycle (a downstream
        ``pop``) re-run a router that already ticked this cycle, so freed
        space can be claimed the cycle it appears.
        """
        if delay < 0:
            raise SimulationError(f"cannot wake with negative delay {delay}")
        sim = self.sim
        now = sim.cycle
        target = now + delay
        pending = self._next_wake
        # Suppress only if an earlier-or-equal wake is already pending.
        if now <= pending <= target:
            return
        self._next_wake = target
        # Inlined calendar-queue append (see Simulator.schedule_at): wake is
        # the single most frequent scheduling call in any simulation, so the
        # in-window case writes the ring directly.
        if target < sim._win_end:
            sim._buckets[target & sim._mask].append((self._run_tick, _NO_ARGS))
            sim._bucket_count += 1
        else:
            sim.schedule_at(self._run_tick, target)

    def _run_tick(self) -> None:
        if self._next_wake != self.sim.cycle:
            return  # stale callback superseded by an earlier wake request
        self._next_wake = -1
        self._tick()

    def _tick(self) -> None:
        """Do one cycle of work.  Subclasses override."""
        raise NotImplementedError

    def close(self) -> None:
        """Drop every attribute but ``name`` (see :meth:`Simulator.close`).

        Subclasses whose parts point at one another without passing
        through a component break those links too.
        """
        name = self.name
        self.__dict__.clear()
        self.name = name

    @property
    def now(self) -> int:
        """Current simulation cycle."""
        return self.sim.cycle

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"{type(self).__name__}({self.name!r})"
