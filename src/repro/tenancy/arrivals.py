"""Open-loop arrival processes: time-varying per-cycle injection rates.

Each process maps a cycle (relative to generator start) to the Bernoulli
injection probability the traffic machinery in
:mod:`repro.workloads.traffic` uses that cycle — the open-loop layer over
the existing per-cycle draw loop.  :data:`ARRIVALS` names each process
class; a new process is one class and one row.

Every stochastic process draws exclusively from the ``rng`` handed in by
its generator, so traces are fully determined by the generator seed —
identical across simulation kernels and process restarts.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Dict, List


def arrival_names() -> List[str]:
    """Arrival-process names, in table order."""
    return list(ARRIVALS)


def make_arrival(name: str, base_rate: float) -> "ArrivalProcess":
    """Build the arrival process ``name`` of :data:`ARRIVALS` at ``base_rate``."""
    if not 0.0 <= base_rate <= 1.0:
        raise ValueError(
            f"arrival process {name!r}: base rate must be within [0, 1], got {base_rate}"
        )
    try:
        factory = ARRIVALS[name]
    except KeyError:
        raise KeyError(
            f"unknown arrival process {name!r}; available: {sorted(ARRIVALS)}"
        ) from None
    return factory(base_rate)


class ArrivalProcess:
    """Interface: per-cycle injection probability for an open-loop tenant."""

    def rate(self, cycle: int, rng: random.Random) -> float:
        """Injection probability for ``cycle`` (cycles since start).

        Stochastic processes must draw only from ``rng``; deterministic
        ones must not touch it at all (the draw sequence is part of the
        deterministic model contract).
        """
        raise NotImplementedError


class PoissonArrival(ArrivalProcess):
    """Constant rate: per-cycle Bernoulli trials, i.e. binomial arrivals
    approximating a Poisson process at low rates."""

    def __init__(self, base_rate: float) -> None:
        self.base_rate = base_rate

    def rate(self, cycle: int, rng: random.Random) -> float:
        return self.base_rate


class BurstyArrival(ArrivalProcess):
    """Two-state Markov-modulated on/off process, mean-preserving.

    The process burns at ``burst_factor`` × ``base_rate`` while ON and at
    a compensating low rate while OFF, chosen so the long-run mean equals
    ``base_rate`` exactly (same offered load as ``poisson``, different
    temporal shape).  State transitions draw one RNG sample per cycle.
    """

    def __init__(
        self,
        base_rate: float,
        burst_factor: float = 4.0,
        p_enter: float = 0.02,
        p_exit: float = 0.08,
    ) -> None:
        if burst_factor < 1.0:
            raise ValueError(f"burst_factor must be >= 1, got {burst_factor}")
        if not 0.0 < p_enter < 1.0 or not 0.0 < p_exit < 1.0:
            raise ValueError("p_enter/p_exit must be within (0, 1)")
        duty = p_enter / (p_enter + p_exit)  # long-run ON fraction
        off_factor = max(0.0, (1.0 - duty * burst_factor) / (1.0 - duty))
        self.base_rate = base_rate
        self.on_rate = min(1.0, base_rate * burst_factor)
        self.off_rate = min(1.0, base_rate * off_factor)
        self.p_enter = p_enter
        self.p_exit = p_exit
        self._on = False

    def rate(self, cycle: int, rng: random.Random) -> float:
        if self._on:
            if rng.random() < self.p_exit:
                self._on = False
        else:
            if rng.random() < self.p_enter:
                self._on = True
        return self.on_rate if self._on else self.off_rate


class DiurnalArrival(ArrivalProcess):
    """Deterministic diurnal ramp: a sinusoid over ``period`` cycles.

    Rate swings between ``base_rate * (1 ± amplitude)``, clamped to
    [0, 1]; no RNG draws, so it never perturbs the Bernoulli sequence.
    """

    def __init__(
        self, base_rate: float, period: int = 4000, amplitude: float = 0.8
    ) -> None:
        if period < 1:
            raise ValueError(f"period must be >= 1, got {period}")
        if not 0.0 <= amplitude <= 1.0:
            raise ValueError(f"amplitude must be within [0, 1], got {amplitude}")
        self.base_rate = base_rate
        self.period = period
        self.amplitude = amplitude

    def rate(self, cycle: int, rng: random.Random) -> float:
        swing = 1.0 + self.amplitude * math.sin(2.0 * math.pi * cycle / self.period)
        return min(1.0, max(0.0, self.base_rate * swing))


#: Arrival-process name -> ``(base_rate) -> ArrivalProcess``.
ARRIVALS: Dict[str, Callable[[float], ArrivalProcess]] = {
    "poisson": PoissonArrival,
    "bursty": BurstyArrival,
    "diurnal": DiurnalArrival,
}
