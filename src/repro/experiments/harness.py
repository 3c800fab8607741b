"""Shared machinery for running the paper's experiments.

:class:`RunSettings`: the warm-up and measurement windows, scalable via
``REPRO_EXPERIMENT_SCALE``.  Points are built from coordinates by
:func:`~repro.scenarios.spec.point_for_coords`; sweeps are declared as
:class:`~repro.scenarios.spec.SweepSpec`\\ s and run with
:func:`~repro.scenarios.run.run_sweep`; the pre-scenario entry points
(``run_topology_sweep`` / ``run_single``) were removed after their one
deprecation release.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Optional


#: Environment variable scaling the simulated window length of every
#: experiment (1.0 = default; smaller values make the benchmarks faster but
#: noisier, larger values make them slower but smoother).
SCALE_ENV_VAR = "REPRO_EXPERIMENT_SCALE"

#: Floors applied when scaling a window down: below these the simulation
#: would not even reach steady state, so scaled settings clamp here.  The
#: warmup floor is comparatively high because a near-cold cache hierarchy
#: can stall a core for the entire (also scaled-down) measurement window,
#: reading as zero IPC.
MIN_WARMUP_REFERENCES = 1000
MIN_DETAILED_WARMUP_CYCLES = 200
MIN_MEASURE_CYCLES = 500


@dataclass(frozen=True)
class RunSettings:
    """Length of the warm-up and measurement windows for one run."""

    warmup_references: int = 2500
    detailed_warmup_cycles: int = 1500
    measure_cycles: int = 6000
    seed: int = 42

    @classmethod
    def from_env(cls, base: Optional["RunSettings"] = None) -> "RunSettings":
        """Apply the ``REPRO_EXPERIMENT_SCALE`` multiplier to a base setting."""
        settings = base or cls()
        scale = float(os.environ.get(SCALE_ENV_VAR, "1.0"))
        if scale <= 0:
            raise ValueError(f"{SCALE_ENV_VAR} must be positive")
        return settings.scaled(scale)

    def scaled(self, factor: float) -> "RunSettings":
        """Scale all three windows by ``factor``, floor-clamping each.

        ``factor == 1.0`` is an exact no-op, so explicitly-tiny settings
        (e.g. in tests) pass through ``from_env`` unclamped at the default
        scale.
        """
        if factor == 1.0:
            return self
        return replace(
            self,
            warmup_references=max(
                MIN_WARMUP_REFERENCES, int(self.warmup_references * factor)
            ),
            detailed_warmup_cycles=max(
                MIN_DETAILED_WARMUP_CYCLES, int(self.detailed_warmup_cycles * factor)
            ),
            measure_cycles=max(MIN_MEASURE_CYCLES, int(self.measure_cycles * factor)),
        )
