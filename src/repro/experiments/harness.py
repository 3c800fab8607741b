"""Shared machinery for running the paper's experiments.

:class:`RunSettings`: the warm-up and measurement windows, scalable via
``REPRO_EXPERIMENT_SCALE``.  Points are built from coordinates by
:func:`~repro.scenarios.spec.point_for_coords`; sweeps are declared as
:class:`~repro.scenarios.spec.SweepSpec`\\ s and run with
:func:`~repro.scenarios.run.run_sweep`.
"""

from __future__ import annotations

import math
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
        raw = os.environ.get(SCALE_ENV_VAR, "1.0")
        try:
            return (base or cls()).scaled(float(raw))
        except ValueError as exc:
            raise ValueError(
                f"{SCALE_ENV_VAR} must be a finite positive number, got {raw!r}"
            ) from exc

    def scaled(self, factor: float) -> "RunSettings":
        """Scale all three windows by ``factor``, floor-clamping each.

        ``factor == 1.0`` is an exact no-op, so explicitly-tiny settings
        (e.g. in tests) pass through ``from_env`` unclamped at the default
        scale.  A factor that is not finite and positive raises
        ``ValueError``.
        """
        if not (math.isfinite(factor) and factor > 0):
            raise ValueError(f"scale must be a finite positive number, got {factor!r}")
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
