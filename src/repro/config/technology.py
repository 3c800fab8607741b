"""32 nm technology parameters used throughout the paper (Section 5.2)."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TechnologyConfig:
    """Process/technology constants for the 32 nm node targeted by the paper.

    The numbers come straight from Section 5.2:

    * 2 GHz at 0.9 V,
    * semi-global wires at 200 nm pitch with power/delay optimised repeaters
      yielding 125 ps/mm and 50 fJ/bit/mm (19 % of which is repeaters),
    * 3.2 mm2 and ~500 mW per MB of LLC (CACTI 6.5),
    * 2.9 mm2 and 1.05 W per ARM Cortex-A15-like core.
    """

    node_nm: int = 32
    voltage_v: float = 0.9
    frequency_ghz: float = 2.0

    # Wires / links
    wire_latency_ps_per_mm: float = 125.0
    wire_energy_fj_per_bit_mm: float = 50.0
    repeater_energy_fraction: float = 0.19
    wire_pitch_nm: float = 200.0

    # Cache macro (per MB)
    cache_area_mm2_per_mb: float = 3.2
    cache_power_w_per_mb: float = 0.5

    # Core (Cortex-A15-like, scaled to 32 nm)
    core_area_mm2: float = 2.9
    core_power_w: float = 1.05

    @property
    def cycle_time_ps(self) -> float:
        """Clock period in picoseconds."""
        return 1000.0 / self.frequency_ghz

    def wire_cycles(self, distance_mm: float) -> int:
        """Clock cycles needed to traverse ``distance_mm`` of repeated wire."""
        if distance_mm <= 0:
            return 0
        latency_ps = distance_mm * self.wire_latency_ps_per_mm
        cycles = latency_ps / self.cycle_time_ps
        return max(1, int(round(cycles + 0.49)))

    def link_energy_joules(self, bits: float, distance_mm: float) -> float:
        """Energy to move ``bits`` across ``distance_mm`` of link."""
        return bits * distance_mm * self.wire_energy_fj_per_bit_mm * 1e-15
