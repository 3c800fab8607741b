"""Link (wire + repeater) area, delay and energy model (Section 5.2).

Links are semi-global wires with power/delay-optimised repeaters: 125 ps/mm
latency and 50 fJ/bit/mm on random data, of which repeaters contribute 19 %.
Wires are routed over logic/SRAM and therefore contribute no area; only the
repeaters occupy silicon.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config.technology import TechnologyConfig

#: Repeater silicon area per bit and per millimetre of repeated wire, in um^2.
#: Calibrated so that the mesh / flattened-butterfly / NOC-Out link areas
#: land at the values reported in Figure 8.
REPEATER_AREA_UM2_PER_BIT_MM = 6.0


@dataclass
class WireModel:
    """Per-link physical model derived from the technology parameters."""

    technology: TechnologyConfig = None

    def __post_init__(self) -> None:
        if self.technology is None:
            self.technology = TechnologyConfig()

    # ------------------------------------------------------------------ #
    def latency_cycles(self, length_mm: float) -> int:
        """Pipeline-register-free repeated-wire latency, in clock cycles."""
        return self.technology.wire_cycles(length_mm)

    def repeater_area_mm2(self, length_mm: float, width_bits: int) -> float:
        """Silicon area of the repeaters of one ``width_bits``-wide link."""
        if length_mm < 0 or width_bits < 0:
            raise ValueError("length and width must be non-negative")
        return length_mm * width_bits * REPEATER_AREA_UM2_PER_BIT_MM * 1e-6

    def energy_joules(self, bits: float, length_mm: float) -> float:
        """Energy to move ``bits`` of random data across ``length_mm``."""
        return self.technology.link_energy_joules(bits, length_mm)
