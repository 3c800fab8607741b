"""NoC area and energy (Figure 8, Figure 9 and Section 6.4).

The models are analytic, in the spirit of ORION 2.0 (routers) and CACTI
6.5 (wires) that the paper uses (Section 5.2), with constants calibrated
against the paper's published figures: a 5-port 3-VC mesh NoC around
3.5 mm², a 15-port flattened butterfly around 23 mm², and NOC-Out around
2.5 mm² at 32 nm with 128-bit links.

* Links are semi-global wires with power/delay-optimised repeaters. Wires
  are routed over logic and SRAM, so only the repeaters occupy silicon;
  link energy is 50 fJ/bit/mm (:class:`TechnologyConfig`).
* Buffers are flip-flops in the mesh and NOC-Out (few buffers per port)
  and SRAM in the flattened butterfly (large buffer configurations).
* Crossbar area grows with the square of ports x flit width.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.config.noc import topology_key
from repro.config.system import SystemConfig
from repro.config.technology import TechnologyConfig
from repro.noc.topology import describe_topology

#: Repeater silicon area per bit and per millimetre of repeated wire, um².
REPEATER_AREA_UM2_PER_BIT_MM = 6.0

#: Buffer cell area in um² per bit.
FLIP_FLOP_AREA_UM2_PER_BIT = 2.4
SRAM_AREA_UM2_PER_BIT = 1.7

#: Crossbar area per wire crossing (port-bit x port-bit), in um².
CROSSBAR_AREA_UM2_PER_CROSSING = 0.05

#: Energy constants (picojoules) for activity-based power estimation.
BUFFER_ENERGY_PJ_PER_BIT_ACCESS = 0.00045
CROSSBAR_ENERGY_PJ_PER_BIT_PER_PORT = 0.00023
ARBITER_ENERGY_PJ_PER_FLIT = 0.02

#: The link widths :func:`link_width_for_area_budget` searches between.
MIN_LINK_WIDTH_BITS = 8
MAX_LINK_WIDTH_BITS = 512

#: The 32 nm node whose clock and link energy (50 fJ/bit/mm) power uses.
TECHNOLOGY = TechnologyConfig()


@dataclass
class AreaBreakdown:
    """NoC area split the way Figure 8 reports it."""

    links_mm2: float = 0.0
    buffers_mm2: float = 0.0
    crossbars_mm2: float = 0.0

    @property
    def total_mm2(self) -> float:
        return self.links_mm2 + self.buffers_mm2 + self.crossbars_mm2

    def as_dict(self) -> dict:
        return {
            "links_mm2": self.links_mm2,
            "buffers_mm2": self.buffers_mm2,
            "crossbars_mm2": self.crossbars_mm2,
            "total_mm2": self.total_mm2,
        }


def noc_area(config: SystemConfig) -> AreaBreakdown:
    """Area breakdown of the network configured in ``config``."""
    descriptor = describe_topology(config)
    breakdown = AreaBreakdown()
    for router in descriptor.routers:
        per_bit = (
            SRAM_AREA_UM2_PER_BIT if router.uses_sram_buffers else FLIP_FLOP_AREA_UM2_PER_BIT
        )
        breakdown.buffers_mm2 += router.count * (
            router.buffer_bits_per_router * per_bit * 1e-6
        )
        crossings = (router.ports * router.flit_width_bits) ** 2
        breakdown.crossbars_mm2 += router.count * (
            crossings * CROSSBAR_AREA_UM2_PER_CROSSING * 1e-6
        )
    for link in descriptor.links:
        breakdown.links_mm2 += link.count * (
            link.length_mm * link.width_bits * REPEATER_AREA_UM2_PER_BIT_MM * 1e-6
        )
    return breakdown


def link_width_for_area_budget(config: SystemConfig, budget_mm2: float) -> int:
    """Widest link width whose NoC area fits within ``budget_mm2`` (Figure 9).

    The paper's area-normalised study shrinks the mesh and flattened
    butterfly link width until their NoC area matches NOC-Out's 2.5 mm2.
    Area decreases monotonically with link width, so a binary search over
    integer widths suffices. A budget that even the narrowest link
    exceeds raises :class:`ValueError`.
    """
    if budget_mm2 <= 0:
        raise ValueError("budget must be positive")

    def area_at(width: int) -> float:
        return noc_area(config.with_noc(config.noc.with_link_width(width))).total_mm2

    narrowest = area_at(MIN_LINK_WIDTH_BITS)
    if narrowest > budget_mm2:
        raise ValueError(
            f"{topology_key(config.noc.topology)} does not fit a "
            f"{budget_mm2:.2f} mm2 budget: at {MIN_LINK_WIDTH_BITS}-bit links "
            f"it takes {narrowest:.2f} mm2"
        )
    low, high = MIN_LINK_WIDTH_BITS, MAX_LINK_WIDTH_BITS
    while low < high:
        mid = (low + high + 1) // 2
        if area_at(mid) <= budget_mm2:
            low = mid
        else:
            high = mid - 1
    return low


@dataclass(frozen=True)
class NocPowerReport:
    """Energy and average power of the NoC over one measurement window."""

    cycles: int
    link_energy_j: float
    buffer_energy_j: float
    crossbar_energy_j: float
    arbiter_energy_j: float

    @property
    def total_energy_j(self) -> float:
        return (
            self.link_energy_j
            + self.buffer_energy_j
            + self.crossbar_energy_j
            + self.arbiter_energy_j
        )

    @property
    def total_power_w(self) -> float:
        return self.total_energy_j / (self.cycles / (TECHNOLOGY.frequency_ghz * 1e9))


def noc_power(activity: Dict[str, float], cycles: int) -> NocPowerReport:
    """Energy/power report for one window of recorded ``activity``.

    ``activity`` is the dictionary produced by
    :meth:`repro.noc.network.Network.activity`. Link energy is
    proportional to flit-millimetres travelled, buffer energy to flit
    writes plus reads, and crossbar energy to flit traversals weighted by
    the router radix. The paper reports 1.3-1.8 W NoC power across the
    three organizations, dominated by the links.
    """
    if cycles <= 0:
        raise ValueError("cycles must be positive")
    width = activity.get("flit_width_bits", 128.0)
    link_bit_mm = activity.get("link_flit_mm", 0.0) * width
    # Buffered flits are written once and read once.
    buffer_bits = 2.0 * activity.get("buffer_flit_writes", 0.0) * int(width)
    crossbar_bits = activity.get("crossbar_flit_ports", 0.0) * int(width)
    return NocPowerReport(
        cycles=cycles,
        link_energy_j=TECHNOLOGY.link_energy_joules(link_bit_mm, 1.0),
        buffer_energy_j=buffer_bits * BUFFER_ENERGY_PJ_PER_BIT_ACCESS * 1e-12,
        crossbar_energy_j=crossbar_bits * CROSSBAR_ENERGY_PJ_PER_BIT_PER_PORT * 1e-12,
        arbiter_energy_j=(
            activity.get("flits_switched", 0.0) * ARBITER_ENERGY_PJ_PER_FLIT * 1e-12
        ),
    )
