"""Figure 8: NoC area breakdown (links, buffers, crossbars).

The paper reports ~3.5 mm2 for the mesh, ~23 mm2 for the flattened
butterfly (~7x the mesh) and ~2.5 mm2 for NOC-Out (28 % below the mesh and
over 9x below the flattened butterfly).

Unlike the other figures this one is purely analytic — the area model reads
static topology descriptors, no simulation runs — so there is no
:class:`~repro.scenarios.spec.SweepSpec` to declare and nothing to cache;
the configs are built straight from the fabric table.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.config.noc import Topology
from repro.power.area_model import AreaBreakdown, NocAreaModel
from repro.reporting import baselines
from repro.reporting.compare import FigureReport, compare
from repro.reporting.tables import ReportTable
from repro.scenarios import build_system

#: Total NoC areas reported by the paper (mm2), digitized in
#: :mod:`repro.reporting.baselines`.
PAPER_REFERENCE = dict(baselines.FIG8.values)

TOPOLOGIES = (Topology.MESH, Topology.FLATTENED_BUTTERFLY, Topology.NOC_OUT)


def run_figure8(
    num_cores: int = 64,
    link_width_bits: int = 128,
    area_model: Optional[NocAreaModel] = None,
) -> Dict[str, AreaBreakdown]:
    """Area breakdown for the three evaluated NoC organizations."""
    model = area_model or NocAreaModel()
    breakdowns: Dict[str, AreaBreakdown] = {}
    for topology in TOPOLOGIES:
        config = build_system(
            topology.value, num_cores=num_cores, link_width_bits=link_width_bits
        )
        breakdowns[topology.value] = model.breakdown(config)
    return breakdowns


def figure8_report(
    num_cores: int = 64,
    link_width_bits: int = 128,
    area_model: Optional[NocAreaModel] = None,
) -> FigureReport:
    """Paper-vs-measured report for Figure 8 (total NoC area per fabric).

    Purely analytic — the area model reads static topology descriptors, so
    this report never simulates and needs no cache.
    """
    breakdowns = run_figure8(num_cores, link_width_bits, area_model)
    measured = {name: breakdown.total_mm2 for name, breakdown in breakdowns.items()}
    return FigureReport(
        comparison=compare(baselines.FIG8, measured),
        measured_table=render_figure8(breakdowns).render(),
    )


def render_figure8(breakdowns: Dict[str, AreaBreakdown]) -> ReportTable:
    """Text rendition of Figure 8."""
    table = ReportTable(
        ["Organization", "Links (mm2)", "Buffers (mm2)", "Crossbars (mm2)", "Total (mm2)", "Paper total"],
        title="Figure 8: NoC area breakdown",
    )
    for name, breakdown in breakdowns.items():
        table.add_row(
            name,
            breakdown.links_mm2,
            breakdown.buffers_mm2,
            breakdown.crossbars_mm2,
            breakdown.total_mm2,
            PAPER_REFERENCE.get(name, float("nan")),
        )
    return table
