"""Ablation studies for NOC-Out's design choices.

Three studies back the design decisions called out in the paper:

* **LLC banking** (Section 4.3): four cores per LLC bank performs within a
  couple of percent of one core per bank, so the LLC region can stay small.
* **Tree arbitration** (Section 4.1): static priority (network over local,
  responses over requests) versus round-robin in the reduction/dispersion
  trees.
* **Scaling extensions** (Section 7.1): concentration and express links for
  configurations beyond 64 cores.

Each study is a :class:`~repro.scenarios.spec.SweepSpec` whose axes are
NoC-override coordinates (``llc_banks_per_tile``, ``tree_arbitration``,
``tree_concentration`` x ``tree_express_links``) on the NOC-Out fabric.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.experiments.harness import RunSettings
from repro.reporting import baselines
from repro.reporting.compare import FigureReport, compare
from repro.reporting.tables import ReportTable
from repro.scenarios import ResultSet, SweepSpec

#: Banks-per-tile sweep: 8 tiles x {1, 2, 4, 8} banks = 8..64 LLC banks,
#: i.e. from 8 cores per bank down to 1 core per bank on a 64-core chip.
BANKING_SWEEP = (1, 2, 4, 8)

#: The four 128-core tree variants of the scaling study, as (label ->
#: (tree_concentration, tree_express_links)).  The spec sweeps the two
#: override axes' cross product; this mapping names the combinations.
SCALING_VARIANTS = {
    "tall trees": (1, False),
    "concentration x2": (2, False),
    "express links": (1, True),
    "concentration + express": (2, True),
}


def llc_banking_spec(
    workload_name: str = "Data Serving",
    banks_per_tile: Sequence[int] = BANKING_SWEEP,
    num_cores: int = 64,
    settings: Optional[RunSettings] = None,
) -> SweepSpec:
    return SweepSpec(
        axes={"llc_banks_per_tile": tuple(banks_per_tile)},
        settings=settings or RunSettings.from_env(),
        fixed={"workload": workload_name, "topology": "noc_out", "num_cores": num_cores},
    )


def tree_arbitration_spec(
    workload_name: str = "Data Serving",
    num_cores: int = 64,
    settings: Optional[RunSettings] = None,
) -> SweepSpec:
    return SweepSpec(
        axes={"tree_arbitration": ("static_priority", "round_robin")},
        settings=settings or RunSettings.from_env(),
        fixed={"workload": workload_name, "topology": "noc_out", "num_cores": num_cores},
    )


def scaling_spec(
    workload_name: str = "MapReduce-W",
    num_cores: int = 128,
    settings: Optional[RunSettings] = None,
) -> SweepSpec:
    return SweepSpec(
        axes={
            "tree_concentration": (1, 2),
            "tree_express_links": (False, True),
        },
        settings=settings or RunSettings.from_env(),
        fixed={"workload": workload_name, "topology": "noc_out", "num_cores": num_cores},
    )


def throughput_by(results: ResultSet, axis: str) -> Dict[object, float]:
    """NOC-Out throughput per value of the one swept ``axis``."""
    return {
        value: results.value("throughput_ipc", **{axis: value})
        for value in results.axis_values(axis)
    }


def scaling_throughput(results: ResultSet) -> Dict[str, float]:
    """128-core NOC-Out throughput per named tree variant."""
    return {
        label: results.value(
            "throughput_ipc",
            tree_concentration=concentration,
            tree_express_links=express,
        )
        for label, (concentration, express) in SCALING_VARIANTS.items()
    }


def render_ablation(results: Dict, title: str, key_label: str) -> ReportTable:
    """Generic two-column rendition of an ablation sweep."""
    table = ReportTable([key_label, "Throughput (IPC)", "Relative"], title=title)
    baseline = None
    for key, value in results.items():
        if baseline is None:
            baseline = value
        table.add_row(str(key), value, value / baseline if baseline else 0.0)
    return table


def _ratio(numerator: float, denominator: float) -> Optional[float]:
    return numerator / denominator if denominator else None


def _workload(results: ResultSet) -> str:
    (workload,) = results.axis_values("workload")
    return workload


def llc_banking_report(results: ResultSet) -> FigureReport:
    """Paper-vs-measured report for the LLC-banking ablation (Section 4.3).

    The paper's claim is a ratio: four cores per LLC bank (two banks per
    tile on the 64-core chip) within a couple of percent of one core per
    bank (eight banks per tile).
    """
    throughput = throughput_by(results, "llc_banks_per_tile")
    measured = {}
    ratio = _ratio(throughput.get(2, 0.0), throughput.get(8, 0.0))
    if ratio is not None:
        measured["4 cores/bank vs 1 core/bank"] = ratio
    return FigureReport(
        comparison=compare(baselines.ABLATION_BANKING, measured),
        measured_table=render_ablation(
            throughput, "Ablation: LLC banks per tile", "banks/tile"
        ).render(),
        notes=f"Measured on {_workload(results)}.",
    )


def tree_arbitration_report(results: ResultSet) -> FigureReport:
    """Paper-vs-measured report for the tree-arbitration ablation (Section 4.1)."""
    throughput = throughput_by(results, "tree_arbitration")
    measured = {}
    ratio = _ratio(
        throughput.get("round_robin", 0.0), throughput.get("static_priority", 0.0)
    )
    if ratio is not None:
        measured["round_robin vs static_priority"] = ratio
    return FigureReport(
        comparison=compare(baselines.ABLATION_ARBITRATION, measured),
        measured_table=render_ablation(
            throughput, "Ablation: tree arbitration policy", "policy"
        ).render(),
        notes=f"Measured on {_workload(results)}.",
    )


def scaling_report(results: ResultSet) -> FigureReport:
    """Paper-vs-measured report for the 128-core scaling ablation (Section 7.1)."""
    throughput = scaling_throughput(results)
    tall = throughput.get("tall trees", 0.0)
    measured = {}
    for label in ("concentration x2", "express links", "concentration + express"):
        ratio = _ratio(throughput.get(label, 0.0), tall)
        if ratio is not None:
            measured[f"{label} vs tall trees"] = ratio
    (num_cores,) = results.axis_values("num_cores")
    return FigureReport(
        comparison=compare(baselines.ABLATION_SCALING, measured),
        measured_table=render_ablation(
            throughput, "Ablation: 128-core tree scaling", "variant"
        ).render(),
        notes=f"Measured on {_workload(results)} at {num_cores} cores.",
    )
