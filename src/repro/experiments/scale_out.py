"""Scale-out sweep: mesh vs. cmesh vs. NOC-Out vs. chiplet at 64-2048 cores.

The paper evaluates 64-core chips and argues (Sections 2 and 7.1) that the
fabric's cost grows with core count — meshes accumulate router traversals,
while concentrated and tree-based organizations keep hop counts in check.
This sweep extends that argument past the paper's evaluated sizes: the
four scale-out-relevant fabrics at 64-2048 cores.  The headline pivot is
the flat mesh vs. the chiplet/NoI fabric at 1024 and 2048 cores, exactly
where a monolithic mesh's diameter (and die) falls over and a two-level
organisation becomes the realistic design point.

There is no published chart to digitize (the paper stops at 64 cores with
a 128-core discussion), so :data:`SCALE_OUT_BASELINE` encodes the *model's
expected fabric ordering at scale* as a qualitative baseline with generous
bands — a regression tripwire, not a reproduction target.  It is therefore
deliberately not part of :data:`repro.reporting.baselines.BASELINES`: the
default ``python -m repro.reporting`` run must stay resolvable from the
committed warm cache, and this sweep's points are not in it.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence

from repro.config import presets
from repro.experiments.harness import RunSettings
from repro.reporting.baselines import Baseline
from repro.reporting.compare import FigureReport, compare
from repro.reporting.tables import ReportTable
from repro.scenarios import ResultSet, SweepSpec, run_sweep

#: Core counts swept (the paper's 64 plus the scale-out sizes up to the
#: chiplet-era 1024/2048 points).
CORE_COUNTS = (64, 128, 256, 512, 1024, 2048)
#: The fabrics compared: the baseline mesh, the concentrated mesh, the
#: paper's NOC-Out, and the chiplet/NoI fabric (fabric-table names).
FABRICS = ("mesh", "cmesh", "noc_out", "chiplet")
#: Workloads swept by default (the Figure 1 pair: one latency-bound, one
#: batch workload).
WORKLOADS = tuple(presets.FIGURE1_WORKLOADS)

#: ``(fabric, core count)`` points whose throughput-vs-mesh ratio the
#: qualitative baseline tracks.
RATIO_POINTS = (
    ("cmesh", 512),
    ("noc_out", 512),
    ("chiplet", 1024),
    ("chiplet", 2048),
)

#: Model-expectation baseline (no paper data exists past 64 cores): at 512
#: cores NOC-Out should lead clearly and the concentrated mesh should sit
#: between NOC-Out and the mesh; the chiplet fabric pays its die-crossing
#: and bisection cost at 1024 cores (slightly behind the flat mesh) and
#: crosses over to parity-or-better by 2048 cores, where the monolithic
#: mesh's diameter dominates.  Bands are wide — this guards the
#: *ordering*, not a digitized value.
SCALE_OUT_BASELINE = Baseline(
    figure="scale_out",
    title="Scale-out: fabric comparison at 64-2048 cores",
    quantity="throughput relative to the mesh at the same core count",
    unit="x",
    values={
        "cmesh vs mesh @ 512 cores": 1.5,
        "noc_out vs mesh @ 512 cores": 2.0,
        "chiplet vs mesh @ 1024 cores": 0.85,
        "chiplet vs mesh @ 2048 cores": 1.0,
    },
    rel_tolerance=0.45,
    source="qualitative (Sections 2, 7.1; extension beyond the paper)",
    notes=(
        "The paper charts nothing past 64 cores; these are the model's own "
        "expected fabric orderings at scale, tracked so the scale-out "
        "path cannot silently regress."
    ),
)


def scale_out_spec(
    workload_names: Optional[Iterable[str]] = None,
    core_counts: Sequence[int] = CORE_COUNTS,
    fabrics: Sequence[str] = FABRICS,
    settings: Optional[RunSettings] = None,
) -> SweepSpec:
    """The scale-out sweep as declarative data (workload x fabric x cores)."""
    names = tuple(workload_names) if workload_names is not None else WORKLOADS
    return SweepSpec(
        axes={
            "workload": names,
            "topology": tuple(fabrics),
            "num_cores": tuple(core_counts),
        },
        settings=settings or RunSettings.from_env(),
    )


def run_scale_out(
    workload_names: Optional[Iterable[str]] = None,
    core_counts: Sequence[int] = CORE_COUNTS,
    fabrics: Sequence[str] = FABRICS,
    settings: Optional[RunSettings] = None,
    jobs: Optional[int] = None,
    executor=None,
) -> ResultSet:
    """Run (or cache-resolve) the scale-out sweep and return its records."""
    spec = scale_out_spec(workload_names, core_counts, fabrics, settings)
    return run_sweep(spec, jobs=jobs, executor=executor, keep_results=False)


def scale_out_pivot(results: ResultSet) -> Dict[str, Dict[object, Dict[object, float]]]:
    """Per-workload ``{fabric: {core count: throughput}}`` pivot tables."""
    return {
        name: results.filter(workload=name).pivot(
            "topology", "num_cores", metric="throughput_ipc"
        )
        for name in results.axis_values("workload")
    }


def render_scale_out(results: ResultSet) -> ReportTable:
    """Text rendition: one row per workload x fabric, one column per size."""
    core_counts = results.axis_values("num_cores")
    table = ReportTable(
        ["Workload / fabric"] + [f"{count} cores" for count in core_counts],
        title="Scale-out: system throughput (IPC) by fabric and core count",
    )
    for name, by_fabric in scale_out_pivot(results).items():
        for fabric, by_count in by_fabric.items():
            table.add_row(
                f"{name} ({fabric})",
                *[by_count.get(count, 0.0) for count in core_counts],
            )
    return table


def scale_out_report(
    workload_names: Optional[Iterable[str]] = None,
    core_counts: Sequence[int] = CORE_COUNTS,
    fabrics: Sequence[str] = FABRICS,
    settings: Optional[RunSettings] = None,
    jobs: Optional[int] = None,
    executor=None,
) -> FigureReport:
    """Report hook: measured pivot plus the qualitative ordering check.

    Each :data:`RATIO_POINTS` ratio is compared only when its core count,
    the mesh, and the fabric in question were all swept (averaged over the
    swept workloads); a reduced sweep still renders its pivot and leaves
    the missing ratios unmeasured.
    """
    core_counts = tuple(core_counts)
    fabrics = tuple(fabrics)
    results = run_scale_out(
        workload_names, core_counts, fabrics, settings, jobs=jobs, executor=executor
    )
    measured: Dict[str, float] = {}
    for fabric, count in RATIO_POINTS:
        if fabric not in fabrics or count not in core_counts or "mesh" not in fabrics:
            continue
        ratios = []
        for name in results.axis_values("workload"):
            mesh = results.value(
                "throughput_ipc", workload=name, topology="mesh", num_cores=count
            )
            other = results.value(
                "throughput_ipc", workload=name, topology=fabric, num_cores=count
            )
            if mesh:
                ratios.append(other / mesh)
        if ratios:
            measured[f"{fabric} vs mesh @ {count} cores"] = sum(ratios) / len(ratios)
    notes = "Extension beyond the paper: no published data past 64 cores."
    if core_counts != CORE_COUNTS or set(fabrics) != set(FABRICS):
        notes += (
            f" Reduced sweep: core counts {sorted(core_counts)}, "
            f"fabrics {list(fabrics)}."
        )
    return FigureReport(
        comparison=compare(SCALE_OUT_BASELINE, measured),
        measured_table=render_scale_out(results).render(),
        notes=notes,
    )
