"""Co-location sweep: placement x arrival process x load, per-tenant tails.

The scenarios the paper never measured (its sweeps are homogeneous): two
scale-out workloads sharing one 64-core mesh under a
:class:`~repro.tenancy.WorkloadMap`, with each tenant injecting open-loop
probe traffic shaped by an arrival process.  The figures of merit are
*per-tenant* delivery-latency tails (p50/p95/p99) and the interference
ratio — how much a tenant's p99 inflates when a neighbour moves onto the
chip, relative to running the same offered load homogeneously.

Like :mod:`repro.experiments.scale_out`, the baseline here is a
qualitative model-expectation tripwire (there is no paper chart to
digitize), and the report is deliberately *not* given a report hook in
:data:`repro.reporting.figures.FIGURES`: the default report must stay
resolvable from the committed warm cache, and this sweep's points are not
in it.  Fill it explicitly with ``run_sweep(colocation_spec())`` (or
``figure_spec("colocation")`` from :mod:`repro.reporting.figures`)
against the store; :func:`colocation_report` reads the per-tenant tails
off the records' results, and ``python -m repro.reporting pivot
colocation ...`` pivots their scalar metrics.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence

from repro.experiments.harness import RunSettings
from repro.reporting.baselines import Baseline
from repro.reporting.compare import FigureReport, compare
from repro.reporting.tables import ReportTable
from repro.scenarios import ResultSet, SweepSpec

#: The three built-in placements, homogeneous first (the baseline the
#: interference ratios normalise to).
PLACEMENTS = ("homogeneous", "split_half", "checkerboard")
#: Arrival processes swept (same mean load, different temporal shape).
ARRIVALS = ("poisson", "bursty", "diurnal")
#: Per-core probe injection rates.  The top value pushes the 64-core mesh
#: toward saturation, where placement differences show up in the tails.
LOADS = (0.02, 0.06, 0.12)
#: The co-located pair: a latency-sensitive victim (Data Serving is the
#: paper's most latency-bound workload) beside a batch antagonist.
TENANTS = ("Data Serving", "MapReduce-C")
#: Chip swept: the paper's 64-core mesh baseline.
NUM_CORES = 64

#: Model-expectation baseline, calibrated at full scale: the victim
#: (Data Serving) is the *heavier* workload, so at the mid load a chip
#: shared with the lighter MapReduce-C antagonist relieves its p99 versus
#: a homogeneous chip of pure victim (ratio < 1), and checkerboard
#: interleaving — which shares every mesh link with the antagonist —
#: relieves less than split_half.  Bands are wide: this guards the
#: *direction*, not a digitized value, and only at the default
#: full-scale windows (reduced ``REPRO_EXPERIMENT_SCALE`` runs report the
#: comparison informationally).
COLOCATION_BASELINE = Baseline(
    figure="colocation",
    title="Co-location: victim p99 shift under placement",
    quantity=f"victim p99 latency relative to homogeneous (bursty @ {LOADS[1]:g})",
    unit="x",
    values={
        f"split_half p99 ratio (bursty @ {LOADS[1]:g})": 0.5,
        f"checkerboard p99 ratio (bursty @ {LOADS[1]:g})": 0.65,
    },
    rel_tolerance=0.45,
    source="qualitative (extension beyond the paper; no published data)",
    notes=(
        "The paper measures only homogeneous chips; these are the model's "
        "own expected interference directions, tracked so the tenancy "
        "path cannot silently regress.  At the top load the mesh "
        "saturates and all placements converge near parity."
    ),
)


def colocation_spec(
    placements: Sequence[str] = PLACEMENTS,
    arrivals: Sequence[str] = ARRIVALS,
    loads: Sequence[float] = LOADS,
    tenants: Iterable[str] = TENANTS,
    num_cores: int = NUM_CORES,
    matrix: str = "uniform",
    settings: Optional[RunSettings] = None,
) -> SweepSpec:
    """The co-location sweep as declarative data.

    Scalar coordinates only (``placement``/``arrival``/``load`` axes,
    ``tenants``/``matrix`` fixed): each point builds its
    :class:`~repro.tenancy.WorkloadMap` in
    :func:`~repro.scenarios.spec.point_for_coords`, so results pivot by
    plain scalars and the spec JSON stays trivially shippable.
    """
    return SweepSpec(
        axes={
            "placement": tuple(placements),
            "arrival": tuple(arrivals),
            "load": tuple(loads),
        },
        fixed={
            "tenants": tuple(tenants),
            "matrix": matrix,
            "topology": "mesh",
            "num_cores": num_cores,
        },
        settings=settings or RunSettings.from_env(),
    )


def _point_label(arrival: object, load: object) -> str:
    return f"{arrival}@{load:g}"


def colocation_pivot(
    results: ResultSet,
) -> Dict[object, Dict[str, Dict[str, float]]]:
    """Per-placement, per-tenant p99 tables: ``{placement: {tenant: {"bursty@0.12": p99}}}``."""
    table: Dict[object, Dict[str, Dict[str, float]]] = {}
    for record in results:
        placement = record.coords.get("placement")
        point = _point_label(record.coords.get("arrival"), record.coords.get("load"))
        for tenant, summary in record.result.per_tenant_latency.items():
            if "p99" in summary:  # tenants without samples have no tail
                cells = table.setdefault(placement, {}).setdefault(tenant, {})
                cells[point] = summary["p99"]
    return table


def interference_pivot(results: ResultSet) -> Dict[object, Dict[str, float]]:
    """Victim p99 inflation per placement: ``{placement: {"bursty@0.12": ratio}}``.

    The victim is the first swept tenant (present under every placement,
    including homogeneous); each cell divides its p99 under the placement
    by its p99 under ``homogeneous`` at the same arrival process and load.
    Points without a homogeneous reference (or a zero one) are omitted.
    """
    pivot = colocation_pivot(results)
    victims = {
        tenant
        for by_tenant in pivot.values()
        for tenant in by_tenant
    }
    baseline_tenants = pivot.get("homogeneous", {})
    if not baseline_tenants:
        return {}
    victim = next(iter(baseline_tenants))
    if victim not in victims:
        return {}
    baseline = baseline_tenants[victim]
    table: Dict[object, Dict[str, float]] = {}
    for placement, by_tenant in pivot.items():
        if placement == "homogeneous":
            continue
        for point, p99 in by_tenant.get(victim, {}).items():
            reference = baseline.get(point)
            if reference:
                table.setdefault(placement, {})[point] = p99 / reference
    return table


def render_colocation(results: ResultSet) -> ReportTable:
    """Text rendition: one row per placement x tenant, one column per point."""
    points = [
        _point_label(arrival, load)
        for arrival in results.axis_values("arrival")
        for load in results.axis_values("load")
    ]
    table = ReportTable(
        ["Placement / tenant"] + points,
        title="Co-location: per-tenant p99 network latency (cycles)",
    )
    for placement, by_tenant in colocation_pivot(results).items():
        for tenant, by_point in by_tenant.items():
            table.add_row(
                f"{placement} ({tenant})",
                *[by_point.get(point, 0.0) for point in points],
            )
    return table


def colocation_report(results: ResultSet) -> FigureReport:
    """Report hook: per-tenant tails plus the qualitative interference check.

    The placement ratios are compared only when the sweep covers
    ``homogeneous``, bursty arrivals and the default mid load; a reduced
    sweep still renders its pivot and leaves the ratios unmeasured.
    """
    placements = tuple(results.axis_values("placement"))
    arrivals = tuple(results.axis_values("arrival"))
    loads = tuple(results.axis_values("load"))
    mid_point = _point_label("bursty", LOADS[1])
    measured: Dict[str, float] = {}
    for placement, by_point in interference_pivot(results).items():
        if mid_point in by_point:
            key = f"{placement} p99 ratio (bursty @ {LOADS[1]:g})"
            measured[key] = by_point[mid_point]
    notes = "Extension beyond the paper: homogeneous chips only in the original."
    if placements != PLACEMENTS or arrivals != ARRIVALS or loads != LOADS:
        notes += (
            f" Reduced sweep: placements {list(placements)}, arrivals "
            f"{list(arrivals)}, loads {list(loads)}."
        )
    return FigureReport(
        comparison=compare(COLOCATION_BASELINE, measured),
        measured_table=render_colocation(results).render(),
        notes=notes,
    )
