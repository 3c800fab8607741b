"""Structured sweep results: tidy records instead of bespoke nested dicts.

Every executed :class:`~repro.scenarios.spec.SweepPoint` becomes one
:class:`ResultRecord` — its coordinate values plus a flat dictionary of
scalar metrics — and a sweep returns a :class:`ResultSet`, which knows how
to ``filter`` by coordinates, look up a single ``value`` and ``pivot``
into the small nested tables the figures print.  The figure modules are
therefore just a spec plus a few pivots; no more per-figure
``{workload: {label: {cores: value}}}`` shapes invented from scratch.
Results persist in the columnar store (:mod:`repro.store`), not here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence

#: Scalar metrics copied off :class:`~repro.chip.chip.SimulationResults`
#: into every record (attribute names; properties included).
METRIC_NAMES = (
    "throughput_ipc",
    "per_core_ipc",
    "cycles",
    "total_instructions",
    "messages_delivered",
    "network_mean_latency",
    "network_mean_hops",
    "llc_accesses",
    "llc_hit_rate",
    "snoop_rate",
    "l1i_mpki",
    "memory_reads",
)


@dataclass(frozen=True)
class ResultRecord:
    """One executed point: its coordinates, scalar metrics, and provenance.

    ``result`` retains the full :class:`SimulationResults` when the sweep
    was run with ``keep_results=True`` (the default) — the power analysis
    needs the per-component ``network_activity`` counters and the
    co-location study the ``per_tenant_latency`` summaries, which are not
    scalar metrics.
    """

    coords: Dict[str, object]
    metrics: Dict[str, float]
    point_hash: str
    result: Optional["SimulationResults"] = field(  # noqa: F821 — lazy import
        default=None, compare=False, repr=False
    )

    def metric(self, name: str) -> float:
        try:
            return self.metrics[name]
        except KeyError:
            raise KeyError(
                f"unknown metric {name!r}; available: {sorted(self.metrics)}"
            ) from None

    def matches(self, selection: Mapping) -> bool:
        return all(self.coords.get(key) == value for key, value in selection.items())


def record_for(sweep_point, result, keep_result: bool = True) -> ResultRecord:
    """Build the :class:`ResultRecord` for one executed sweep point."""
    return ResultRecord(
        coords=dict(sweep_point.coords),
        metrics={name: getattr(result, name) for name in METRIC_NAMES},
        point_hash=sweep_point.content_hash(),
        result=result if keep_result else None,
    )


class ResultSet(Sequence[ResultRecord]):
    """An ordered collection of :class:`ResultRecord`\\ s with query helpers.

    Supports the sequence protocol (``len`` / indexing / iteration; slices
    return a new :class:`ResultSet`) plus ``filter(**coords)`` /
    ``value(metric, **coords)`` / ``axis_values(name)`` /
    ``pivot(index, columns, metric)`` — queries over the records'
    coordinates.

    Example::

        results = run_sweep(spec)
        results.value("throughput_ipc", workload="Web Search", topology="mesh")
        results.pivot("workload", "topology", metric="throughput_ipc")
    """

    def __init__(self, records: Sequence[ResultRecord]) -> None:
        self.records: List[ResultRecord] = list(records)

    # -- sequence protocol ---------------------------------------------- #
    def __len__(self) -> int:
        return len(self.records)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return ResultSet(self.records[index])
        return self.records[index]

    def __iter__(self) -> Iterator[ResultRecord]:
        return iter(self.records)

    def __repr__(self) -> str:
        return f"ResultSet({len(self.records)} records)"

    # -- queries -------------------------------------------------------- #
    def filter(self, **selection) -> "ResultSet":
        """Records whose coordinates match every ``name=value`` given."""
        return ResultSet(
            [record for record in self.records if record.matches(selection)]
        )

    def value(self, metric: str, **selection) -> float:
        """The single ``metric`` value selected by the coordinates given."""
        matches = [record for record in self.records if record.matches(selection)]
        if len(matches) != 1:
            raise LookupError(
                f"selection {selection!r} matched {len(matches)} records, expected 1"
            )
        return matches[0].metric(metric)

    def axis_values(self, name: str) -> List[object]:
        """Distinct values of coordinate ``name``, in first-seen order."""
        seen: Dict[object, None] = {}
        for record in self.records:
            if name in record.coords:
                seen.setdefault(record.coords[name])
        return list(seen)

    def pivot(
        self,
        index: str,
        columns: str,
        metric: str = "throughput_ipc",
        transform: Optional[Callable[[float], float]] = None,
    ) -> Dict[object, Dict[object, float]]:
        """Nested ``{index value: {column value: metric}}`` table.

        This is the shape the legacy per-figure dicts used; ``transform``
        (e.g. a normalisation) is applied to each cell if given.
        """
        table: Dict[object, Dict[object, float]] = {}
        for record in self.records:
            row = record.coords.get(index)
            column = record.coords.get(columns)
            value = record.metric(metric)
            table.setdefault(row, {})[column] = (
                transform(value) if transform is not None else value
            )
        return table
