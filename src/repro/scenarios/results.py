"""Structured sweep results: tidy records instead of bespoke nested dicts.

Every executed :class:`~repro.scenarios.spec.SweepPoint` becomes one
:class:`ResultRecord` — its coordinate values plus the point's full
:class:`~repro.chip.chip.SimulationResults` — and a sweep returns a
:class:`ResultSet`, which knows how to ``filter`` by coordinates, look up
a single ``value`` and ``pivot`` into the small nested tables the figures
print.  A figure is therefore a spec plus a report over its
:class:`ResultSet`; the report reads the swept axes off the records.
Results persist in the result store (:class:`~repro.experiments.engine.ResultCache`),
not here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Sequence


@dataclass(frozen=True)
class ResultRecord:
    """One executed point: its coordinates, provenance and full results.

    :meth:`metric` reads any numeric attribute of ``result``
    (``throughput_ipc``, ``snoop_rate``, ...); the power analysis and the
    co-location study read ``network_activity`` / ``per_tenant_latency``
    off ``result`` directly.
    """

    coords: Dict[str, object]
    point_hash: str
    result: "SimulationResults" = field(repr=False)  # noqa: F821 — lazy import

    def metric(self, name: str) -> float:
        value = getattr(self.result, name, None)
        if not isinstance(value, (int, float)):
            raise KeyError(f"unknown metric {name!r}")
        return value

    def matches(self, selection: Mapping) -> bool:
        return all(self.coords.get(key) == value for key, value in selection.items())


def record_for(sweep_point, result) -> ResultRecord:
    """Build the :class:`ResultRecord` for one executed sweep point."""
    return ResultRecord(
        coords=dict(sweep_point.coords),
        point_hash=sweep_point.content_hash(),
        result=result,
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
        self, index: str, columns: str, metric: str = "throughput_ipc"
    ) -> Dict[object, Dict[object, float]]:
        """Nested ``{index value: {column value: metric}}`` table.

        Raises ``ValueError`` if two records fall into one cell, naming
        the coordinates that vary inside it; ``filter`` can pin them.
        """
        table: Dict[object, Dict[object, float]] = {}
        for record in self.records:
            row = record.coords.get(index)
            column = record.coords.get(columns)
            cells = table.setdefault(row, {})
            if column in cells:
                shared = [
                    other.coords
                    for other in self.records
                    if other.coords.get(index) == row and other.coords.get(columns) == column
                ]
                names = dict.fromkeys(name for point in shared for name in point)
                varying = [n for n in names if any(c.get(n) != shared[0].get(n) for c in shared)]
                raise ValueError(
                    f"{len(shared)} points share the cell {index}={row!r}, "
                    f"{columns}={column!r}; they differ in {', '.join(varying) or 'nothing'}: "
                    "pin each with filter(NAME=VALUE) / --where NAME=VALUE"
                )
            cells[column] = record.metric(metric)
        return table
