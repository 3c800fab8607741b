"""Declarative sweep descriptions.

A :class:`SweepSpec` is *data*: named axes (each a tuple of values), the
base :class:`~repro.experiments.harness.RunSettings`, and fixed coordinate
overrides shared by every point.  Expanding a spec yields
:class:`SweepPoint`\\ s — flat coordinate dictionaries paired with the
:class:`~repro.experiments.engine.ExperimentPoint` they describe — via the
same content-hashed configs the engine has always used, so a spec-driven
sweep hits exactly the same cache keys as the hand-rolled loops it
replaces.

Coordinates
-----------
Recognised coordinate names (whether used as an axis or in ``fixed``):

``workload``
    A workload preset name (a key of ``repro.config.presets.WORKLOADS``).
``topology``
    A fabric name (default ``"mesh"``, a key of
    ``repro.fabrics.FABRICS``).
``num_cores`` / ``link_width_bits`` / ``seed``
    System parameters (defaults 64 / 128 / the settings' seed).
``workload_map``
    A :class:`~repro.tenancy.WorkloadMap` (or its ``to_dict()`` form —
    the ``__kind__`` tag distinguishes it from zipped-axis mappings),
    attached to the config verbatim.  When present, ``workload`` may be
    omitted; it defaults to the map's first tenant.
``placement`` (+ ``tenants``, ``arrival``, ``load``, ``matrix``)
    Scalar tenancy coordinates: ``placement`` names a row of
    ``PLACEMENTS``, ``tenants`` is the tuple of tenant workload names, and
    ``arrival``/``load``/``matrix`` shape every tenant's open-loop
    traffic (defaults ``poisson``/``0.0``/``uniform``).  The point builds
    the :class:`WorkloadMap` itself — this keeps co-location sweeps
    pivotable by plain scalars.  Mutually exclusive with ``workload_map``.
anything else
    Must be a :class:`~repro.config.noc.NocConfig` field; applied as a NoC
    override (this is how the ablations sweep ``llc_banks_per_tile``,
    ``tree_arbitration``, ``tree_concentration``...).

An axis *value* may also be a mapping, in which case it contributes several
coordinates at once ("zipped" axes).  Figure 9 uses this for fabrics whose
link width depends on the topology::

    SweepSpec(axes={
        "workload": names,
        "fabric": ({"topology": "mesh", "link_width_bits": 55}, ...),
    }, settings=settings)

Sharding
--------
``spec.shard(i, n)`` returns a spec whose expansion keeps only the points
with ``content_hash % n == i``.  The hash is stable across processes and
machines, so ``n`` machines can each run one shard against one shared
store directory, or against private stores merged afterwards by copying
one store's ``results/*.json`` into the other; every point of the full
spec lands in exactly one shard.

Serialisation
-------------
``spec.to_json()`` / ``SweepSpec.from_json()`` round-trip the whole
description (axes, settings, fixed coordinates, shard selection), so a
sweep can be shipped to another machine as a small JSON document.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field, fields, replace
from typing import Dict, List, Mapping, Tuple

from repro.config.noc import NocConfig

#: Coordinate names consumed directly by the system builder; everything
#: else must name a NocConfig field.
_SYSTEM_COORDS = (
    "workload",
    "topology",
    "num_cores",
    "link_width_bits",
    "seed",
    "workload_map",
    "placement",
    "tenants",
    "arrival",
    "load",
    "matrix",
)
_NOC_FIELDS = frozenset(f.name for f in fields(NocConfig))

_SPEC_SCHEMA = 1


class FrozenCoords(Mapping):
    """Immutable, hashable mapping used for zipped-axis values.

    Pairs are stored sorted by key so equal mappings hash equally, which
    keeps a :class:`SweepSpec` containing zipped axes hashable (the
    dataclass is frozen, so ``hash(spec)`` must work).
    """

    __slots__ = ("_items",)

    def __init__(self, items) -> None:
        if isinstance(items, Mapping):
            items = items.items()
        self._items = tuple(
            sorted((str(key), _freeze_value(value)) for key, value in items)
        )

    def __getitem__(self, key):
        for name, value in self._items:
            if name == key:
                return value
        raise KeyError(key)

    def __iter__(self):
        return iter(name for name, _ in self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __hash__(self) -> int:
        return hash(self._items)

    def __eq__(self, other) -> bool:
        if isinstance(other, Mapping):
            return dict(self) == dict(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"FrozenCoords({dict(self)!r})"


def _freeze_value(value):
    """Normalise one axis value to an immutable, hashable form.

    Mappings normally become :class:`FrozenCoords` (zipped coordinates);
    the ``__kind__`` tag written by ``WorkloadMap.to_dict()`` revives a
    workload map instead, so map-valued axes survive JSON round-trips.
    """
    if isinstance(value, Mapping):
        if value.get("__kind__") == "workload_map":
            from repro.tenancy.placement import WorkloadMap

            return WorkloadMap.from_dict(value)
        return FrozenCoords(value)
    if isinstance(value, (list, tuple)):
        return tuple(_freeze_value(item) for item in value)
    return value


def _json_value(value):
    """Undo :func:`_freeze_value` for JSON serialisation."""
    if getattr(value, "is_workload_map", False):
        return value.to_dict()
    if isinstance(value, Mapping):
        return {key: _json_value(item) for key, item in value.items()}
    if isinstance(value, tuple):
        return [_json_value(item) for item in value]
    return value


def _as_pairs(data, what: str) -> Tuple[Tuple[str, object], ...]:
    items = data.items() if isinstance(data, Mapping) else data
    return tuple((str(key), _freeze_value(value)) for key, value in items)


@dataclass(frozen=True)
class SweepPoint:
    """One expanded point: flat coordinates plus the engine point they build."""

    coords: Dict[str, object]
    point: "ExperimentPoint"  # noqa: F821 — imported lazily (see module docstring)

    def content_hash(self) -> str:
        return self.point.content_hash()


@dataclass(frozen=True)
class SweepSpec:
    """A declarative sweep: axes x fixed overrides, under one base settings."""

    axes: Tuple[Tuple[str, Tuple[object, ...]], ...]
    settings: "RunSettings"  # noqa: F821 — imported lazily
    fixed: Tuple[Tuple[str, object], ...] = field(default=())
    shard_index: int = 0
    shard_count: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "axes",
            tuple((name, tuple(_freeze_value(v) for v in values))
                  for name, values in _as_pairs(self.axes, "axes")),
        )
        object.__setattr__(self, "fixed", _as_pairs(self.fixed, "fixed"))
        if not self.axes:
            raise ValueError("SweepSpec needs at least one axis")
        names = [name for name, _ in self.axes]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate axis names in {names}")
        for name, values in self.axes:
            if not values:
                raise ValueError(f"axis {name!r} has no values")
        if self.shard_count < 1:
            raise ValueError(f"shard_count must be >= 1, got {self.shard_count}")
        if not 0 <= self.shard_index < self.shard_count:
            raise ValueError(
                f"shard_index must be in [0, {self.shard_count}), got {self.shard_index}"
            )

    # ------------------------------------------------------------------ #
    def size(self) -> int:
        """Number of points before sharding (the axes' cross product)."""
        total = 1
        for _, values in self.axes:
            total *= len(values)
        return total

    # ------------------------------------------------------------------ #
    def shard(self, index: int, count: int) -> "SweepSpec":
        """The sub-spec holding shard ``index`` of ``count`` (by hash range)."""
        if self.shard_count != 1:
            raise ValueError("spec is already sharded; shard the full spec instead")
        return replace(self, shard_index=index, shard_count=count)

    def expand(self) -> List[SweepPoint]:
        """All points of this spec (this shard only, if sharded), in axis order."""
        points = []
        axis_names = [name for name, _ in self.axes]
        for combo in itertools.product(*(values for _, values in self.axes)):
            coords: Dict[str, object] = {}

            def assign(key: str, value: object) -> None:
                if key in coords:
                    raise ValueError(
                        f"coordinate {key!r} set more than once (axes/fixed overlap)"
                    )
                coords[key] = value

            for name, value in zip(axis_names, combo):
                if isinstance(value, Mapping):
                    for key, item in value.items():
                        assign(str(key), item)
                else:
                    assign(name, value)
            for key, value in self.fixed:
                assign(key, value)
            points.append(SweepPoint(coords=coords, point=point_for_coords(coords, self.settings)))
        if self.shard_count > 1:
            points = [
                sp
                for sp in points
                if int(sp.content_hash(), 16) % self.shard_count == self.shard_index
            ]
        return points

    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        import dataclasses as _dc

        return {
            "schema": _SPEC_SCHEMA,
            "axes": [
                [name, [_json_value(value) for value in values]]
                for name, values in self.axes
            ],
            "settings": _dc.asdict(self.settings),
            "fixed": [[name, _json_value(value)] for name, value in self.fixed],
            "shard": [self.shard_index, self.shard_count],
        }

    def to_json(self, indent=None) -> str:
        """Serialise the spec (shippable to another machine; see module docs)."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_dict(cls, data: Mapping) -> "SweepSpec":
        from repro.experiments.harness import RunSettings

        if data.get("schema") != _SPEC_SCHEMA:
            raise ValueError(f"unsupported SweepSpec schema: {data.get('schema')!r}")
        shard_index, shard_count = data.get("shard", (0, 1))
        return cls(
            axes=[(name, values) for name, values in data["axes"]],
            settings=RunSettings(**data["settings"]),
            fixed=[(name, value) for name, value in data.get("fixed", ())],
            shard_index=shard_index,
            shard_count=shard_count,
        )

    @classmethod
    def from_json(cls, text: str) -> "SweepSpec":
        return cls.from_dict(json.loads(text))


# --------------------------------------------------------------------- #
def point_for_coords(coords: Mapping, settings) -> "ExperimentPoint":  # noqa: F821
    """Build the :class:`ExperimentPoint` described by one coordinate dict.

    The fabric table builds the system for ``topology`` / ``num_cores`` /
    ``link_width_bits`` / ``seed``; every other non-tenancy coordinate
    must name a :class:`NocConfig` field and overrides it; then the
    workload (and optional workload map) is applied.
    """
    from repro.config.presets import workload
    from repro.experiments.engine import ExperimentPoint
    from repro.fabrics import build_system

    c = dict(coords)
    workload_name = c.pop("workload", None)
    topology_name = c.pop("topology", "mesh")
    num_cores = c.pop("num_cores", 64)
    link_width_bits = c.pop("link_width_bits", 128)
    seed = c.pop("seed", settings.seed)

    # Tenancy coordinates: either a literal map or the scalar
    # placement/tenants/arrival/load/matrix quintuple that builds one.
    workload_map = c.pop("workload_map", None)
    placement_name = c.pop("placement", None)
    tenancy = {
        key: c.pop(key) for key in ("tenants", "arrival", "load", "matrix") if key in c
    }
    if workload_map is not None and placement_name is not None:
        raise ValueError(
            "coordinates set both 'workload_map' and 'placement'; use one or the other"
        )
    if placement_name is not None:
        tenants = tenancy.pop("tenants", None)
        if not tenants:
            raise ValueError(
                "a 'placement' coordinate needs a 'tenants' coordinate "
                "(tuple of workload names)"
            )
        if isinstance(tenants, str):
            tenants = (tenants,)
        from repro.tenancy.placement import build_placement

        workload_map = build_placement(
            str(placement_name),
            num_cores=int(num_cores),
            tenants=[str(name) for name in tenants],
            arrival=str(tenancy.pop("arrival", "poisson")),
            rate=float(tenancy.pop("load", 0.0)),
            matrix=str(tenancy.pop("matrix", "uniform")),
        )
    elif tenancy:
        raise ValueError(
            f"coordinate(s) {sorted(tenancy)} require a 'placement' coordinate"
        )
    if isinstance(workload_map, Mapping):
        from repro.tenancy.placement import WorkloadMap

        workload_map = WorkloadMap.from_dict(workload_map)

    if workload_name is None:
        if workload_map is None:
            raise ValueError(f"point coordinates {dict(coords)!r} lack a 'workload'")
        workload_name = workload_map.tenants[0].workload

    unknown = sorted(key for key in c if key not in _NOC_FIELDS)
    if unknown:
        raise ValueError(
            f"unknown coordinate(s) {unknown}; expected one of "
            f"{list(_SYSTEM_COORDS)} or a NocConfig field"
        )

    config = build_system(
        str(topology_name),
        num_cores=num_cores,
        link_width_bits=link_width_bits,
        seed=seed,
    )
    if c:
        config = config.with_noc(replace(config.noc, **c))
    config = config.with_workload(workload(str(workload_name)))
    if workload_map is not None:
        config = config.with_workload_map(workload_map)
    return ExperimentPoint(config=config, settings=settings)
