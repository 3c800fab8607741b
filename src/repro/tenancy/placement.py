"""WorkloadMap: ordered core-range → tenant placement for one chip.

A :class:`WorkloadMap` pins different workloads to different core groups
of a single chip — the rack-level co-location scenario the paper's
homogeneous sweeps cannot express (ROADMAP item 2).  :data:`PLACEMENTS`
names each placement factory, so a new row there is usable as a
``placement`` sweep coordinate.  Maps are frozen, validated, JSON
round-trippable (the ``__kind__`` tag lets the scenario layer revive
them) and hash into the point's cache key like any other config field.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Dict, List, Mapping, Sequence, Tuple, Union

#: Address-space stride between tenants (1 TiB).  Larger than any layout
#: span a single workload stream produces, so co-located tenants never
#: alias each other's instruction/private/shared regions into accidental
#: coherence sharing.
TENANT_ADDRESS_STRIDE = 0x100_0000_0000


@dataclass(frozen=True)
class TenantSpec:
    """One tenant: a workload preset plus its open-loop traffic shape.

    ``rate`` is the per-core, per-cycle probe-injection probability of the
    tenant's open-loop overlay (0.0 disables the overlay; the tenant then
    only runs its closed-loop coherence traffic).  ``arrival`` and
    ``matrix`` name entries in :mod:`repro.tenancy.arrivals` and
    :mod:`repro.tenancy.matrices`.
    """

    workload: str
    arrival: str = "poisson"
    rate: float = 0.0
    matrix: str = "uniform"
    label: str = ""

    def __post_init__(self) -> None:
        if not self.workload:
            raise ValueError("TenantSpec requires a workload name")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(
                f"tenant {self.workload!r}: rate must be within [0, 1], got {self.rate}"
            )

    def to_dict(self) -> Dict[str, object]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "TenantSpec":
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})


def _as_entry(value: Sequence[int]) -> Tuple[int, int, int]:
    entry = tuple(int(v) for v in value)
    if len(entry) != 3:
        raise ValueError(f"workload-map entry must be (start, stop, tenant), got {value!r}")
    return entry


@dataclass(frozen=True)
class WorkloadMap:
    """Frozen, ordered assignment of core ranges to tenants.

    ``entries`` is a tuple of ``(start, stop, tenant_index)`` half-open
    core ranges, sorted by ``start`` and non-overlapping; cores not
    covered by any entry stay idle.  Validation against a concrete chip's
    core count happens in :meth:`validate_for` (called by
    ``SystemConfig.__post_init__``), so a map can be built once and swept
    across chip sizes that fit it.
    """

    placement: str
    entries: Tuple[Tuple[int, int, int], ...]
    tenants: Tuple[TenantSpec, ...]

    #: Marker the scenario layer uses to tell a map apart from the
    #: Mapping axis values that mean "zipped coordinates".
    is_workload_map = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(_as_entry(e) for e in self.entries))
        object.__setattr__(
            self,
            "tenants",
            tuple(
                t if isinstance(t, TenantSpec) else TenantSpec.from_dict(t)
                for t in self.tenants
            ),
        )
        if not self.placement:
            raise ValueError("WorkloadMap requires a placement name")
        if not self.tenants:
            raise ValueError("WorkloadMap requires at least one tenant")
        if not self.entries:
            raise ValueError("WorkloadMap requires at least one core range")
        used = set()
        previous_stop = 0
        previous_start = -1
        for start, stop, tenant in self.entries:
            if start < 0 or stop <= start:
                raise ValueError(
                    f"invalid core range [{start}, {stop}): ranges are "
                    f"half-open and non-empty"
                )
            if start < previous_start:
                raise ValueError(
                    f"core ranges must be sorted by start; [{start}, {stop}) "
                    f"follows a range starting at {previous_start}"
                )
            if start < previous_stop:
                raise ValueError(
                    f"core range [{start}, {stop}) overlaps the previous "
                    f"range ending at {previous_stop}"
                )
            if not 0 <= tenant < len(self.tenants):
                raise ValueError(
                    f"core range [{start}, {stop}) references tenant "
                    f"{tenant}, but only {len(self.tenants)} tenant(s) exist"
                )
            used.add(tenant)
            previous_start, previous_stop = start, stop
        missing = sorted(set(range(len(self.tenants))) - used)
        if missing:
            names = [self.tenants[i].workload for i in missing]
            raise ValueError(
                f"tenant(s) {names} are declared but own no core range; "
                f"drop them or assign them cores"
            )

    # -- geometry ------------------------------------------------------- #
    @property
    def num_cores_required(self) -> int:
        """Smallest chip core count this map fits on."""
        return max(stop for _start, stop, _tenant in self.entries)

    def validate_for(self, num_cores: int) -> None:
        """Raise ``ValueError`` unless the map fits a ``num_cores`` chip."""
        if self.num_cores_required > num_cores:
            raise ValueError(
                f"workload map {self.placement!r} needs "
                f"{self.num_cores_required} cores but the chip has {num_cores}"
            )

    def tenant_cores(self, index: int) -> List[int]:
        """Core ids owned by tenant ``index``, ascending."""
        if not 0 <= index < len(self.tenants):
            raise IndexError(f"tenant index {index} out of range")
        return [
            core
            for start, stop, tenant in self.entries
            if tenant == index
            for core in range(start, stop)
        ]

    def tenant_labels(self) -> List[str]:
        """A unique display label per tenant (workload name, ``#i`` on dups)."""
        labels: List[str] = []
        for index, tenant in enumerate(self.tenants):
            label = tenant.label or tenant.workload
            if label in labels:
                label = f"{label}#{index}"
            labels.append(label)
        return labels

    def describe(self) -> str:
        """Short human label, e.g. ``split_half[Data Serving+MapReduce-C]``."""
        return f"{self.placement}[{'+'.join(self.tenant_labels())}]"

    # -- serialization --------------------------------------------------- #
    def to_dict(self) -> Dict[str, object]:
        """JSON-ready dict; the ``__kind__`` tag drives revival."""
        return {
            "__kind__": "workload_map",
            "placement": self.placement,
            "entries": [list(entry) for entry in self.entries],
            "tenants": [tenant.to_dict() for tenant in self.tenants],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "WorkloadMap":
        kind = data.get("__kind__", "workload_map")
        if kind != "workload_map":
            raise ValueError(f"not a workload map payload: __kind__={kind!r}")
        return cls(
            placement=str(data["placement"]),
            entries=tuple(_as_entry(e) for e in data["entries"]),
            tenants=tuple(TenantSpec.from_dict(t) for t in data["tenants"]),
        )


def is_workload_map_dict(value: object) -> bool:
    """True for a Mapping carrying the ``__kind__`` workload-map tag."""
    return isinstance(value, Mapping) and value.get("__kind__") == "workload_map"


# -- placement table ------------------------------------------------------- #
def placement_names() -> List[str]:
    """Placement names, in table order."""
    return list(PLACEMENTS)


def build_placement(
    name: str,
    num_cores: int,
    tenants: Sequence[Union[str, TenantSpec, Mapping[str, object]]],
    arrival: str = "poisson",
    rate: float = 0.0,
    matrix: str = "uniform",
) -> WorkloadMap:
    """Build the placement ``name`` of :data:`PLACEMENTS` for a ``num_cores`` chip.

    ``tenants`` entries may be :class:`TenantSpec` objects or bare
    workload names; names get the shared ``arrival``/``rate``/``matrix``
    knobs applied (the common sweep case: one traffic shape, several
    co-located workloads).
    """
    specs = tuple(
        t
        if isinstance(t, TenantSpec)
        else TenantSpec.from_dict(t)
        if isinstance(t, Mapping)
        else TenantSpec(workload=str(t), arrival=arrival, rate=rate, matrix=matrix)
        for t in tenants
    )
    if not specs:
        raise ValueError(f"placement {name!r} needs at least one tenant")
    try:
        factory = PLACEMENTS[name]
    except KeyError:
        raise KeyError(
            f"unknown placement {name!r}; available: {sorted(PLACEMENTS)}"
        ) from None
    workload_map = factory(num_cores, specs)
    workload_map.validate_for(num_cores)
    return workload_map


def _homogeneous(num_cores: int, tenants: Tuple[TenantSpec, ...]) -> WorkloadMap:
    """Every core runs the first tenant — the co-location baseline."""
    return WorkloadMap("homogeneous", ((0, num_cores, 0),), (tenants[0],))


def _split_half(num_cores: int, tenants: Tuple[TenantSpec, ...]) -> WorkloadMap:
    """First tenant on the low half of the cores, second on the high half."""
    if len(tenants) < 2:
        raise ValueError("split_half placement needs two tenants")
    if num_cores < 2:
        raise ValueError("split_half placement needs at least two cores")
    half = num_cores // 2
    return WorkloadMap(
        "split_half",
        ((0, half, 0), (half, num_cores, 1)),
        (tenants[0], tenants[1]),
    )


def _checkerboard(num_cores: int, tenants: Tuple[TenantSpec, ...]) -> WorkloadMap:
    """Two tenants interleaved core-by-core (maximal sharing of the fabric)."""
    if len(tenants) < 2:
        raise ValueError("checkerboard placement needs two tenants")
    if num_cores < 2:
        raise ValueError("checkerboard placement needs at least two cores")
    entries = tuple((core, core + 1, core % 2) for core in range(num_cores))
    return WorkloadMap("checkerboard", entries, (tenants[0], tenants[1]))


#: Placement name -> ``(num_cores, tenants) -> WorkloadMap``.
PLACEMENTS: Dict[str, Callable[[int, Tuple[TenantSpec, ...]], WorkloadMap]] = {
    "homogeneous": _homogeneous,
    "split_half": _split_half,
    "checkerboard": _checkerboard,
}
