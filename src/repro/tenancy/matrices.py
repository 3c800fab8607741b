"""Traffic matrices: per-tenant destination distributions.

A matrix factory turns a :class:`MatrixContext` (the tenant's slot among
the chip's LLC destinations) into a ``pick(source, rng) -> destination``
callable — exactly the ``pick_destination`` shape the traffic machinery
in :mod:`repro.workloads.traffic` already consumes.  :data:`MATRICES`
names each factory, like the placement and arrival tables.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

#: ``pick(source_node, rng) -> destination_node``
DestinationPicker = Callable[[int, random.Random], int]


def matrix_names() -> List[str]:
    """Traffic-matrix names, in table order."""
    return list(MATRICES)


@dataclass(frozen=True)
class MatrixContext:
    """What a matrix factory needs to know about its tenant's slot."""

    destinations: Tuple[int, ...]
    tenant_index: int = 0
    num_tenants: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "destinations", tuple(self.destinations))
        if not self.destinations:
            raise ValueError("traffic matrix needs at least one destination")
        if self.num_tenants < 1 or not 0 <= self.tenant_index < self.num_tenants:
            raise ValueError(
                f"invalid tenant slot {self.tenant_index}/{self.num_tenants}"
            )


def make_matrix(name: str, context: MatrixContext) -> DestinationPicker:
    """Build the traffic matrix ``name`` of :data:`MATRICES` for ``context``."""
    try:
        factory = MATRICES[name]
    except KeyError:
        raise KeyError(
            f"unknown traffic matrix {name!r}; available: {sorted(MATRICES)}"
        ) from None
    return factory(context)


def _uniform(context: MatrixContext) -> DestinationPicker:
    """Uniform over every destination — the classic baseline matrix."""
    destinations = list(context.destinations)

    def pick(_source: int, rng: random.Random) -> int:
        return rng.choice(destinations)

    return pick


def _hotspot(context: MatrixContext) -> DestinationPicker:
    """Half the traffic converges on one hot destination.

    The hot node rotates with the tenant index, so co-located tenants
    hammer *different* hotspots and the interference is fabric-borne
    rather than a shared endpoint artifact.
    """
    destinations = list(context.destinations)
    hot = destinations[context.tenant_index % len(destinations)]

    def pick(_source: int, rng: random.Random) -> int:
        if rng.random() < 0.5:
            return hot
        return rng.choice(destinations)

    return pick


def _partitioned(context: MatrixContext) -> DestinationPicker:
    """Each tenant keeps to its own stripe of the destinations.

    Tenant ``i`` of ``n`` uses destinations ``i, i+n, i+2n, ...`` — the
    disjoint-LLC-slice regime where tenants share only links and routers,
    never endpoints.  A stripe that comes up empty (more tenants than
    destinations) falls back to the full set rather than deadlocking.
    """
    destinations = list(context.destinations)
    stripe = [
        node
        for position, node in enumerate(destinations)
        if position % context.num_tenants == context.tenant_index
    ] or destinations

    def pick(_source: int, rng: random.Random) -> int:
        return rng.choice(stripe)

    return pick


#: Traffic-matrix name -> ``(MatrixContext) -> DestinationPicker``.
MATRICES: Dict[str, Callable[[MatrixContext], DestinationPicker]] = {
    "uniform": _uniform,
    "hotspot": _hotspot,
    "partitioned": _partitioned,
}
