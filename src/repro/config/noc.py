"""Network-on-chip configuration for the evaluated organizations."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Optional, Union


class Topology(str, Enum):
    """The paper's four interconnect organizations.

    The enum is only the *config-level identifier* of the built-in fabrics:
    network construction, system maps and area descriptors come from the
    fabric's row in :data:`repro.fabrics.FABRICS`, keyed by
    :func:`topology_key`.  Any other fabric stores its table name as a
    plain string in :attr:`NocConfig.topology`; the enum is never
    extended.
    """

    MESH = "mesh"
    FLATTENED_BUTTERFLY = "flattened_butterfly"
    NOC_OUT = "noc_out"
    IDEAL = "ideal"


MESH = Topology.MESH
FLATTENED_BUTTERFLY = Topology.FLATTENED_BUTTERFLY
NOC_OUT = Topology.NOC_OUT
IDEAL = Topology.IDEAL

#: A topology identifier: one of the paper's four built-ins (enum) or the
#: table name of another fabric (plain string).
TopologyLike = Union[Topology, str]


def topology_key(topology: TopologyLike) -> str:
    """The fabric-table key of a topology identifier.

    Built-in enum members key by their string value (``Topology.MESH`` ->
    ``"mesh"``); other fabrics carry their table name directly.  Cache
    keys are unaffected: the engine's canonical serialisation already
    reduced enum members to their values, and a plain string is its own
    value.
    """
    if isinstance(topology, Topology):
        return topology.value
    return str(topology)


@dataclass(frozen=True)
class NocConfig:
    """Parameters of the on-chip network (Table 1, "NOC Organizations").

    ``link_width_bits`` is the flit width; the area-normalised study
    (Figure 9) shrinks it for the mesh and flattened butterfly until their
    NoC area matches NOC-Out's 2.5 mm2 budget.

    ``topology`` may be a :class:`Topology` member (the built-ins) or the
    table name of another fabric as a plain string; use
    :func:`topology_key` when a flat string is needed.
    """

    topology: TopologyLike = Topology.MESH
    link_width_bits: int = 128

    # Mesh parameters
    mesh_router_pipeline: int = 2
    mesh_link_latency: int = 1
    mesh_vcs_per_port: int = 3
    mesh_vc_depth_flits: int = 5

    # Flattened butterfly parameters
    fbfly_router_pipeline: int = 3
    fbfly_vcs_per_port: int = 3
    fbfly_vc_depth_flits: int = 8
    fbfly_tiles_per_cycle: float = 2.0

    # NOC-Out tree networks.  ``tree_concentration`` doubles as the generic
    # concentration knob for fabrics that share one router between several
    # endpoints (the NOC-Out trees and the concentrated mesh); it predates
    # the concentrated mesh, and renaming it would invalidate every cached
    # result, so the historical name stays.
    tree_hop_latency: int = 1
    tree_vcs_per_port: int = 2
    tree_vc_depth_flits: int = 3
    tree_concentration: int = 1
    tree_express_links: bool = False
    tree_arbitration: str = "static_priority"

    # NOC-Out LLC network (1-D flattened butterfly across LLC tiles)
    llc_router_pipeline: int = 3
    llc_vcs_per_port: int = 3
    llc_vc_depth_flits: int = 5
    llc_tiles: int = 8
    llc_banks_per_tile: int = 2

    # Chiplet / network-on-interposer fabric (the ``chiplet`` row).
    # All four knobs default to ``None`` ("use the fabric's defaults") and
    # are omitted from cache-key canonicalisation when unset, so every
    # pre-chiplet cache key stays byte-identical — the same pattern as
    # ``SystemConfig.workload_map``.  Divisibility against the core count
    # is validated by the fabric (``repro.fabrics.chiplet.chiplet_params``),
    # which needs the whole system config.
    chiplet_count: Optional[int] = field(
        default=None, metadata={"canonical_omit_none": True}
    )
    chiplet_concentration: Optional[int] = field(
        default=None, metadata={"canonical_omit_none": True}
    )
    chiplet_latency_increase: Optional[int] = field(
        default=None, metadata={"canonical_omit_none": True}
    )
    chiplet_io_die: Optional[bool] = field(
        default=None, metadata={"canonical_omit_none": True}
    )

    def __post_init__(self) -> None:
        if self.link_width_bits < 8:
            raise ValueError("link_width_bits must be at least 8")
        if self.llc_tiles < 1 or self.llc_banks_per_tile < 1:
            raise ValueError("LLC tiling parameters must be positive")
        if self.tree_concentration < 1:
            raise ValueError("tree_concentration must be >= 1")
        if self.tree_arbitration not in ("static_priority", "round_robin"):
            raise ValueError(
                "tree_arbitration must be 'static_priority' or 'round_robin', "
                f"got {self.tree_arbitration!r}"
            )
        if self.chiplet_count is not None and self.chiplet_count < 1:
            raise ValueError(f"chiplet_count must be >= 1, got {self.chiplet_count}")
        if self.chiplet_concentration is not None and self.chiplet_concentration < 1:
            raise ValueError(
                f"chiplet_concentration must be >= 1, got {self.chiplet_concentration}"
            )
        if self.chiplet_latency_increase is not None and self.chiplet_latency_increase < 0:
            raise ValueError(
                "chiplet_latency_increase must be >= 0, "
                f"got {self.chiplet_latency_increase}"
            )

    @property
    def llc_banks(self) -> int:
        """Total number of LLC banks in the NOC-Out organization."""
        return self.llc_tiles * self.llc_banks_per_tile

    def with_link_width(self, link_width_bits: int) -> "NocConfig":
        """Return a copy with a different flit/link width (Figure 9 study)."""
        return replace(self, link_width_bits=link_width_bits)

    def with_topology(self, topology: TopologyLike) -> "NocConfig":
        """Return a copy targeting a different topology (enum or table name)."""
        return replace(self, topology=topology)
