"""The fabric table: every interconnect organization, by name.

:data:`FABRICS` has one :class:`Fabric` row per organization:

* ``mesh`` — the tiled 2-D mesh baseline (Figure 2);
* ``flattened_butterfly`` — the 2-D flattened butterfly (Figure 3);
* ``noc_out`` — the paper's NOC-Out proposal (Figure 5);
* ``ideal`` — the wire-delay-only upper bound (Figure 1);
* ``cmesh`` — a concentrated mesh (4 cores/router), the scale-out design
  point Section 2 motivates (:mod:`~repro.fabrics.cmesh`);
* ``chiplet`` — per-chiplet NoC meshes bridged by a network-on-interposer
  with an optional central IO die, the 1024-2048-core scale-out design
  point (:mod:`~repro.fabrics.chiplet`).

The table is the only dispatch site: ``chip.builder.build_network``,
``chip.system_map.build_system_map``, ``noc.topology.describe_topology``
and the scenario layer all resolve a topology through :func:`fabric_for`.
Adding a fabric means adding one row.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple

from repro.chip.system_map import NocOutSystemMap, TiledSystemMap
from repro.config import presets
from repro.config.noc import topology_key
from repro.config.system import SystemConfig
from repro.core.floorplan import describe_nocout
from repro.core.nocout import NocOutNetwork
from repro.fabrics.chiplet import (
    CHIPLET_NAME,
    ChipletNetwork,
    ChipletParams,
    ChipletSystemMap,
    chiplet_params,
    chiplet_system,
    describe_chiplet,
)
from repro.fabrics.cmesh import (
    CMESH_NAME,
    ConcentratedSystemMap,
    cmesh_network,
    cmesh_system,
    describe_cmesh,
)
from repro.noc.flattened_butterfly import FlattenedButterflyNetwork
from repro.noc.ideal import IdealNetwork
from repro.noc.mesh import MeshNetwork
from repro.noc.topology import (
    TopologyDescriptor,
    describe_flattened_butterfly,
    describe_mesh,
)


class Fabric(NamedTuple):
    """Everything the rest of the system needs to know about one fabric."""

    #: ``(**kwargs) -> SystemConfig``: the system preset that
    #: :func:`build_system` and ``SweepSpec`` coordinates expand through.
    build_system: Callable
    #: ``(config) -> SystemMap``: node placement and address interleaving.
    build_system_map: Callable
    #: ``(sim, config, system_map) -> Network``: the simulated interconnect,
    #: given the map this row's ``build_system_map`` built.
    build_network: Callable
    #: ``(config) -> TopologyDescriptor``: the static router/link inventory
    #: the area and energy models (Figures 8/9) read.
    describe: Callable


def _tiled(network_cls) -> Callable:
    """Network builder for a fabric with one router (or wire) per tile."""

    def build_network(sim, config, system_map):
        return network_cls(sim, config, system_map.node_coords())

    return build_network


def _nocout_network(sim, config, system_map: NocOutSystemMap) -> NocOutNetwork:
    return NocOutNetwork(
        sim,
        config,
        core_nodes=system_map.core_positions(),
        llc_nodes=system_map.llc_columns(),
        mc_nodes=system_map.mc_columns(),
    )


def _describe_ideal(config: SystemConfig) -> TopologyDescriptor:
    # Wires only: no routers, no repeated links to inventory.
    return TopologyDescriptor("ideal", routers=[], links=[])


#: Fabric name -> row, the paper's fabrics first.  Built-in names equal
#: their :class:`~repro.config.noc.Topology` values; other fabrics store
#: their name as a plain string in ``NocConfig.topology``.
FABRICS: Dict[str, Fabric] = {
    "mesh": Fabric(
        presets.mesh_system, TiledSystemMap, _tiled(MeshNetwork), describe_mesh
    ),
    "flattened_butterfly": Fabric(
        presets.flattened_butterfly_system,
        TiledSystemMap,
        _tiled(FlattenedButterflyNetwork),
        describe_flattened_butterfly,
    ),
    "noc_out": Fabric(
        presets.nocout_system, NocOutSystemMap, _nocout_network, describe_nocout
    ),
    "ideal": Fabric(
        presets.ideal_system, TiledSystemMap, _tiled(IdealNetwork), _describe_ideal
    ),
    CMESH_NAME: Fabric(
        cmesh_system, ConcentratedSystemMap, cmesh_network, describe_cmesh
    ),
    CHIPLET_NAME: Fabric(
        chiplet_system, ChipletSystemMap, ChipletNetwork, describe_chiplet
    ),
}


def fabric_for(config_or_topology) -> Fabric:
    """The row of a config, a ``NocConfig`` or a bare topology identifier.

    Keyed by :func:`repro.config.noc.topology_key`.  Unknown keys raise
    :class:`KeyError` listing the fabrics in the table.
    """
    topology = getattr(
        getattr(config_or_topology, "noc", config_or_topology),
        "topology",
        config_or_topology,
    )
    key = topology_key(topology)
    try:
        return FABRICS[key]
    except KeyError:
        raise KeyError(
            f"unknown topology {key!r}; available: {sorted(FABRICS)}"
        ) from None


def build_system(name: str, **kwargs) -> SystemConfig:
    """Build the (workload-less) :class:`SystemConfig` for fabric ``name``."""
    return fabric_for(name).build_system(**kwargs)


def topology_names() -> List[str]:
    """Every fabric name, in table order."""
    return list(FABRICS)


__all__ = [
    "FABRICS",
    "ChipletNetwork",
    "ChipletParams",
    "ChipletSystemMap",
    "ConcentratedSystemMap",
    "Fabric",
    "build_system",
    "chiplet_params",
    "chiplet_system",
    "cmesh_system",
    "describe_chiplet",
    "describe_cmesh",
    "fabric_for",
    "topology_names",
]
