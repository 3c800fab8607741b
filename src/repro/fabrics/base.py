"""The fabric-plugin protocol.

A *fabric plugin* packages everything the rest of the system needs to know
about one interconnect organization:

``name``
    The registry key.  Built-in plugins use the matching
    :class:`~repro.config.noc.Topology` value; new fabrics pick any fresh
    name and store it as a plain string in ``NocConfig.topology``.
``build_system(**kwargs) -> SystemConfig``
    The system preset — what ``SweepSpec`` coordinates and
    :func:`repro.scenarios.registry.build_system` expand through.
``build_system_map(config) -> SystemMap``
    Node-id assignment, placement and address interleaving.
``build_network(sim, config, system_map) -> Network``
    The simulated interconnect.
``describe(config) -> TopologyDescriptor``
    The static router/link inventory consumed by the area and energy
    models (Figures 8/9) — no simulator involved.

Registering a plugin with ``@register_topology`` is the *only* wiring step:
``chip.builder.build_network``, ``chip.system_map.build_system_map`` and
``noc.topology.describe_topology`` all dispatch through the registry, so a
new fabric is one self-contained module (see :mod:`repro.fabrics.cmesh`
for a complete example that touches no dispatch site).

This module must stay import-light: it is imported by
:mod:`repro.scenarios.registry` while *registering* plugins, so importing
simulation modules here would cycle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover — typing only, avoids import cycles
    from repro.chip.system_map import SystemMap
    from repro.config.system import SystemConfig
    from repro.noc.network import Network
    from repro.noc.topology import TopologyDescriptor
    from repro.sim.kernel import Simulator


@runtime_checkable
class FabricPlugin(Protocol):
    """Structural protocol every registered fabric satisfies."""

    name: str

    def build_system(self, **kwargs) -> "SystemConfig":
        """Build the (workload-less) system preset for this fabric."""
        ...

    def build_system_map(self, config: "SystemConfig") -> "SystemMap":
        """Build the node placement / address interleaving for ``config``."""
        ...

    def build_network(
        self, sim: "Simulator", config: "SystemConfig", system_map: "SystemMap"
    ) -> "Network":
        """Instantiate the simulated interconnect for ``config``."""
        ...

    def describe(self, config: "SystemConfig") -> "TopologyDescriptor":
        """Static router/link inventory for the area and energy models."""
        ...


#: Hooks every registered plugin must provide.
_HOOKS = ("build_system", "build_system_map", "build_network", "describe")


def coerce_fabric_plugin(name: str, obj) -> FabricPlugin:
    """Normalise a ``@register_topology`` argument into a plugin instance.

    Accepts a plugin instance or a plugin class (instantiated with no
    arguments); anything lacking one of the four hooks raises
    :class:`TypeError`.  A plugin without a ``name`` gets the registration
    name; a plugin that already carries one keeps it (dispatch is keyed by
    the *registry* name, so an instance registered under an alias is not
    mutated — and frozen/slotted plugins stay untouched).
    """
    if isinstance(obj, type):
        obj = obj()
    missing = [hook for hook in _HOOKS if not hasattr(obj, hook)]
    if missing:
        raise TypeError(
            f"cannot register {obj!r} as topology {name!r}: expected a "
            f"FabricPlugin (missing {missing})"
        )
    if getattr(obj, "name", None) is None:
        obj.name = name
    return obj
