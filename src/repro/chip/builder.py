"""Factories assembling networks and chips from a :class:`SystemConfig`.

:func:`build_network` calls the ``build_network`` of the config's row in
:data:`repro.fabrics.FABRICS`, so a new fabric needs no edits here.
"""

from __future__ import annotations

from repro.config.system import SystemConfig
from repro.noc.network import Network
from repro.sim.kernel import Simulator
from repro.chip.system_map import SystemMap


def build_network(sim: Simulator, config: SystemConfig, system_map: SystemMap) -> Network:
    """Instantiate the interconnect matching ``config.noc.topology``."""
    from repro.fabrics import fabric_for  # the fabric modules import this package

    return fabric_for(config).build_network(sim, config, system_map)


def build_chip(config: SystemConfig, workload_map=None) -> "repro.chip.chip.Chip":  # noqa: F821
    """Build a complete chip (cores, caches, NoC, memory) for ``config``.

    ``workload_map`` (a :class:`repro.tenancy.WorkloadMap`) overrides the
    config's tenancy placement — a convenience for building one chip under
    several placements without rebuilding the config by hand.
    """
    from repro.chip.chip import Chip

    if workload_map is not None:
        config = config.with_workload_map(workload_map)
    return Chip(config)
