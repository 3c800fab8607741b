"""Built-in fabric plugins.

Each module here is one interconnect organization packaged as a
:class:`~repro.fabrics.base.FabricPlugin` and registered with
``@register_topology``:

* :mod:`~repro.fabrics.mesh` — the tiled 2-D mesh baseline (Figure 2);
* :mod:`~repro.fabrics.flattened_butterfly` — the 2-D flattened butterfly
  (Figure 3);
* :mod:`~repro.fabrics.nocout` — the paper's NOC-Out proposal (Figure 5);
* :mod:`~repro.fabrics.ideal` — the wire-delay-only upper bound (Figure 1);
* :mod:`~repro.fabrics.cmesh` — a concentrated mesh (4 cores/router), the
  scale-out design point Section 2 motivates, and the template for adding
  your own fabric in one self-contained module;
* :mod:`~repro.fabrics.chiplet` — a hierarchical chiplet fabric: per-chiplet
  NoC meshes bridged by a network-on-interposer with an optional central IO
  die, the 1024-2048-core scale-out design point.

Importing this package registers all of them;
:func:`repro.scenarios.registry.ensure_seeded` does so on first registry
lookup, so user code normally never imports it directly.
"""

from repro.fabrics.base import FabricPlugin

# Importing the plugin modules runs their @register_topology decorators.
# Order defines registry listing order: the paper's fabrics first.
from repro.fabrics import mesh as _mesh  # noqa: F401,E402
from repro.fabrics import flattened_butterfly as _flattened_butterfly  # noqa: F401,E402
from repro.fabrics import nocout as _nocout  # noqa: F401,E402
from repro.fabrics import ideal as _ideal  # noqa: F401,E402
from repro.fabrics import cmesh as _cmesh  # noqa: F401,E402
from repro.fabrics import chiplet as _chiplet  # noqa: F401,E402

from repro.fabrics.cmesh import (  # noqa: E402
    ConcentratedMeshFabric,
    ConcentratedSystemMap,
    cmesh_system,
    describe_cmesh,
)
from repro.fabrics.chiplet import (  # noqa: E402
    ChipletFabric,
    ChipletNetwork,
    ChipletParams,
    ChipletSystemMap,
    chiplet_params,
    chiplet_system,
    describe_chiplet,
)

__all__ = [
    "ChipletFabric",
    "ChipletNetwork",
    "ChipletParams",
    "ChipletSystemMap",
    "ConcentratedMeshFabric",
    "ConcentratedSystemMap",
    "FabricPlugin",
    "chiplet_params",
    "chiplet_system",
    "cmesh_system",
    "describe_chiplet",
    "describe_cmesh",
]
