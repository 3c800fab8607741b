"""Name-based registries for workloads and fabric plugins.

The paper's experiments are cross products over *named* things: workload
presets ("Data Serving", "Web Search", ...) and fabric organizations
("mesh", "flattened_butterfly", "noc_out", "ideal", "cmesh").  The
registries here make both discoverable and extensible by name, so a new
fabric or workload is a one-module addition::

    from repro.scenarios import register_workload

    @register_workload("My Workload")
    def my_workload():
        return WorkloadConfig(name="My Workload", ...)

and ``SweepSpec(axes={"workload": ("My Workload",), ...})`` immediately
works.

Fabric plugins
--------------
``@register_topology`` registers a **fabric plugin**: an object with a
``name`` plus four hooks — ``build_system(**kwargs)`` (the system preset),
``build_system_map(config)`` (node placement and address interleaving),
``build_network(sim, config, system_map)`` (the simulated interconnect)
and ``describe(config)`` (the static router/link inventory the area and
energy models read).  ``chip.builder.build_network``,
``chip.system_map.build_system_map`` and ``noc.topology.describe_topology``
are thin dispatches through :func:`fabric_for`, so registering a plugin is
the *only* step needed to wire a new fabric into chip building, the
power/area models and the scenario layer; see :mod:`repro.fabrics` for the
protocol and the built-in plugin modules.

The built-in entries are seeded on first lookup: the six CloudSuite-style
workloads populate :data:`workloads` via decorators in
:mod:`repro.config.presets`, and the built-in fabric plugins populate
:data:`topologies` via decorators in the :mod:`repro.fabrics` modules.

Import-order note: modules in ``repro.scenarios`` never import other
``repro`` subpackages at module level (``repro.config.presets`` and the
``repro.fabrics`` modules import the decorators from here at *their*
module level, so anything else would cycle).  Lookups call
:func:`ensure_seeded`, which imports both on first use.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, TypeVar

T = TypeVar("T")


class RegistrationError(ValueError):
    """Raised on conflicting registrations (duplicate names)."""


class Registry:
    """A mapping from names to zero-config factories.

    Names are looked up exactly as registered; unknown names raise
    :class:`KeyError` with the list of available entries.  Registering a
    name twice raises :class:`RegistrationError` unless ``replace=True``
    is passed (useful for tests and experimentation).
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._factories: Dict[str, Callable] = {}

    # -- registration --------------------------------------------------- #
    def register(
        self,
        name: str,
        factory: Optional[Callable] = None,
        *,
        replace: bool = False,
    ):
        """Register ``factory`` under ``name``; usable as a decorator."""

        def decorator(function: Callable) -> Callable:
            if not replace and name in self._factories:
                raise RegistrationError(
                    f"{self.kind} {name!r} is already registered; pass "
                    f"replace=True to override it"
                )
            self._factories[name] = function
            return function

        if factory is not None:
            return decorator(factory)
        return decorator

    def unregister(self, name: str) -> None:
        """Remove ``name`` (KeyError if absent); mainly for test cleanup."""
        del self._factories[name]

    # -- lookup --------------------------------------------------------- #
    def get(self, name: str) -> Callable:
        """Return the factory registered under ``name``."""
        try:
            return self._factories[name]
        except KeyError:
            raise KeyError(
                f"unknown {self.kind} {name!r}; available: {sorted(self._factories)}"
            ) from None

    def create(self, name: str, *args, **kwargs):
        """Look up ``name`` and call its factory."""
        return self.get(name)(*args, **kwargs)

    def names(self) -> List[str]:
        """Registered names, in registration order."""
        return list(self._factories)

    def __contains__(self, name: object) -> bool:
        return name in self._factories

    def __iter__(self) -> Iterator[str]:
        return iter(self._factories)

    def __len__(self) -> int:
        return len(self._factories)

    def __repr__(self) -> str:
        return f"Registry({self.kind!r}, {len(self)} entries)"


#: Workload presets: name -> ``() -> WorkloadConfig``.
workloads = Registry("workload")
#: Fabric plugins: name -> object implementing
#: :class:`repro.fabrics.base.FabricPlugin`.
topologies = Registry("topology")


def register_workload(name: str, factory: Optional[Callable] = None, **kwargs):
    """Register a ``() -> WorkloadConfig`` factory under ``name``."""
    return workloads.register(name, factory, **kwargs)


def register_topology(name: str, plugin=None, **kwargs):
    """Register a fabric under ``name``; usable as a decorator.

    ``plugin`` may be a :class:`~repro.fabrics.base.FabricPlugin` instance
    or a plugin class (instantiated here); anything else raises
    :class:`TypeError`.  The decorated object is returned unchanged, so
    stacking the decorator on a class keeps it usable directly.
    """

    def decorator(obj):
        from repro.fabrics.base import coerce_fabric_plugin

        topologies.register(name, coerce_fabric_plugin(name, obj), **kwargs)
        return obj

    if plugin is not None:
        return decorator(plugin)
    return decorator


_seeded = False


def ensure_seeded() -> None:
    """Load the built-in presets into the registries (idempotent).

    The flag flips only after the imports succeed, so a failed seeding
    import is retried (and re-raised) on the next lookup instead of
    surfacing as a misleading empty registry.
    """
    global _seeded
    if _seeded:
        return
    # The decorators on the preset factories and the built-in fabric plugin
    # modules run at import time.
    import repro.config.presets  # noqa: F401
    import repro.fabrics  # noqa: F401

    _seeded = True


def workload(name: str):
    """Build the :class:`~repro.config.workload.WorkloadConfig` named ``name``."""
    ensure_seeded()
    return workloads.create(name)


def build_system(name: str, **kwargs):
    """Build the (workload-less) :class:`SystemConfig` for fabric ``name``."""
    ensure_seeded()
    return topologies.get(name).build_system(**kwargs)


def fabric_for(config_or_topology) -> "FabricPlugin":  # noqa: F821 — lazy import
    """The fabric plugin owning a config (or bare topology identifier).

    Dispatch is keyed by :func:`repro.config.noc.topology_key` — the enum
    value for built-ins, the registered name for plugin fabrics.  Unknown
    keys raise :class:`KeyError` listing the registered fabrics.
    """
    ensure_seeded()
    from repro.config.noc import topology_key

    topology = getattr(
        getattr(config_or_topology, "noc", config_or_topology),
        "topology",
        config_or_topology,
    )
    return topologies.get(topology_key(topology))


def workload_names() -> List[str]:
    """All registered workload names (built-ins first)."""
    ensure_seeded()
    return workloads.names()


def topology_names() -> List[str]:
    """All registered topology names (built-ins first)."""
    ensure_seeded()
    return topologies.names()
