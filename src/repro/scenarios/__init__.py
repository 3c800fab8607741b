"""Declarative scenario API: named inputs, sweep specs, structured results.

This package is the experiment-facing surface of the reproduction:

* name lookups, re-exported from the two tables that hold them:
  :func:`workload` and :func:`workload_names` read
  :data:`repro.config.presets.WORKLOADS`; :func:`build_system`,
  :func:`fabric_for` and :func:`topology_names` read
  :data:`repro.fabrics.FABRICS`;
* :mod:`~repro.scenarios.spec` — :class:`SweepSpec`, a frozen, JSON
  round-trippable description of a sweep (axes x fixed overrides) that
  expands to the engine's content-hashed experiment points and shards by
  hash range (``spec.shard(i, n)``);
* :mod:`~repro.scenarios.results` — :class:`ResultSet` /
  :class:`ResultRecord`, tidy records with ``filter`` / ``value`` /
  ``pivot`` queries (the figures, the paper-vs-measured layer in
  :mod:`repro.reporting`, including its ``pivot`` command, consume
  these);
* :mod:`~repro.scenarios.run` — :func:`run_sweep` (blocking) and
  :func:`iter_results` (streams records as simulations finish).

Typical usage::

    from repro.scenarios import SweepSpec, run_sweep
    from repro.experiments import RunSettings

    spec = SweepSpec(
        axes={"workload": ("Web Search",), "topology": ("mesh", "noc_out")},
        settings=RunSettings.from_env(),
    )
    table = run_sweep(spec).pivot("workload", "topology", "throughput_ipc")

The modules here import ``repro.experiments`` lazily (inside functions),
because the figure modules there import this package at module level.
"""

from repro.config.presets import workload, workload_names
from repro.fabrics import build_system, fabric_for, topology_names
from repro.scenarios.results import ResultRecord, ResultSet, record_for
from repro.scenarios.run import iter_results, run_sweep
from repro.scenarios.spec import SweepPoint, SweepSpec, point_for_coords

__all__ = [
    "ResultRecord",
    "ResultSet",
    "SweepPoint",
    "SweepSpec",
    "build_system",
    "fabric_for",
    "iter_results",
    "point_for_coords",
    "record_for",
    "run_sweep",
    "topology_names",
    "workload",
    "workload_names",
]
