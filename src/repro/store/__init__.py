"""Result store: where every simulated point lands, and how it is served.

Results live in a directory with one file per point,
``<root>/results/<content hash>.json``, written and read by the engine's
:class:`~repro.experiments.engine.ResultCache` (stdlib-only).  This
package holds the read side:

* :mod:`repro.store.query` — the serving CLI: any registered figure or
  pivot query answered from the warm store without touching the simulator
  (``python -m repro.store.query``), read through the same
  :class:`~repro.experiments.engine.ResultCache` every sweep uses;
* :mod:`repro.store.specs` — the figure sweep specs the query CLI serves,
  resolved through the figure table in :mod:`repro.reporting.figures`.

The store is filled by running sweeps against it: one machine's process
pool (``SweepExecutor``), or ``spec.shard(i, n)`` on many machines sharing
the directory.  Stores merge by copying ``results/*.json`` from one into
the other.  See the "result path" section of ``docs/architecture.md`` for
the file layout and ``docs/experiments.md`` for recipes.  A directory in
an older layout (root-level ``<hash>.json`` files, or the ``segments/``
tables of the earlier columnar layout) is not read: it opens as an empty
store and its points re-simulate into ``results/``.
"""
