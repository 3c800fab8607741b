"""Columnar result store: where every simulated point lands.

Results live in an **append-only columnar segment store** (stdlib-only);
the engine's :class:`~repro.experiments.engine.ResultCache` is a thin
point-keyed adapter over it:

* :mod:`repro.store.columnar` — the segment format and
  :class:`ColumnarStore` (atomic appends, point reads by content hash,
  ``compact()`` folding, quarantine of unreadable segments);
* :mod:`repro.store.query` — the serving CLI: any registered figure or
  pivot query answered from the warm store without touching the simulator
  (``python -m repro.store.query``), read through the same
  :class:`~repro.experiments.engine.ResultCache` every sweep uses;
* :mod:`repro.store.specs` — the figure sweep specs the query CLI serves,
  resolved through the figure table in :mod:`repro.reporting.figures`.

The store is filled by running sweeps against it: one machine's process
pool (``SweepExecutor``), or ``spec.shard(i, n)`` on many machines sharing
the directory.  See the "result path" section of ``docs/architecture.md``
for the segment format and ``docs/experiments.md`` for recipes.  A
directory of pre-columnar ``<hash>.json`` files is not read: it opens as
an empty store and its points re-simulate into ``segments/``.
"""

from repro.store.columnar import (
    SEGMENT_SCHEMA_VERSION,
    CacheCorruptionWarning,
    ColumnarStore,
    CompactStats,
    StoreError,
)

__all__ = [
    "SEGMENT_SCHEMA_VERSION",
    "CacheCorruptionWarning",
    "ColumnarStore",
    "CompactStats",
    "StoreError",
]
