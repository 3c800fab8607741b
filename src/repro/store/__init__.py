"""Columnar result store: where every simulated point lands.

Results live in an **append-only columnar segment store** (stdlib-only);
the engine's :class:`~repro.experiments.engine.ResultCache` is a thin
point-keyed adapter over it:

* :mod:`repro.store.columnar` — the segment format and
  :class:`ColumnarStore` (atomic appends, ``compact()`` folding, columnar
  :class:`StoreTable` reads, quarantine of unreadable segments);
* :mod:`repro.store.migrate` — one-shot importer from a legacy
  one-file-per-point JSON cache directory (``python -m repro.store.migrate``);
* :mod:`repro.store.farm` — lease-based sweep farm: N workers claim
  uncached points from a shared queue with crash-safe lease expiry and
  append segments concurrently (``python -m repro.store.farm``);
* :mod:`repro.store.query` — the serving CLI: any registered figure or
  pivot query answered from the warm store without touching the simulator
  (``python -m repro.store.query``);
* :mod:`repro.store.specs` — the registry of figure sweep specs the farm
  fills and the query CLI serves.

See the "result path" section of ``docs/architecture.md`` for the segment
format and lease lifecycle, and ``docs/experiments.md`` for recipes.
"""

from repro.store.columnar import (
    SEGMENT_SCHEMA_VERSION,
    CacheCorruptionWarning,
    ColumnarStore,
    CompactStats,
    StoreError,
    StoreTable,
)

__all__ = [
    "SEGMENT_SCHEMA_VERSION",
    "CacheCorruptionWarning",
    "ColumnarStore",
    "CompactStats",
    "StoreError",
    "StoreTable",
]
