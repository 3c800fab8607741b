"""Append-only columnar segment store for simulation results.

Layout of a store directory::

    store/
      manifest.json            {"schema": 1, "cache_schema": 2, ...}
      segments/
        seg-<17 hex>-<pid hex>-<seq>.json    one immutable columnar table

A **segment** is one JSON document holding N rows in column-major order:

.. code-block:: json

    {
      "schema": 1,
      "count": 3,
      "hashes": ["<sha256>", "..."],
      "columns": {"cycles": [600, 600, 610], "workload": ["Web Search", ...]}
    }

``hashes[i]`` is :meth:`ExperimentPoint.content_hash` for row ``i`` and the
columns are exactly the fields of
:meth:`~repro.chip.chip.SimulationResults.to_dict` — so a row reconstructs
the same ``SimulationResults`` that was stored (one JSON round-trip, which
is exact for floats).

Properties the rest of the result path relies on:

* **Append-only + atomic.**  A segment is written to a temp file and
  ``os.replace``\\ d into place, so readers never observe a torn segment
  and concurrent writers (shards sharing one store) never contend: every
  append creates a new uniquely-named file.  Nothing but :meth:`ColumnarStore.compact` ever
  rewrites or removes a segment.
* **First write wins.**  Duplicate hashes across segments are legal (two
  writers can simulate the same point); simulations are deterministic, so
  every copy is identical and readers take the first.
* **Compaction is canonical.**  :meth:`ColumnarStore.compact` folds every
  segment into one, deduplicated and sorted by hash — byte-stable for a
  given set of rows, so compacting a shard-filled store and a serial run of
  the same sweep produce identical segment files.  This is also how stores
  merge: copy one store's ``segments/*.json`` into another (or let shards
  append to one shared store) and compact once.
* **Damage is contained.**  A segment that fails to parse (disk trouble, a
  hand-edited file) is renamed to ``*.corrupt`` — out of the segment glob,
  kept for diagnosis — and its rows read as misses, so the engine simply
  re-simulates them.  A segment or manifest written under a different
  *schema version* is not damage: it raises :class:`StoreError`.
"""

from __future__ import annotations

import itertools
import json
import os
import tempfile
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.chip.chip import SimulationResults

#: Bump when the segment or manifest layout changes; old stores then fail
#: loudly (a store is long-lived shared state — silently misreading one is
#: worse than refusing).
SEGMENT_SCHEMA_VERSION = 1

_SEGMENT_DIR = "segments"
_SEGMENT_GLOB = "seg-*.json"
_MANIFEST = "manifest.json"


class StoreError(Exception):
    """A store invariant was violated (foreign schema, unreadable manifest...)."""


class CacheCorruptionWarning(UserWarning):
    """A result segment was unreadable and has been quarantined."""


#: Quarantine warns at most once per process (a sweep over a damaged store
#: would otherwise emit one identical warning per segment); the quarantine
#: itself still happens for every bad segment.
_corruption_warned = False


def _quarantine(path: Path) -> None:
    """Move an unreadable segment aside (``*.corrupt``) and warn once.

    ``os.replace`` keeps this atomic; losing the race against a sibling
    process that already quarantined (or compacted away) the segment is
    fine — either way the bad file no longer answers lookups.
    """
    global _corruption_warned
    try:
        os.replace(path, path.with_name(path.name + ".corrupt"))
    except OSError:
        return
    if not _corruption_warned:
        _corruption_warned = True
        warnings.warn(
            f"quarantined corrupt result segment {path.name} (kept as "
            f"{path.name}.corrupt, its rows read as misses; further corrupt "
            "segments will be quarantined silently)",
            CacheCorruptionWarning,
            stacklevel=2,
        )


def _atomic_write_json(directory: Path, final: Path, payload) -> None:
    """Write ``payload`` as JSON at ``final`` via a same-directory temp file."""
    directory.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(payload, handle, sort_keys=True, separators=(",", ":"))
        os.replace(tmp_name, final)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


@dataclass
class CompactStats:
    """What one :meth:`ColumnarStore.compact` call did."""

    segments_in: int = 0
    segments_out: int = 0
    rows_in: int = 0
    rows_out: int = 0

    @property
    def duplicates_dropped(self) -> int:
        return self.rows_in - self.rows_out

    def summary(self) -> str:
        return (
            f"{self.segments_in} segment(s) / {self.rows_in} row(s) -> "
            f"{self.segments_out} segment(s) / {self.rows_out} row(s) "
            f"({self.duplicates_dropped} duplicate(s) dropped)"
        )


class _Segment:
    """One parsed, immutable segment file."""

    __slots__ = ("name", "hashes", "columns")

    def __init__(self, name: str, payload) -> None:
        """Raise :class:`StoreError` for a foreign schema version and
        :class:`ValueError` for a damaged payload."""
        if not isinstance(payload, dict):
            raise ValueError(f"segment {name} is not a JSON object")
        if payload.get("schema", SEGMENT_SCHEMA_VERSION) != SEGMENT_SCHEMA_VERSION:
            raise StoreError(
                f"segment {name} has schema {payload.get('schema')!r}, "
                f"expected {SEGMENT_SCHEMA_VERSION}"
            )
        hashes = payload.get("hashes")
        columns = payload.get("columns")
        count = payload.get("count")
        if not isinstance(hashes, list) or not isinstance(columns, dict):
            raise ValueError(f"segment {name} is malformed (hashes/columns)")
        if count != len(hashes) or any(
            not isinstance(col, list) or len(col) != count for col in columns.values()
        ):
            raise ValueError(f"segment {name} has inconsistent column lengths")
        self.name = name
        self.hashes: List[str] = hashes
        self.columns: Dict[str, list] = columns

    def row(self, index: int) -> Dict[str, object]:
        """Row ``index`` as a plain field dict (``None`` cells dropped)."""
        return {
            name: column[index]
            for name, column in self.columns.items()
            if column[index] is not None
        }


def _rows_to_columns(rows: Sequence[Mapping]) -> Dict[str, list]:
    """Transpose row dicts into column-major lists (missing cells = None)."""
    names = sorted(set(itertools.chain.from_iterable(rows)))
    return {
        name: [row.get(name) for row in rows]
        for name in names
    }


class ColumnarStore:
    """An append-only columnar store of results keyed by content hash.

    Concurrency model: appends create new segment files (no shared state),
    and the in-memory index refreshes from the directory lazily — a lookup
    that misses re-scans for segments appended by sibling processes before
    reporting the miss, so a query server over a store that is still being
    filled is always at most one directory listing behind the writers.
    """

    def __init__(self, root: os.PathLike) -> None:
        self.root = Path(root)
        self._segments: Dict[str, _Segment] = {}
        self._index: Dict[str, Tuple[_Segment, int]] = {}
        self._manifest_checked = False
        self._append_seq = 0

    # -- layout --------------------------------------------------------- #
    @property
    def segment_dir(self) -> Path:
        return self.root / _SEGMENT_DIR

    @property
    def manifest_path(self) -> Path:
        return self.root / _MANIFEST

    def segment_paths(self) -> List[Path]:
        """Current segment files, oldest first (lexical = chronological)."""
        try:
            return sorted(self.segment_dir.glob(_SEGMENT_GLOB))
        except OSError:
            return []

    def _check_manifest(self) -> None:
        if self._manifest_checked:
            return
        try:
            manifest = json.loads(self.manifest_path.read_text())
        except FileNotFoundError:
            self._manifest_checked = True
            return
        except (OSError, ValueError) as exc:
            raise StoreError(f"unreadable store manifest {self.manifest_path}: {exc}")
        if manifest.get("schema") != SEGMENT_SCHEMA_VERSION:
            raise StoreError(
                f"store {self.root} has manifest schema "
                f"{manifest.get('schema')!r}, expected {SEGMENT_SCHEMA_VERSION}"
            )
        self._manifest_checked = True

    def _write_manifest(self) -> None:
        from repro.experiments.engine import CACHE_SCHEMA_VERSION

        _atomic_write_json(
            self.root,
            self.manifest_path,
            {"schema": SEGMENT_SCHEMA_VERSION, "cache_schema": CACHE_SCHEMA_VERSION},
        )
        self._manifest_checked = True

    # -- index ---------------------------------------------------------- #
    def refresh(self) -> int:
        """Pick up segments appended since the last scan; return new count."""
        self._check_manifest()
        new = 0
        for path in self.segment_paths():
            if path.name in self._segments:
                continue
            try:
                segment = _Segment(path.name, json.loads(path.read_text()))
            except FileNotFoundError:
                continue  # compacted away by a sibling between glob and read
            except (OSError, ValueError):
                _quarantine(path)
                continue
            self._segments[path.name] = segment
            for row, digest in enumerate(segment.hashes):
                # First write wins: deterministic sims make duplicates
                # byte-identical, so keeping the earliest is arbitrary but
                # stable.
                self._index.setdefault(digest, (segment, row))
            new += 1
        return new

    def _lookup(self, digest: str) -> Optional[Tuple[_Segment, int]]:
        hit = self._index.get(digest)
        if hit is None:
            self.refresh()
            hit = self._index.get(digest)
        return hit

    def __contains__(self, digest: str) -> bool:
        return self._lookup(digest) is not None

    def __len__(self) -> int:
        self.refresh()
        return len(self._index)

    def hashes(self) -> List[str]:
        """All row keys currently in the store (sorted)."""
        self.refresh()
        return sorted(self._index)

    # -- reads ---------------------------------------------------------- #
    def get(self, digest: str) -> Optional[SimulationResults]:
        """The result stored under ``digest``, or ``None``."""
        hit = self._lookup(digest)
        if hit is None:
            return None
        segment, row = hit
        return SimulationResults.from_dict(segment.row(row))

    # -- writes --------------------------------------------------------- #
    def _new_segment_path(self) -> Path:
        # time_ns (17 hex digits covers year-2500 nanoseconds) keeps lexical
        # order chronological; pid + per-instance seq make concurrent
        # writers collision-free.
        self._append_seq += 1
        stamp = f"{time.time_ns():017x}"
        return self.segment_dir / (
            f"seg-{stamp}-{os.getpid():x}-{self._append_seq}.json"
        )

    def append(self, rows: Iterable[Tuple[str, Mapping]]) -> Optional[Path]:
        """Atomically append one segment holding ``(hash, result_dict)`` rows.

        ``result_dict`` is :meth:`SimulationResults.to_dict` output (or its
        JSON round-trip — both store identically).  Returns the segment
        path, or ``None`` when ``rows`` is empty.
        """
        rows = list(rows)
        if not rows:
            return None
        if not self._manifest_checked or not self.manifest_path.exists():
            self._check_manifest()
            self._write_manifest()
        hashes = [digest for digest, _ in rows]
        payload = {
            "schema": SEGMENT_SCHEMA_VERSION,
            "count": len(rows),
            "hashes": hashes,
            "columns": _rows_to_columns([dict(row) for _, row in rows]),
        }
        path = self._new_segment_path()
        _atomic_write_json(self.segment_dir, path, payload)
        return path

    def append_results(
        self, rows: Iterable[Tuple[str, SimulationResults]]
    ) -> Optional[Path]:
        """:meth:`append` for in-memory :class:`SimulationResults` rows."""
        return self.append((digest, result.to_dict()) for digest, result in rows)

    # -- compaction ----------------------------------------------------- #
    def compact(self) -> CompactStats:
        """Fold every segment into one deduplicated, hash-sorted segment.

        Byte-stable: the output depends only on the set of rows, not on
        segment arrival order (first-write-wins dedup + sort by hash +
        canonical JSON).  Removes the input segments on success; a crash
        between the write and the removals leaves duplicates that the next
        compact folds away.
        """
        self.refresh()
        stats = CompactStats(
            segments_in=len(self._segments),
            rows_in=sum(len(s.hashes) for s in self._segments.values()),
        )
        if not self._index:
            return stats
        rows = []
        for digest in sorted(self._index):
            segment, row = self._index[digest]
            rows.append((digest, segment.row(row)))
        old_names = list(self._segments)
        new_path = self.append(rows)
        for name in old_names:
            if name == new_path.name:
                continue
            try:
                (self.segment_dir / name).unlink()
            except OSError:
                pass
        # Rebuild the in-memory view from disk truth.
        self._segments.clear()
        self._index.clear()
        self.refresh()
        stats.segments_out = len(self._segments)
        stats.rows_out = len(self._index)
        return stats
