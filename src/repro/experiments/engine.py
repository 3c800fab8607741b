"""Parallel, cache-aware experiment engine.

The paper's headline results (Figures 1, 4, 7-9) are cross products of
workloads x topologies x core counts.  Every such point is an isolated,
deterministic discrete-event simulation, so the sweep is embarrassingly
parallel.  This module turns a sweep into explicit data:

* :class:`ExperimentPoint` — one (configuration, run settings) pair with a
  stable content hash that identifies the simulation it describes;
* :class:`ResultCache` — an on-disk columnar result store
  (:mod:`repro.store`) keyed by that hash, so re-running a figure script
  after touching only plotting code is free;
* :class:`SweepExecutor` — fans points out over a
  :class:`~concurrent.futures.ProcessPoolExecutor` (worker count from the
  ``REPRO_JOBS`` environment variable, default ``os.cpu_count()``), with a
  serial fallback for ``REPRO_JOBS=1`` that is bit-identical to the
  pre-engine behaviour.

Environment variables
---------------------
(The canonical ``REPRO_*`` reference table lives in
``docs/experiments.md``; this list covers the engine's own knobs.)

``REPRO_JOBS``
    Worker processes for a sweep.  ``1`` forces the serial path.
``REPRO_CACHE_DIR``
    Result-store directory (default ``~/.cache/repro``).
``REPRO_CACHE``
    Set to ``0``/``off``/``false``/``no`` to disable the result cache.
``REPRO_EXPERIMENT_SCALE``
    Consumed by :meth:`RunSettings.from_env` (see
    :mod:`repro.experiments.harness`); scaled settings hash differently, so
    cached results at different scales never collide.
``REPRO_PROFILE``
    Set to ``1`` to run every simulated point under :mod:`cProfile`.  Each
    point writes ``<hash>.pstats`` (raw, for ``snakeviz``/``pstats``) and
    ``<hash>.profile.txt`` (top-20 functions by cumulative time) into the
    cache directory, next to the point's cache entry — cache *hits* are
    never profiled, so delete the entry (or disable the cache) to profile
    an already-cached point.  See "Profiling a sweep" in
    ``docs/performance.md``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.chip.chip import Chip, SimulationResults
from repro.config.system import SystemConfig

#: Worker-count environment variable (default: ``os.cpu_count()``).
JOBS_ENV_VAR = "REPRO_JOBS"
#: Cache-directory environment variable (default: ``~/.cache/repro``).
CACHE_DIR_ENV_VAR = "REPRO_CACHE_DIR"
#: Cache kill-switch environment variable.
CACHE_ENV_VAR = "REPRO_CACHE"
#: Per-point cProfile switch; profiles land next to the cache entries.
PROFILE_ENV_VAR = "REPRO_PROFILE"
#: How many rows of the cumulative-time table ``*.profile.txt`` keeps.
PROFILE_TOP_N = 20

#: Bump whenever the hash payload or the cache file layout changes; old
#: entries then read as misses instead of deserialisation errors.
CACHE_SCHEMA_VERSION = 2

#: Version of the *simulator model itself*, hashed into every cache key.
#:
#: The key derived from :meth:`ExperimentPoint.canonical_dict` covers the
#: full configuration and run settings but cannot see simulator source
#: changes, so without this constant a behavioural change to the kernel,
#: routers, caches or cores would silently serve stale results out of
#: ``REPRO_CACHE_DIR``.  Policy: **bump MODEL_VERSION in the same commit as
#: any change that alters simulation outputs** (timing, protocol, workload
#: generation, RNG draws...); purely cosmetic refactors keep it.  Bumping
#: invalidates every cached result, which is exactly the point.
#:
#: History:
#:   1 — seed model (poll-driven routers, stale-wake double ticks).
#:   2 — event-driven router/NI wake-ups; Component.wake stale-tick fix.
MODEL_VERSION = 2


# --------------------------------------------------------------------- #
# Canonical serialisation
# --------------------------------------------------------------------- #
def _canonical(value):
    """Reduce configs to JSON-stable primitives (enums by value, no tuples).

    Dataclass fields whose metadata carries ``canonical_omit_none`` are
    skipped while they hold ``None``: fields added after results were
    already cached (e.g. ``SystemConfig.workload_map``) use the flag so
    their default keeps every pre-existing cache key byte-identical,
    while any non-None value still hashes in.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: _canonical(getattr(value, field.name))
            for field in dataclasses.fields(value)
            if not (
                field.metadata.get("canonical_omit_none")
                and getattr(value, field.name) is None
            )
        }
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, dict):
        return {str(key): _canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    return value


@dataclass(frozen=True)
class ExperimentPoint:
    """One point of a sweep: a complete chip config plus its run windows."""

    config: SystemConfig
    settings: "RunSettings"  # noqa: F821 — imported lazily to avoid a cycle

    def __post_init__(self) -> None:
        if self.config.workload is None:
            raise ValueError("ExperimentPoint requires a config with a workload")

    def canonical_dict(self) -> Dict[str, object]:
        """JSON-stable description of the point (what the hash covers)."""
        return {
            "schema": CACHE_SCHEMA_VERSION,
            "model": MODEL_VERSION,
            "config": _canonical(self.config),
            "settings": _canonical(self.settings),
        }

    def content_hash(self) -> str:
        """Stable SHA-256 over the canonical description.

        Unlike ``hash()``, this is identical across processes and Python
        invocations, so it can key an on-disk cache shared between runs.
        """
        blob = json.dumps(self.canonical_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def describe(self) -> str:
        """Short human-readable label (for logs and error messages)."""
        from repro.config.noc import topology_key

        workload = self.config.workload.name if self.config.workload else "?"
        return (
            f"{workload} / {topology_key(self.config.noc.topology)} / "
            f"{self.config.num_cores} cores"
        )


def profiling_enabled() -> bool:
    return os.environ.get(PROFILE_ENV_VAR, "").strip().lower() not in (
        "",
        "0",
        "off",
        "false",
        "no",
    )


def execute_point(point: ExperimentPoint) -> SimulationResults:
    """Run one point's simulation (also the process-pool worker function).

    Under ``REPRO_PROFILE=1`` the run executes inside a :mod:`cProfile`
    profiler and drops ``<hash>.pstats`` plus a rendered top-N table
    (``<hash>.profile.txt``) into the cache directory, keyed like the
    point's cache entry.  Profiling happens here — in the worker, around
    exactly one simulation — so a parallel sweep yields one clean profile
    per point instead of one blended profile per process.
    """
    if profiling_enabled():
        return _execute_point_profiled(point)
    return _simulate(point)


def _simulate(point: ExperimentPoint) -> SimulationResults:
    return Chip(point.config).run_experiment(
        warmup_references=point.settings.warmup_references,
        detailed_warmup_cycles=point.settings.detailed_warmup_cycles,
        measure_cycles=point.settings.measure_cycles,
    )


def _execute_point_profiled(point: ExperimentPoint) -> SimulationResults:
    import cProfile
    import io
    import pstats

    profiler = cProfile.Profile()
    result = profiler.runcall(_simulate, point)

    root = default_cache_root()
    root.mkdir(parents=True, exist_ok=True)
    stem = point.content_hash()
    profiler.dump_stats(root / f"{stem}.pstats")
    table = io.StringIO()
    stats = pstats.Stats(profiler, stream=table).sort_stats("cumulative")
    table.write(f"# {point.describe()}\n# point hash: {stem}\n")
    stats.print_stats(PROFILE_TOP_N)
    (root / f"{stem}.profile.txt").write_text(table.getvalue())
    return result


# --------------------------------------------------------------------- #
# On-disk result cache
# --------------------------------------------------------------------- #
def default_cache_root() -> Path:
    env = os.environ.get(CACHE_DIR_ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro"


def cache_enabled() -> bool:
    return os.environ.get(CACHE_ENV_VAR, "1").strip().lower() not in (
        "0",
        "off",
        "false",
        "no",
    )


class ResultCache:
    """Result store keyed by :meth:`ExperimentPoint.content_hash`.

    A thin adapter from experiment points to a :class:`ColumnarStore` at
    ``root`` (default ``REPRO_CACHE_DIR``): ``load`` looks the point's hash
    up, ``store`` appends a one-row segment.  Segments that fail to parse
    are quarantined by the store (renamed to ``*.corrupt``, warned about
    once per process with
    :class:`~repro.store.columnar.CacheCorruptionWarning`) and their rows
    read as misses, so a damaged entry is re-simulated instead of aborting
    a sweep.

    The store is an append-only archive without a size cap: prune it with
    :meth:`ColumnarStore.compact` or by deleting the directory.
    """

    def __init__(self, root: Optional[os.PathLike] = None) -> None:
        # Imported here so that processes which never open a store (bare
        # network runs, cache-less sweeps) do not pay for the store module.
        from repro.store.columnar import ColumnarStore

        self.root = Path(root) if root is not None else default_cache_root()
        self.columnar = ColumnarStore(self.root)

    def load(self, point: ExperimentPoint) -> Optional[SimulationResults]:
        """Return the stored result for ``point``, or ``None`` on a miss."""
        return self.columnar.get(point.content_hash())

    def store(self, point: ExperimentPoint, result: SimulationResults) -> Path:
        """Atomically append ``result`` under the point's hash; return its segment."""
        return self.columnar.append_results([(point.content_hash(), result)])


# --------------------------------------------------------------------- #
# Sweep execution
# --------------------------------------------------------------------- #
def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker count: explicit argument > ``REPRO_JOBS`` > ``os.cpu_count()``."""
    if jobs is None:
        env = os.environ.get(JOBS_ENV_VAR)
        if env:
            try:
                jobs = int(env)
            except ValueError as exc:
                raise ValueError(f"{JOBS_ENV_VAR} must be an integer, got {env!r}") from exc
        else:
            jobs = os.cpu_count() or 1
    if jobs < 1:
        raise ValueError(f"job count must be >= 1, got {jobs}")
    return jobs


@dataclass
class SweepStats:
    """What :meth:`SweepExecutor.run` calls actually did."""

    cache_hits: int = 0
    cache_misses: int = 0
    simulations_run: int = 0


class SweepExecutor:
    """Runs a batch of :class:`ExperimentPoint`\\ s, caching and fanning out.

    ``jobs=1`` (or ``REPRO_JOBS=1``) executes points serially in-process,
    bit-identical to the pre-engine loops; higher counts dispatch uncached
    points to a process pool.  Per-point results are independent of the
    worker count because every simulation seeds its own
    :class:`~repro.sim.kernel.Simulator`.
    """

    def __init__(
        self, jobs: Optional[int] = None, cache: Optional[ResultCache] = None
    ) -> None:
        self.jobs = resolve_jobs(jobs)
        if cache is None and cache_enabled():
            cache = ResultCache()
        self.cache: Optional[ResultCache] = cache
        self.last_stats = SweepStats()
        self.total_stats = SweepStats()

    def run(self, points: Iterable[ExperimentPoint]) -> List[SimulationResults]:
        """Execute ``points`` and return their results in the same order."""
        points = list(points)
        results: List[Optional[SimulationResults]] = [None] * len(points)
        for index, result in self.run_iter(points):
            results[index] = result
        return results  # type: ignore[return-value]

    def run_iter(
        self, points: Iterable[ExperimentPoint]
    ) -> Iterator[Tuple[int, SimulationResults]]:
        """Yield ``(index, result)`` pairs as points complete.

        Cache hits are yielded first (instantly); the uncached remainder
        streams in as worker processes finish, each result stored to the
        cache the moment it lands.  Indices refer to positions in the input
        sequence; duplicate points share one simulation and yield once per
        index.  This is the engine-level primitive behind
        :func:`repro.scenarios.run.iter_results`.

        ``last_stats`` describes this call alone; ``total_stats`` sums every
        call, which is what a multi-sweep report prints.
        """
        stats = SweepStats()
        self.last_stats = stats
        try:
            yield from self._run_iter(list(points), stats)
        finally:
            # Even an abandoned stream (the consumer broke out of
            # iter_results) adds what it completed.
            total = self.total_stats
            total.cache_hits += stats.cache_hits
            total.cache_misses += stats.cache_misses
            total.simulations_run += stats.simulations_run

    def _run_iter(
        self, points: List[ExperimentPoint], stats: SweepStats
    ) -> Iterator[Tuple[int, SimulationResults]]:
        """:meth:`run_iter`'s body: dedup, cache lookups, then simulation."""
        # Identical points (same content hash) are simulated only once.
        groups: Dict[str, List[int]] = {}
        for index, point in enumerate(points):
            groups.setdefault(point.content_hash(), []).append(index)

        pending: List[ExperimentPoint] = []
        pending_indices: List[List[int]] = []
        for digest, indices in groups.items():
            point = points[indices[0]]
            cached = self.cache.load(point) if self.cache is not None else None
            if cached is not None:
                stats.cache_hits += len(indices)
                for index in indices:
                    yield index, cached
            else:
                stats.cache_misses += len(indices)
                pending.append(point)
                pending_indices.append(indices)

        if not pending:
            return
        # simulations_run counts *completed* simulations, so an abandoned
        # run_iter consumer leaves accurate stats behind.
        if self.jobs == 1 or len(pending) == 1:
            for point, indices in zip(pending, pending_indices):
                result = execute_point(point)
                stats.simulations_run += 1
                if self.cache is not None:
                    self.cache.store(point, result)
                for index in indices:
                    yield index, result
        else:
            workers = min(self.jobs, len(pending))
            pool = ProcessPoolExecutor(max_workers=workers)
            futures = {
                pool.submit(execute_point, point): position
                for position, point in enumerate(pending)
            }
            yielded = set()
            consumed_fully = False
            try:
                for future in as_completed(futures):
                    position = futures[future]
                    result = future.result()
                    stats.simulations_run += 1
                    if self.cache is not None:
                        self.cache.store(pending[position], result)
                    yielded.add(position)
                    for index in pending_indices[position]:
                        yield index, result
                consumed_fully = True
            finally:
                # If the consumer abandoned the generator, harvest (and
                # cache) whatever already finished, cancel the queued rest,
                # and return without waiting on in-flight simulations.
                if not consumed_fully:
                    for future, position in futures.items():
                        if (
                            position not in yielded
                            and future.done()
                            and not future.cancelled()
                            and future.exception() is None
                        ):
                            stats.simulations_run += 1
                            if self.cache is not None:
                                self.cache.store(pending[position], future.result())
                pool.shutdown(wait=consumed_fully, cancel_futures=True)

