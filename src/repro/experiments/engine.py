"""Parallel, cache-aware experiment engine.

The paper's headline results (Figures 1, 4, 7-9) are cross products of
workloads x topologies x core counts.  Every such point is an isolated,
deterministic discrete-event simulation, so the sweep is embarrassingly
parallel.  This module turns a sweep into explicit data:

* :class:`ExperimentPoint` — one (configuration, run settings) pair with a
  stable content hash that identifies the simulation it describes;
* :class:`ResultCache` — the on-disk result store, one JSON file per
  point named by that hash, so re-running a figure script after touching
  only plotting code is free;
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
    Result-store directory (default ``~/.cache/repro``); results live in
    its ``results/`` subdirectory.
``REPRO_CACHE``
    Set to ``0``/``off``/``false``/``no`` to disable the result cache.
``REPRO_EXPERIMENT_SCALE``
    Consumed by :meth:`RunSettings.from_env` (see
    :mod:`repro.experiments.harness`); scaled settings hash differently, so
    cached results at different scales never collide.
``REPRO_PROFILE``
    Set to ``1`` to run every simulated point under :mod:`cProfile`.  Each
    point writes ``<hash>.pstats`` (raw, for ``snakeviz``/``pstats``) and
    ``<hash>.profile.txt`` (top-20 functions by cumulative time) into
    ``REPRO_CACHE_DIR``, named by the point hash — even when the sweep's
    store is elsewhere.  Cache *hits* are never profiled, so delete the
    point's result file (or disable the cache) to profile an
    already-cached point.  See "Profiling a sweep" in
    ``docs/performance.md``.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import os
import tempfile
import warnings
from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.chip.chip import Chip, SimulationResults, WarmupMemo
from repro.config.system import SystemConfig

#: Worker-count environment variable (default: ``os.cpu_count()``).
JOBS_ENV_VAR = "REPRO_JOBS"
#: Cache-directory environment variable (default: ``~/.cache/repro``).
CACHE_DIR_ENV_VAR = "REPRO_CACHE_DIR"
#: Cache kill-switch environment variable.
CACHE_ENV_VAR = "REPRO_CACHE"
#: Per-point cProfile switch; profiles land in ``REPRO_CACHE_DIR``.
PROFILE_ENV_VAR = "REPRO_PROFILE"
#: How many rows of the cumulative-time table ``*.profile.txt`` keeps.
PROFILE_TOP_N = 20

#: Bump whenever the hash payload or the result file layout changes; old
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
#: Per type: a dataclass's ``(field name, canonical_omit_none)`` pairs, or
#: ``None`` for any other type, so ``is_dataclass`` is asked once per type.
_PLANS: Dict[type, Optional[Tuple[Tuple[str, bool], ...]]] = {}
#: Exact types that canonicalise to themselves (by ``type()``: an ``IntEnum``
#: or ``str``-mixin enum member must still reduce to its plain value).
_LEAVES = frozenset({int, float, str, bool, type(None)})


def _canonical(value):
    """Reduce configs to JSON-stable primitives (enums by value, no tuples).

    Dataclass fields whose metadata carries ``canonical_omit_none`` are
    skipped while they hold ``None``: fields added after results were
    already cached (e.g. ``SystemConfig.workload_map``) use the flag so
    their default keeps every pre-existing cache key byte-identical,
    while any non-None value still hashes in.
    """
    cls = type(value)
    if cls in _LEAVES:
        return value
    try:
        plan = _PLANS[cls]
    except KeyError:
        plan = _PLANS[cls] = None
        if dataclasses.is_dataclass(cls):
            plan = _PLANS[cls] = tuple(
                (field.name, bool(field.metadata.get("canonical_omit_none")))
                for field in dataclasses.fields(cls)
            )
    if plan is not None:
        return {
            name: item if type(item) in _LEAVES else _canonical(item)
            for name, omit_none in plan
            if (item := getattr(value, name)) is not None or not omit_none
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
        The digest is memoised on this instance, outside its fields, under
        the versions it was computed with; never by config value, since
        configs holding ``12`` and ``12.0`` are equal but hash apart.
        """
        versions = (CACHE_SCHEMA_VERSION, MODEL_VERSION)
        memo = self.__dict__.get("_hash_memo")
        if memo is not None and memo[0] == versions:
            return memo[1]
        blob = json.dumps(self.canonical_dict(), sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(blob.encode("utf-8")).hexdigest()
        object.__setattr__(self, "_hash_memo", (versions, digest))
        return digest

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


def execute_point(
    point: ExperimentPoint, memo: Optional[WarmupMemo] = None
) -> SimulationResults:
    """Run one point's simulation (also the process-pool worker function).

    ``memo`` is the warm-up memo :meth:`Chip.warmup` reads and fills;
    :class:`SweepExecutor` passes its own on the serial path, and a pool
    worker, called without one, warms from a fresh dict.

    Under ``REPRO_PROFILE=1`` the run executes inside a :mod:`cProfile`
    profiler and drops ``<hash>.pstats`` plus a rendered top-N table
    (``<hash>.profile.txt``) into the cache directory, keyed like the
    point's cache entry.  Profiling happens here — in the worker, around
    exactly one simulation — so a parallel sweep yields one clean profile
    per point instead of one blended profile per process.
    """
    if profiling_enabled():
        return _execute_point_profiled(point, memo)
    return _simulate(point, memo)


@contextmanager
def frozen_chip(config: SystemConfig) -> Iterator[Chip]:
    """Build ``config``'s chip out of the cyclic collector's sight; close it on exit.

    The young generations are collected first: whatever they hold would
    otherwise be frozen with the chip and thawed into the oldest
    generation, where no automatic pass reaches it during a serial sweep
    (freezing resets the generation counts), so cyclic garbage left
    between points (such as a JSON encoder's closures from the previous
    store write) would pile up.  The chip is then built with automatic
    collection paused, so the growing graph (about 276k tracked objects
    for a 2048-core mesh) triggers no full pass that would walk it and
    find nothing.  The built graph is frozen (:func:`gc.freeze`) and
    collection resumes for the run's own garbage.  On exit
    :meth:`Chip.close` frees the chip by reference counting,
    :func:`gc.unfreeze` returns whatever is still frozen to the oldest
    generation, and the collector is left enabled or disabled as it was
    found, on every exit path.  ``gc.unfreeze`` is process-wide: a host
    program's own :func:`gc.freeze` is thawed too.
    """
    gc.collect(1)
    enabled = gc.isenabled()
    gc.disable()
    try:
        chip = Chip(config)
        gc.freeze()
        if enabled:
            gc.enable()
        try:
            yield chip
        finally:
            chip.close()
    finally:
        gc.unfreeze()
        if enabled:
            gc.enable()


def _simulate(point: ExperimentPoint, memo: Optional[WarmupMemo]) -> SimulationResults:
    # The chip stays frozen until closing has freed it by reference
    # counting, so the collector neither walks it nor is left a cycle.
    with frozen_chip(point.config) as chip:
        return chip.run_experiment(
            warmup_references=point.settings.warmup_references,
            detailed_warmup_cycles=point.settings.detailed_warmup_cycles,
            measure_cycles=point.settings.measure_cycles,
            memo=memo,
        )


def _execute_point_profiled(
    point: ExperimentPoint, memo: Optional[WarmupMemo]
) -> SimulationResults:
    import cProfile
    import io
    import pstats

    profiler = cProfile.Profile()
    result = profiler.runcall(_simulate, point, memo)

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


class CacheCorruptionWarning(UserWarning):
    """A stored result was unreadable and has been quarantined."""


#: Quarantine warns at most once per process (a sweep over a damaged store
#: would otherwise emit one identical warning per file); the quarantine
#: itself still happens for every bad file.
_corruption_warned = False


def _quarantine(path: Path) -> None:
    """Move an unreadable result file aside (``*.corrupt``) and warn once.

    ``os.replace`` keeps this atomic; losing the race against a sibling
    process that already quarantined the file is fine — either way the
    bad file no longer answers lookups.
    """
    global _corruption_warned
    try:
        os.replace(path, path.with_name(path.name + ".corrupt"))
    except OSError:
        return
    if not _corruption_warned:
        _corruption_warned = True
        warnings.warn(
            f"quarantined corrupt result file {path.name} (kept as "
            f"{path.name}.corrupt, its point reads as a miss; further corrupt "
            "files will be quarantined silently)",
            CacheCorruptionWarning,
            stacklevel=3,
        )


class ResultCache:
    """Result store keyed by :meth:`ExperimentPoint.content_hash`.

    Each result is one file, ``<root>/results/<hash>.json``, holding
    :meth:`SimulationResults.to_dict` as sorted-key JSON (``root`` defaults
    to ``REPRO_CACHE_DIR``).  Writes go to a temp file in the same
    directory and ``os.replace`` into place, so readers never see a torn
    file and writers sharing one directory (shards on several machines)
    never contend; two writers of the same point write identical bytes.
    Stores merge by copying ``results/*.json`` from one into the other.

    A file that fails to parse or has the wrong shape is renamed to
    ``*.corrupt`` (warned about once per process with
    :class:`CacheCorruptionWarning`) and reads as a miss, so a damaged
    entry is re-simulated instead of aborting a sweep.  Layout versions
    live in the key: :data:`CACHE_SCHEMA_VERSION` and
    :data:`MODEL_VERSION` are hashed into every file name.  The store has
    no size cap; prune it by deleting files or the directory.
    """

    def __init__(self, root: Optional[os.PathLike] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_root()
        self.results_dir = self.root / "results"

    def path(self, point: ExperimentPoint) -> Path:
        """Where ``point``'s result file lives (whether or not it exists)."""
        return self.results_dir / f"{point.content_hash()}.json"

    def load(self, point: ExperimentPoint) -> Optional[SimulationResults]:
        """Return the stored result for ``point``, or ``None`` on a miss."""
        path = self.path(point)
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            return None
        try:
            return SimulationResults.from_dict(json.loads(raw))
        except (ValueError, TypeError, AttributeError):
            # Torn, hand-edited or wrong-shaped: a miss, kept for diagnosis.
            _quarantine(path)
            return None

    def store(self, point: ExperimentPoint, result: SimulationResults) -> Path:
        """Atomically write ``result`` as the point's file; return its path."""
        path = self.path(point)
        self.results_dir.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=self.results_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                # dumps, not dump: only one-shot encoding takes the C encoder.
                handle.write(
                    json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":"))
                )
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path


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
    :class:`~repro.sim.kernel.Simulator`.  Each point builds its chip with
    automatic collection paused and keeps it frozen (:func:`frozen_chip`),
    so the cyclic collector never walks a chip; it closes the chip
    (:meth:`Chip.close`) before its result is stored, so reference counting
    frees the chip at once and a serial sweep holds one chip at a time.
    Pool workers run points the same way.

    ``warmup_memo`` lives exactly as long as the executor: on the serial
    path every point's :meth:`Chip.warmup` shares it, so a core stream that
    several points draw (the same workload, core count and seed on another
    fabric) is warmed once per executor.  Pool workers warm each point
    from a fresh memo.
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
        self.warmup_memo: WarmupMemo = {}

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
                result = execute_point(point, self.warmup_memo)
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

