"""Execute a :class:`SweepSpec` through the experiment engine.

Two entry points:

* :func:`run_sweep` — blocking; returns a :class:`ResultSet` whose records
  follow the spec's expansion order (dedup, caching and ``REPRO_JOBS``
  fan-out all inherited from :class:`~repro.experiments.engine.SweepExecutor`).
* :func:`iter_results` — a generator yielding each :class:`ResultRecord`
  as its simulation finishes (cached points first, then in completion
  order), so figure scripts and dashboards can render incrementally
  instead of waiting on the whole-batch barrier.  It yields exactly the
  records the blocking call would return, just in a different order.

Both take an optional ``executor``; without one they build a default
:class:`SweepExecutor` (worker count from ``REPRO_JOBS``, the
``REPRO_CACHE_DIR`` store).
"""

from __future__ import annotations

from typing import Iterator

from repro.scenarios.results import ResultRecord, ResultSet, record_for
from repro.scenarios.spec import SweepSpec


def _executor(executor):
    if executor is not None:
        return executor
    from repro.experiments.engine import SweepExecutor

    return SweepExecutor()


def run_sweep(spec: SweepSpec, executor=None) -> ResultSet:
    """Run every point of ``spec`` and return its :class:`ResultSet`."""
    sweep_points = spec.expand()
    results = _executor(executor).run([sp.point for sp in sweep_points])
    return ResultSet(
        [record_for(sp, result) for sp, result in zip(sweep_points, results)]
    )


def iter_results(spec: SweepSpec, executor=None) -> Iterator[ResultRecord]:
    """Yield ``spec``'s records as the engine completes them.

    Cache hits arrive first (instantly); uncached points stream in as
    their worker processes finish.  The union of yielded records equals
    :func:`run_sweep`'s output for the same spec.
    """
    executor = _executor(executor)
    sweep_points = spec.expand()
    for index, result in executor.run_iter([sp.point for sp in sweep_points]):
        yield record_for(sweep_points[index], result)
