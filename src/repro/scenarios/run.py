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
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.scenarios.results import ResultRecord, ResultSet, record_for
from repro.scenarios.spec import SweepSpec


def _executor(jobs, executor):
    from repro.experiments.engine import SweepExecutor

    if executor is not None and jobs is not None:
        raise ValueError("pass either jobs or an explicit executor, not both")
    return executor if executor is not None else SweepExecutor(jobs=jobs)


def run_sweep(
    spec: SweepSpec,
    jobs: Optional[int] = None,
    executor=None,
    keep_results: bool = True,
) -> ResultSet:
    """Run every point of ``spec`` and return its :class:`ResultSet`.

    ``keep_results=False`` drops the full :class:`SimulationResults` from
    each record (scalar metrics only), which keeps large result sets small.
    """
    executor = _executor(jobs, executor)
    sweep_points = spec.expand()
    results = executor.run([sp.point for sp in sweep_points])
    return ResultSet(
        [
            record_for(sp, result, keep_result=keep_results)
            for sp, result in zip(sweep_points, results)
        ]
    )


def iter_results(
    spec: SweepSpec,
    jobs: Optional[int] = None,
    executor=None,
    keep_results: bool = True,
) -> Iterator[ResultRecord]:
    """Yield ``spec``'s records as the engine completes them.

    Cache hits arrive first (instantly); uncached points stream in as
    their worker processes finish.  The union of yielded records equals
    :func:`run_sweep`'s output for the same spec.
    """
    executor = _executor(jobs, executor)
    sweep_points = spec.expand()
    for index, result in executor.run_iter([sp.point for sp in sweep_points]):
        yield record_for(sweep_points[index], result, keep_result=keep_results)
