"""Old home of ``report_points``, kept only because the frozen benchmark
harness ``benchmarks/perf/worker.py`` imports it from here; the next
benchmark change deletes this package.  Import from
:mod:`repro.reporting.figures` instead."""

from repro.reporting.figures import report_points  # noqa: F401
