"""Kept only for ``benchmarks/perf/worker.py``; the next benchmark change deletes it."""
