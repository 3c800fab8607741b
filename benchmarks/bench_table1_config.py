"""Table 1: evaluation parameters."""

from repro.experiments.table1 import render_table1, run_table1

from bench_common import emit, run_once


def test_table1_configuration(benchmark):
    parameters = run_once(benchmark, run_table1)
    emit("Table 1: evaluation parameters", render_table1(parameters).render())
    assert "64 cores" in parameters["CMP features"]
    assert "8MB" in parameters["CMP features"]
