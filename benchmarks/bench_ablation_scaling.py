"""Ablation (Section 7.1): concentration and express links at 128 cores."""

from repro.experiments.ablations import render_ablation, scaling_spec, scaling_throughput
from repro.scenarios import run_sweep

from bench_common import emit, run_once


def test_scaling_extensions_ablation(benchmark, run_settings):
    results = run_once(
        benchmark, run_sweep, scaling_spec(settings=run_settings.scaled(0.6))
    )
    throughput = scaling_throughput(results)
    emit(
        "Ablation: 128-core NOC-Out scaling extensions (MapReduce-W)",
        render_ablation(
            throughput, "NOC-Out scaling extensions", "Tree variant"
        ).render(),
    )

    baseline = throughput["tall trees"]
    # The extensions keep a 128-core chip functional and competitive: neither
    # concentration nor express links should collapse performance.
    for label, value in throughput.items():
        assert value >= 0.8 * baseline, label
    # Express links shorten the tall trees and should not hurt.
    assert throughput["express links"] >= 0.95 * baseline
