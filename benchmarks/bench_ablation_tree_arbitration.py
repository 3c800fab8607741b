"""Ablation (Section 4.1): static-priority vs. round-robin tree arbitration."""

from repro.experiments.ablations import (
    render_ablation,
    throughput_by,
    tree_arbitration_spec,
)
from repro.scenarios import run_sweep

from bench_common import emit, run_once


def test_tree_arbitration_ablation(benchmark, run_settings):
    results = run_once(
        benchmark, run_sweep, tree_arbitration_spec(settings=run_settings.scaled(0.7))
    )
    throughput = throughput_by(results, "tree_arbitration")
    emit(
        "Ablation: reduction/dispersion tree arbitration (Data Serving)",
        render_ablation(
            throughput, "NOC-Out tree arbitration", "Arbitration policy"
        ).render(),
    )

    static = throughput["static_priority"]
    round_robin = throughput["round_robin"]
    # The paper argues static priority works well given the low MLP of
    # scale-out workloads; it should be within a few percent of round-robin.
    assert static >= 0.9 * round_robin
