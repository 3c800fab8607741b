"""Ablation (Section 4.3): LLC banking degree in the NOC-Out organization.

The paper chooses 16 banks (two per LLC tile) after observing that four
cores per bank performs within ~2 % of one core per bank.
"""

from repro.experiments.ablations import llc_banking_spec, render_ablation, throughput_by
from repro.scenarios import run_sweep

from bench_common import emit, run_once


def test_llc_banking_ablation(benchmark, run_settings):
    results = run_once(
        benchmark, run_sweep, llc_banking_spec(settings=run_settings.scaled(0.7))
    )
    throughput = throughput_by(results, "llc_banks_per_tile")
    emit(
        "Ablation: LLC banks per NOC-Out tile (Data Serving)",
        render_ablation(
            throughput, "NOC-Out LLC banking", "Banks per LLC tile"
        ).render(),
    )

    most_banked = throughput[max(throughput)]
    paper_choice = throughput[2]
    # Two banks per tile stays within a few percent of the most banked design.
    assert paper_choice >= 0.9 * most_banked
    # Banking never hurts by construction of bank-level parallelism.
    assert throughput[max(throughput)] >= throughput[min(throughput)] * 0.95
