"""Figure 1: per-core performance vs. core count, ideal vs. mesh interconnect."""

from repro.experiments.fig1_scaling import (
    figure1_spec,
    mesh_penalty,
    normalise_figure1,
    render_figure1,
)
from repro.scenarios import run_sweep

from bench_common import emit, run_once


def test_figure1_core_count_scaling(benchmark, run_settings):
    results = run_once(
        benchmark, run_sweep, figure1_spec(settings=run_settings.scaled(0.6))
    )
    curves = normalise_figure1(results)
    emit(
        "Figure 1: per-core performance vs. core count",
        render_figure1(curves).render(),
    )

    penalty = mesh_penalty(curves, core_count=64)
    print(f"Mesh penalty vs. ideal at 64 cores: {penalty:.1%} (paper: ~22%)")

    for workload, data in curves.items():
        # Per-core performance degrades as the chip grows...
        assert data["mesh"][64] < data["mesh"][1] * 1.05
        # ...and the mesh is never faster than the ideal fabric at scale.
        assert data["mesh"][64] <= data["ideal"][64] * 1.02
    assert penalty > 0.05
