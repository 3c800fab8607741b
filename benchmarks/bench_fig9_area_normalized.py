"""Figure 9: performance under a fixed NoC area budget (NOC-Out's 2.5 mm2)."""

from repro.config.noc import Topology
from repro.experiments.fig9_area_normalized import (
    figure9_outcome,
    figure9_spec,
    render_figure9,
)
from repro.scenarios import run_sweep

from bench_common import emit, run_once


def test_figure9_area_normalized_performance(benchmark, run_settings):
    outcome = figure9_outcome(
        run_once(benchmark, run_sweep, figure9_spec(settings=run_settings))
    )
    emit(
        "Figure 9: performance under a fixed NoC area budget",
        render_figure9(outcome).render(),
    )

    widths = outcome["link_widths"]
    # The flattened butterfly must shed far more link width than the mesh to
    # fit in NOC-Out's area budget.
    assert widths["flattened_butterfly"] < widths["mesh"]

    gmean = outcome["normalised_performance"]["GMean"]
    nocout = gmean[Topology.NOC_OUT.value]
    fbfly = gmean[Topology.FLATTENED_BUTTERFLY.value]
    # Paper: NOC-Out beats the area-budgeted mesh by ~19 % and the
    # area-budgeted flattened butterfly by ~65 % (i.e. the butterfly falls
    # below the mesh once serialization bites).
    assert nocout > 1.05
    assert fbfly < nocout
    assert fbfly < 1.1
