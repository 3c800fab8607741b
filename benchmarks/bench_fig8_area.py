"""Figure 8: NoC area breakdown (links / buffers / crossbars)."""

from repro.experiments.fig8_area import render_figure8, run_figure8

from bench_common import emit, run_once


def test_figure8_noc_area_breakdown(benchmark):
    breakdowns = run_once(benchmark, run_figure8)
    emit("Figure 8: NoC area breakdown", render_figure8(breakdowns).render())

    mesh = breakdowns["mesh"].total_mm2
    fbfly = breakdowns["flattened_butterfly"].total_mm2
    nocout = breakdowns["noc_out"].total_mm2
    # The paper's headline area claims: NOC-Out smallest, mesh close behind,
    # flattened butterfly several times larger than both.
    assert nocout < mesh < fbfly
    assert fbfly / nocout > 6.0
    assert fbfly / mesh > 4.0
