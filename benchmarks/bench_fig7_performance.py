"""Figure 7: system performance normalised to the mesh (six workloads + gmean)."""

from repro.config.noc import Topology
from repro.experiments.fig7_performance import (
    figure7_spec,
    normalise_to_mesh,
    render_figure7,
)
from repro.scenarios import run_sweep

from bench_common import emit, run_once


def test_figure7_system_performance(benchmark, run_settings):
    normalised = normalise_to_mesh(
        run_once(benchmark, run_sweep, figure7_spec(settings=run_settings))
    )
    emit(
        "Figure 7: system performance normalised to mesh",
        render_figure7(normalised).render(),
    )

    gmean = normalised["GMean"]
    fbfly = gmean[Topology.FLATTENED_BUTTERFLY.value]
    nocout = gmean[Topology.NOC_OUT.value]
    # Paper: the flattened butterfly improves on the mesh by ~17 % and
    # NOC-Out matches it.  Accept the qualitative shape with slack.
    assert 1.05 <= fbfly <= 1.40
    assert 1.05 <= nocout <= 1.45
    assert abs(nocout - fbfly) <= 0.15
    # Data Serving is the most latency-sensitive workload.
    fbfly_by_workload = {
        name: row[Topology.FLATTENED_BUTTERFLY.value]
        for name, row in normalised.items()
        if name != "GMean"
    }
    assert max(fbfly_by_workload, key=fbfly_by_workload.get) == "Data Serving"
