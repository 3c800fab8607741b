"""Figure 4: percentage of LLC accesses that trigger a snoop message."""

from repro.experiments.fig4_snoops import figure4_spec, render_figure4, snoop_rates
from repro.scenarios import run_sweep

from bench_common import emit, run_once


def test_figure4_snoop_rates(benchmark, run_settings):
    rates = snoop_rates(
        run_once(benchmark, run_sweep, figure4_spec(settings=run_settings))
    )
    emit("Figure 4: snoop-triggering LLC accesses (%)", render_figure4(rates).render())

    # The paper's core observation: coherence activity is negligible, with
    # on the order of two snoop-triggering accesses per 100 LLC accesses.
    assert all(rate < 10.0 for rate in rates.values())
    assert 0.0 < rates["Mean"] < 5.0
