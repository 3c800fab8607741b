"""The figure table: every named figure's sweep spec and report hook.

A reproduced figure/ablation module under :mod:`repro.experiments`
exposes a ``*_spec()`` factory (the sweep the store fills and serves) and
a ``*_report(results)`` hook that turns the sweep's
:class:`~repro.scenarios.results.ResultSet` into a
:class:`~repro.reporting.compare.FigureReport`.  :data:`FIGURES` maps the
figure names (``fig1``, ``fig4``, ... see :mod:`repro.reporting.baselines`)
to both, so the report CLI (its report and its ``pivot`` command) and
``scripts/make_report.py`` resolve figures by name from one place:
:func:`spec_names`, :func:`figure_spec` and :func:`report_points` name
the sweeps a store is filled and served from.

The hooks are named as ``"module:function"`` under
:mod:`repro.experiments` and imported lazily: :mod:`repro.experiments`
imports this package at module level (for :class:`FigureReport` and the
baselines), so an eager import in the other direction would cycle.

:func:`build_report` is the one place that runs a figure's spec: it
builds the spec (forwarding only the keyword arguments the factory
accepts), runs it through the given executor and hands the results to
the report hook.  ``fig8`` is analytic: it has no spec and its hook takes
no results.
"""

from __future__ import annotations

import importlib
import inspect
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence

from repro.reporting.compare import FigureReport


class Figure(NamedTuple):
    """One figure's hooks as ``"module:function"`` refs (``None`` = none)."""

    spec: Optional[str]
    report: Optional[str]


#: Figure name -> its spec factory and report hook.  The reported figures
#: come first, in :data:`repro.reporting.baselines.BASELINES` order.
#: ``fig8`` is analytic (no sweep); ``power`` post-processes the Figure-7
#: sweep; ``scale_out`` and ``colocation`` are on-demand sweeps without a
#: report hook, so the default report stays resolvable from the committed
#: warm cache.
FIGURES: Dict[str, Figure] = {
    "fig1": Figure("fig1_scaling:figure1_spec", "fig1_scaling:figure1_report"),
    "fig4": Figure("fig4_snoops:figure4_spec", "fig4_snoops:figure4_report"),
    "fig7": Figure("fig7_performance:figure7_spec", "fig7_performance:figure7_report"),
    "fig8": Figure(None, "fig8_area:figure8_report"),
    "fig9": Figure(
        "fig9_area_normalized:figure9_spec", "fig9_area_normalized:figure9_report"
    ),
    "power": Figure("fig7_performance:figure7_spec", "power_analysis:power_report"),
    "ablation_banking": Figure(
        "ablations:llc_banking_spec", "ablations:llc_banking_report"
    ),
    "ablation_arbitration": Figure(
        "ablations:tree_arbitration_spec", "ablations:tree_arbitration_report"
    ),
    "ablation_scaling": Figure("ablations:scaling_spec", "ablations:scaling_report"),
    "scale_out": Figure("scale_out:scale_out_spec", None),
    "colocation": Figure("colocation:colocation_spec", None),
}


def resolve(ref: str) -> Callable:
    """Import the ``"module:function"`` ref under :mod:`repro.experiments`."""
    module, function = ref.split(":")
    return getattr(importlib.import_module(f"repro.experiments.{module}"), function)


def report_names() -> List[str]:
    """All reportable figure names, in report order."""
    return [name for name, figure in FIGURES.items() if figure.report]


def spec_names() -> List[str]:
    """All figures with a sweep spec, in table order."""
    return [name for name, figure in FIGURES.items() if figure.spec]


def figure_spec(name: str, settings=None):
    """The :class:`~repro.scenarios.spec.SweepSpec` for ``name``.

    An unknown name raises ``KeyError`` listing what exists.
    ``settings=None`` honours the environment via each factory's
    ``RunSettings.from_env()`` default.  ``power`` reuses the Figure-7
    sweep: the power analysis post-processes those very records.
    """
    if name not in spec_names():
        raise KeyError(f"unknown sweep {name!r}; available: {spec_names()}")
    return resolve(FIGURES[name].spec)(settings=settings)


def report_points(settings=None):
    """Every :class:`SweepPoint` any default report figure needs, deduplicated.

    The union of the expansions of every figure with both a spec and a
    report hook (first occurrence wins), i.e. the full warm-store working
    set behind ``python -m repro.reporting``.  Sweeps without a report
    hook (``scale_out``, ``colocation``) are on-demand: fill them by
    passing their names to :func:`figure_spec` yourself.
    """
    seen = {}
    for name, figure in FIGURES.items():
        if not (figure.spec and figure.report):
            continue
        for sweep_point in figure_spec(name, settings).expand():
            seen.setdefault(sweep_point.content_hash(), sweep_point)
    return list(seen.values())


def build_report(
    figure: str,
    *,
    settings=None,
    executor=None,
    workload_names: Optional[Sequence[str]] = None,
    core_counts: Optional[Sequence[int]] = None,
) -> FigureReport:
    """Run ``figure``'s sweep through ``executor`` and report on the results.

    ``settings``, ``workload_names`` and ``core_counts`` go to the spec
    factory if it accepts them (``None`` values are dropped, so factory
    defaults stay in charge); ``executor=None`` runs the sweep on a
    default :class:`~repro.experiments.engine.SweepExecutor`.
    """
    if figure not in report_names():
        raise KeyError(f"unknown figure {figure!r}; available: {report_names()}")
    entry = FIGURES[figure]
    report = resolve(entry.report)
    if entry.spec is None:
        return report()
    from repro.scenarios.run import run_sweep

    factory = resolve(entry.spec)
    accepted = inspect.signature(factory).parameters
    given = dict(
        settings=settings, workload_names=workload_names, core_counts=core_counts
    )
    spec = factory(
        **{k: v for k, v in given.items() if k in accepted and v is not None}
    )
    return report(run_sweep(spec, executor=executor))
