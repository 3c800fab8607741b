"""The figure table: every named figure's sweep spec and report hook.

Each reproduced figure/ablation module under :mod:`repro.experiments`
exposes a ``*_spec()`` factory (the sweep the store fills and serves)
and/or a ``*_report()`` hook returning a
:class:`~repro.reporting.compare.FigureReport`.  :data:`FIGURES` maps the
figure names (``fig1``, ``fig4``, ... see :mod:`repro.reporting.baselines`)
to both, so the report CLI, ``scripts/make_report.py`` and the store's
query CLI (:mod:`repro.store.specs`) resolve figures by name from one
place.

The hooks are named as ``"module:function"`` under
:mod:`repro.experiments` and imported lazily: :mod:`repro.experiments`
imports this package at module level (for :class:`FigureReport` and the
baselines), so an eager import in the other direction would cycle.

:func:`build_report` forwards only the keyword arguments a hook actually
accepts — ``fig8`` is analytic and takes no run settings, the ablations
fix their workload — so one call site can drive every figure with the
same ``settings`` / ``jobs`` / ``executor`` / ``workload_names`` /
``core_counts`` knobs.
"""

from __future__ import annotations

import importlib
import inspect
from typing import Callable, Dict, List, NamedTuple, Optional

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


def build_report(figure: str, **kwargs) -> FigureReport:
    """Build ``figure``'s :class:`FigureReport`, forwarding applicable kwargs.

    ``kwargs`` may include ``settings``, ``jobs``, ``executor``,
    ``workload_names`` and ``core_counts``; anything the figure's hook does
    not accept is dropped (``None`` values are dropped too, so hook
    defaults stay in charge).
    """
    if figure not in report_names():
        raise KeyError(f"unknown figure {figure!r}; available: {report_names()}")
    hook = resolve(FIGURES[figure].report)
    accepted = inspect.signature(hook).parameters
    applicable = {
        key: value
        for key, value in kwargs.items()
        if key in accepted and value is not None
    }
    return hook(**applicable)
