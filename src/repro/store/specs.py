"""Registry of the figure sweep specs the store layer fills and serves.

Maps the reportable figure names (the keys of
:data:`repro.reporting.figures.REPORTERS`, minus the purely analytic
``fig8``) plus the on-demand ``scale_out`` and ``colocation`` chapters to
their ``*_spec()`` factories, so the query CLI
(``python -m repro.store.query pivot fig7 ...``) and its fill hints can
resolve a sweep by name.  ``power`` reuses the Figure-7 sweep — the power analysis
post-processes those very records.

Imports are lazy for the same reason as :mod:`repro.reporting.figures`:
:mod:`repro.experiments` imports the reporting package at module level,
so an eager import in the other direction would cycle.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.scenarios.spec import SweepSpec


def _fig1(settings):
    from repro.experiments.fig1_scaling import figure1_spec

    return figure1_spec(settings=settings)


def _fig4(settings):
    from repro.experiments.fig4_snoops import figure4_spec

    return figure4_spec(settings=settings)


def _fig7(settings):
    from repro.experiments.fig7_performance import figure7_spec

    return figure7_spec(settings=settings)


def _fig9(settings):
    from repro.experiments.fig9_area_normalized import figure9_spec

    return figure9_spec(settings=settings)


def _power(settings):
    # The Section-6.4 power summary is post-processing over the Figure-7
    # sweep; filling fig7 warms power too.
    return _fig7(settings)


def _ablation_banking(settings):
    from repro.experiments.ablations import llc_banking_spec

    return llc_banking_spec(settings=settings)


def _ablation_arbitration(settings):
    from repro.experiments.ablations import tree_arbitration_spec

    return tree_arbitration_spec(settings=settings)


def _ablation_scaling(settings):
    from repro.experiments.ablations import scaling_spec

    return scaling_spec(settings=settings)


def _scale_out(settings):
    from repro.experiments.scale_out import scale_out_spec

    return scale_out_spec(settings=settings)


def _colocation(settings):
    from repro.experiments.colocation import colocation_spec

    return colocation_spec(settings=settings)


#: Figure name -> spec factory taking ``settings`` (None = honour the
#: environment via each factory's ``RunSettings.from_env()`` default).
SPEC_FACTORIES: Dict[str, Callable[[Optional[object]], SweepSpec]] = {
    "fig1": _fig1,
    "fig4": _fig4,
    "fig7": _fig7,
    "fig9": _fig9,
    "power": _power,
    "ablation_banking": _ablation_banking,
    "ablation_arbitration": _ablation_arbitration,
    "ablation_scaling": _ablation_scaling,
    "scale_out": _scale_out,
    "colocation": _colocation,
}


def spec_names() -> List[str]:
    """All registered sweep names, in registration order."""
    return list(SPEC_FACTORIES)


def figure_spec(name: str, settings=None) -> SweepSpec:
    """The registered sweep spec for ``name`` (KeyError lists what exists)."""
    try:
        factory = SPEC_FACTORIES[name]
    except KeyError:
        raise KeyError(
            f"unknown sweep {name!r}; available: {spec_names()}"
        ) from None
    return factory(settings)


def report_points(settings=None):
    """Every :class:`SweepPoint` any default report figure needs, deduplicated.

    The union of all registered specs' expansions (first occurrence wins),
    i.e. the full warm-store working set behind ``python -m
    repro.reporting``.  ``scale_out`` and ``colocation`` are on-demand
    chapters — fill them by passing their names to :func:`figure_spec`
    yourself; this helper covers only the committed-report set.
    """
    seen = {}
    for name in spec_names():
        if name in ("scale_out", "colocation"):
            continue
        for sweep_point in figure_spec(name, settings).expand():
            seen.setdefault(sweep_point.content_hash(), sweep_point)
    return list(seen.values())
