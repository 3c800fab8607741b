"""The figure sweep specs the store layer fills and serves.

Resolves a figure name to its ``*_spec()`` factory through the one figure
table, :data:`repro.reporting.figures.FIGURES`: every figure with a spec
(all but the purely analytic ``fig8``, plus the on-demand ``scale_out``
and ``colocation`` sweeps), so the query CLI (``python -m
repro.store.query pivot fig7 ...``) and its fill hints can resolve a
sweep by name.  ``power`` reuses the Figure-7 sweep — the power analysis
post-processes those very records.
"""

from __future__ import annotations

from typing import List

from repro.reporting.figures import FIGURES, resolve
from repro.scenarios.spec import SweepSpec


def spec_names() -> List[str]:
    """All figures with a sweep spec, in table order."""
    return [name for name, figure in FIGURES.items() if figure.spec]


def figure_spec(name: str, settings=None) -> SweepSpec:
    """The sweep spec for ``name`` (KeyError lists what exists).

    ``settings=None`` honours the environment via each factory's
    ``RunSettings.from_env()`` default.
    """
    if name not in spec_names():
        raise KeyError(f"unknown sweep {name!r}; available: {spec_names()}")
    return resolve(FIGURES[name].spec)(settings=settings)


def report_points(settings=None):
    """Every :class:`SweepPoint` any default report figure needs, deduplicated.

    The union of the expansions of every figure with both a spec and a
    report hook (first occurrence wins), i.e. the full warm-store working
    set behind ``python -m repro.reporting``.  Sweeps without a report
    hook (``scale_out``, ``colocation``) are on-demand — fill them by
    passing their names to :func:`figure_spec` yourself.
    """
    seen = {}
    for name, figure in FIGURES.items():
        if not (figure.spec and figure.report):
            continue
        for sweep_point in figure_spec(name, settings).expand():
            seen.setdefault(sweep_point.content_hash(), sweep_point)
    return list(seen.values())
