"""Statistics primitives: counters, histograms and hierarchical groups."""

from __future__ import annotations

import math
import random
import zlib
from typing import Dict, Iterable, List, Optional, Union


class StatError(ValueError):
    """Raised when a statistic is queried or updated in an invalid way."""


#: Default retained-sample cap for reservoir histograms.  A fixed module
#: constant on purpose: making this environment-tunable would change
#: results without changing cache keys.
DEFAULT_RESERVOIR = 8192


class Counter:
    """A monotonically updated scalar statistic.

    Monotonicity is enforced: :meth:`add` rejects negative amounts, so a
    counter can never silently run backwards (use :meth:`reset` to start a
    new measurement interval).
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0

    def add(self, amount: Union[int, float] = 1) -> None:
        if amount < 0:
            raise StatError(
                f"{self.name}: counters are monotonic, cannot add {amount}"
            )
        self.value += amount

    def reset(self) -> None:
        self.value = 0

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Histogram:
    """Streaming histogram tracking count/sum/min/max and full samples.

    Sample retention can be disabled for very hot paths; mean and extrema
    are always available.

    ``reservoir`` bounds retained-sample memory: once more than
    ``reservoir`` values have been recorded, each further value replaces a
    uniformly random retained one (Vitter's Algorithm R), so percentiles
    stay meaningful on arbitrarily long runs at O(reservoir) memory.  The
    replacement RNG is private and seeded from the histogram's name, so
    the retained set depends only on the value sequence — never on other
    RNG users or the simulation kernel.
    """

    def __init__(
        self,
        name: str,
        keep_samples: bool = True,
        reservoir: Optional[int] = None,
    ) -> None:
        self.name = name
        self.keep_samples = keep_samples
        if reservoir is not None:
            if not keep_samples:
                raise StatError(
                    f"{name}: reservoir sampling retains samples, so it "
                    f"cannot be combined with keep_samples=False"
                )
            if reservoir < 1:
                raise ValueError(f"{name}: reservoir must be >= 1, got {reservoir}")
        self.reservoir = reservoir
        self.count: int = 0
        self.total: float = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._samples: List[float] = []
        self._reservoir_rng = (
            random.Random(zlib.crc32(name.encode("utf-8")))
            if reservoir is not None
            else None
        )

    def add(self, value: Union[int, float]) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        if self.keep_samples:
            cap = self.reservoir
            if cap is None or len(self._samples) < cap:
                self._samples.append(value)
            else:
                slot = self._reservoir_rng.randrange(self.count)
                if slot < cap:
                    self._samples[slot] = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Return the ``p``-th percentile (0-100) of retained samples.

        Raises :class:`StatError` when samples are unavailable — either the
        histogram was built with ``keep_samples=False`` (the samples were
        discarded, so any answer would be fabricated) or nothing has been
        recorded.  Silently returning 0.0 here once made tail-latency
        reports read as zero; it must never do that again.
        """
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if not self.keep_samples:
            raise StatError(
                f"{self.name}: percentile() needs retained samples but the "
                f"histogram was created with keep_samples=False"
            )
        if not self._samples:
            raise StatError(f"{self.name}: percentile() of an empty histogram")
        ordered = sorted(self._samples)
        rank = (p / 100.0) * (len(ordered) - 1)
        low = int(math.floor(rank))
        high = int(math.ceil(rank))
        if low == high:
            return ordered[low]
        frac = rank - low
        return ordered[low] * (1 - frac) + ordered[high] * frac

    def reset(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None
        self._samples.clear()
        if self.reservoir is not None:
            # Re-seed so a reset histogram replays identically.
            self._reservoir_rng = random.Random(zlib.crc32(self.name.encode("utf-8")))

    def __repr__(self) -> str:
        return f"Histogram({self.name}, n={self.count}, mean={self.mean:.2f})"


class StatGroup:
    """A named tree of counters, histograms and nested groups.

    Every name within one group identifies exactly one statistic: asking
    for a counter under a name already taken by a histogram or a child
    group (or vice versa) raises :class:`StatError` instead of letting
    :meth:`to_dict` silently overwrite one with the other.  One table holds
    all three kinds, so a name is checked with one lookup; the views and
    :meth:`to_dict` list counters, then histograms, then child groups,
    each in creation order.
    """

    __slots__ = ("name", "_stats")

    def __init__(self, name: str) -> None:
        self.name = name
        self._stats: Dict[str, Union[Counter, Histogram, "StatGroup"]] = {}

    # ------------------------------------------------------------------ #
    def _claim(self, name: str, stat):
        """Add ``stat`` under ``name``, raising if ``name`` is taken."""
        taken = self._stats.setdefault(name, stat)
        if taken is not stat:
            raise StatError(f"{self.name}: {name!r} is already a {_KIND[type(taken)]}")
        return stat

    def _existing(self, name: str, kind: type):
        """The ``kind`` statistic called ``name``, or ``None`` if ``name`` is free."""
        stat = self._stats.get(name)
        if stat is not None and type(stat) is not kind:
            raise StatError(f"{self.name}: {name!r} is already a {_KIND[type(stat)]}")
        return stat

    def counter(self, name: str) -> Counter:
        """Get or create a counter."""
        counter = self._existing(name, Counter)
        if counter is None:
            counter = self._stats[name] = Counter(name)
        return counter

    def histogram(
        self,
        name: str,
        keep_samples: bool = True,
        reservoir: Optional[int] = None,
    ) -> Histogram:
        """Get or create a histogram."""
        histogram = self._existing(name, Histogram)
        if histogram is None:
            histogram = self._stats[name] = Histogram(name, keep_samples, reservoir)
        return histogram

    def group(self, name: str) -> "StatGroup":
        """Get or create a nested group."""
        child = self._existing(name, StatGroup)
        if child is None:
            child = self._stats[name] = StatGroup(name)
        return child

    def new_group(self, name: str) -> "StatGroup":
        """Create a nested group, raising if ``name`` is already taken."""
        return self._claim(name, StatGroup(name))

    # ------------------------------------------------------------------ #
    def _of_kind(self, kind: type) -> Dict[str, object]:
        return {name: stat for name, stat in self._stats.items() if type(stat) is kind}

    @property
    def counters(self) -> Dict[str, Counter]:
        return self._of_kind(Counter)

    @property
    def histograms(self) -> Dict[str, Histogram]:
        return self._of_kind(Histogram)

    @property
    def children(self) -> Dict[str, "StatGroup"]:
        return self._of_kind(StatGroup)

    def reset(self) -> None:
        """Reset every statistic in this group and its descendants."""
        for stat in self._stats.values():
            stat.reset()

    def to_dict(self) -> dict:
        """Flatten the group into nested plain dictionaries.

        Empty histograms report ``min``/``max`` as 0.0 (matching their
        mean) rather than leaking ``None`` into report tables and JSON
        consumers that expect numbers.
        """
        result: dict = {}
        for name, counter in self._of_kind(Counter).items():
            result[name] = counter.value
        for name, histogram in self._of_kind(Histogram).items():
            empty = histogram.count == 0
            result[name] = {
                "count": histogram.count,
                "mean": histogram.mean,
                "min": 0.0 if empty else histogram.min,
                "max": 0.0 if empty else histogram.max,
            }
        for name, child in self._of_kind(StatGroup).items():
            result[name] = child.to_dict()
        return result

    def flat_items(self, prefix: str = "") -> Iterable:
        """Yield ``(dotted_name, value)`` for every counter/histogram mean."""
        for name, counter in self._of_kind(Counter).items():
            yield f"{prefix}{name}", counter.value
        for name, histogram in self._of_kind(Histogram).items():
            yield f"{prefix}{name}.mean", histogram.mean
            yield f"{prefix}{name}.count", histogram.count
        for name, child in self._of_kind(StatGroup).items():
            yield from child.flat_items(prefix=f"{prefix}{name}.")

    def __repr__(self) -> str:
        return (
            f"StatGroup({self.name}, counters={len(self.counters)}, "
            f"histograms={len(self.histograms)}, children={len(self.children)})"
        )


#: What a :class:`StatError` calls each kind of statistic.
_KIND = {Counter: "counter", Histogram: "histogram", StatGroup: "group"}
