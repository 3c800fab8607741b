"""Unit tests for counters, histograms and stat groups."""

from itertools import permutations

import pytest

from repro.sim.stats import Counter, Histogram, StatError, StatGroup


class TestCounter:
    def test_starts_at_zero(self):
        assert Counter("c").value == 0

    def test_add_default_increment(self):
        counter = Counter("c")
        counter.add()
        counter.add()
        assert counter.value == 2

    def test_add_amount(self):
        counter = Counter("c")
        counter.add(2.5)
        assert counter.value == 2.5

    def test_reset(self):
        counter = Counter("c")
        counter.add(10)
        counter.reset()
        assert counter.value == 0

    def test_negative_add_rejected(self):
        counter = Counter("c")
        counter.add(5)
        with pytest.raises(StatError):
            counter.add(-1)
        assert counter.value == 5

    def test_zero_add_allowed(self):
        counter = Counter("c")
        counter.add(0)
        assert counter.value == 0


class TestHistogram:
    def test_empty_histogram_mean_is_zero(self):
        assert Histogram("h").mean == 0.0

    def test_mean_min_max(self):
        hist = Histogram("h")
        for value in (1, 2, 3, 4):
            hist.add(value)
        assert hist.mean == pytest.approx(2.5)
        assert hist.min == 1
        assert hist.max == 4
        assert hist.count == 4

    def test_percentile(self):
        hist = Histogram("h")
        for value in range(101):
            hist.add(value)
        assert hist.percentile(0) == 0
        assert hist.percentile(50) == pytest.approx(50)
        assert hist.percentile(100) == 100

    def test_percentile_out_of_range_rejected(self):
        hist = Histogram("h")
        hist.add(1)
        with pytest.raises(ValueError):
            hist.percentile(150)

    def test_percentile_of_empty_histogram_raises(self):
        with pytest.raises(StatError):
            Histogram("h").percentile(50)

    def test_percentile_out_of_range_rejected_even_when_empty(self):
        with pytest.raises(ValueError):
            Histogram("h").percentile(150)

    def test_keep_samples_false_still_tracks_mean(self):
        hist = Histogram("h", keep_samples=False)
        hist.add(10)
        hist.add(20)
        assert hist.mean == 15

    def test_keep_samples_false_percentile_raises(self):
        hist = Histogram("h", keep_samples=False)
        hist.add(10)
        hist.add(20)
        # Samples were discarded: a percentile here would be fabricated, and
        # the old silent 0.0 made tail-latency reports read as zero.
        with pytest.raises(StatError):
            hist.percentile(99)

    def test_reset(self):
        hist = Histogram("h")
        hist.add(5)
        hist.reset()
        assert hist.count == 0
        assert hist.min is None
        assert hist.mean == 0.0


class TestStatGroup:
    def test_counter_is_memoised(self):
        group = StatGroup("g")
        assert group.counter("x") is group.counter("x")

    def test_histogram_is_memoised(self):
        group = StatGroup("g")
        assert group.histogram("h") is group.histogram("h")

    def test_nested_groups(self):
        group = StatGroup("root")
        child = group.group("child")
        child.counter("x").add(3)
        assert group.to_dict()["child"]["x"] == 3

    def test_reset_recurses(self):
        group = StatGroup("root")
        group.counter("a").add(1)
        group.group("child").counter("b").add(2)
        group.reset()
        assert group.counter("a").value == 0
        assert group.group("child").counter("b").value == 0

    def test_to_dict_includes_histograms(self):
        group = StatGroup("g")
        group.histogram("lat").add(4)
        data = group.to_dict()
        assert data["lat"]["count"] == 1
        assert data["lat"]["mean"] == 4

    def test_to_dict_empty_histogram_has_numeric_extrema(self):
        group = StatGroup("g")
        group.histogram("lat")
        data = group.to_dict()
        assert data["lat"] == {"count": 0, "mean": 0.0, "min": 0.0, "max": 0.0}

    def test_flat_items(self):
        group = StatGroup("g")
        group.counter("a").add(1)
        group.group("sub").counter("b").add(2)
        flattened = dict(group.flat_items())
        assert flattened["a"] == 1
        assert flattened["sub.b"] == 2

    @pytest.mark.parametrize(
        "first, second", list(permutations(["counter", "histogram", "group"], 2))
    )
    def test_name_used_by_another_kind_raises(self, first, second):
        group = StatGroup("g")
        getattr(group, first)("x")
        with pytest.raises(StatError, match=f"'x' is already a {first}"):
            getattr(group, second)("x")

    def test_new_group_refuses_a_taken_name(self):
        group = StatGroup("g")
        child = group.new_group("child")
        assert group.group("child") is child
        with pytest.raises(StatError, match="'child' is already a group"):
            group.new_group("child")
        group.counter("n")
        with pytest.raises(StatError, match="'n' is already a counter"):
            group.new_group("n")

    def test_group_has_no_instance_dict(self):
        group = StatGroup("g")
        assert not hasattr(group, "__dict__")
        with pytest.raises(AttributeError):
            group.extra = 1

    def test_refused_name_leaves_the_group_unchanged(self):
        group = StatGroup("g")
        counter = group.counter("x")
        with pytest.raises(StatError):
            group.new_group("x")
        with pytest.raises(StatError):
            group.histogram("x")
        assert group.counter("x") is counter
        assert group.to_dict() == {"x": 0}

    def test_views_and_to_dict_list_counters_then_histograms_then_groups(self):
        group = StatGroup("g")
        group.group("child").counter("c")
        group.histogram("h2")
        group.counter("b")
        group.histogram("h1")
        group.counter("a")
        assert list(group.counters) == ["b", "a"]
        assert list(group.histograms) == ["h2", "h1"]
        assert list(group.children) == ["child"]
        assert list(group.to_dict()) == ["b", "a", "h2", "h1", "child"]
        assert [name for name, _ in group.flat_items()] == [
            "b", "a", "h2.mean", "h2.count", "h1.mean", "h1.count", "child.c",
        ]
