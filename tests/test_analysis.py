"""Unit tests for the analysis metrics and report tables."""

import pytest

from repro.analysis.metrics import geometric_mean, normalize, speedup
from repro.reporting.tables import ReportTable, format_float


class TestMetrics:
    def test_geometric_mean_of_constant(self):
        assert geometric_mean([2.0, 2.0, 2.0]) == pytest.approx(2.0)

    def test_geometric_mean_known_value(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_geometric_mean_below_arithmetic_mean(self):
        values = [1.0, 2.0, 8.0]
        assert geometric_mean(values) <= sum(values) / len(values)

    def test_geometric_mean_rejects_empty_and_nonpositive(self):
        with pytest.raises(ValueError):
            geometric_mean([])
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])

    def test_normalize(self):
        normalised = normalize({"mesh": 2.0, "nocout": 3.0}, "mesh")
        assert normalised == {"mesh": 1.0, "nocout": 1.5}

    def test_normalize_missing_baseline_rejected(self):
        with pytest.raises(KeyError):
            normalize({"a": 1.0}, "b")

    def test_normalize_zero_baseline_rejected(self):
        with pytest.raises(ValueError):
            normalize({"a": 0.0, "b": 1.0}, "a")

    def test_speedup(self):
        assert speedup(3.0, 2.0) == pytest.approx(1.5)
        with pytest.raises(ValueError):
            speedup(1.0, 0.0)


class TestReportTable:
    def test_requires_columns(self):
        with pytest.raises(ValueError):
            ReportTable([])

    def test_row_length_checked(self):
        table = ReportTable(["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_render_contains_title_and_cells(self):
        table = ReportTable(["Workload", "Speedup"], title="Figure 7")
        table.add_row("Data Serving", 1.234)
        text = table.render()
        assert "Figure 7" in text
        assert "Data Serving" in text
        assert "1.234" in text

    def test_floats_formatted_consistently(self):
        assert format_float(1.23456) == "1.235"
        assert format_float(2.0, digits=1) == "2.0"

    def test_columns_are_aligned(self):
        table = ReportTable(["name", "value"])
        table.add_row("short", 1.0)
        table.add_row("a much longer name", 2.0)
        lines = table.render().splitlines()
        assert len({line.index("  ") for line in lines[2:]}) >= 1
