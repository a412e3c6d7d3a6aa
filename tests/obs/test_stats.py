"""Tests for summary statistics and table formatting."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import ConfigurationError
from repro.obs.stats import Summary, format_table, format_value, percentile, ratio

FLOATS = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    min_size=1, max_size=100,
)


class TestPercentile:
    def test_median_of_odd(self):
        assert percentile([3, 1, 2], 50) == 2

    def test_interpolation(self):
        assert percentile([0, 10], 50) == 5.0
        assert percentile([0, 10], 25) == 2.5

    def test_extremes(self):
        data = [5, 1, 9]
        assert percentile(data, 0) == 1
        assert percentile(data, 100) == 9

    def test_single_value(self):
        assert percentile([7.0], 99) == 7.0

    def test_empty_raises(self):
        with pytest.raises(ConfigurationError):
            percentile([], 50)

    def test_out_of_range_q(self):
        with pytest.raises(ConfigurationError):
            percentile([1], 101)

    @given(FLOATS, st.floats(min_value=0, max_value=100))
    @settings(max_examples=100)
    def test_property_bounded_by_extremes(self, data, q):
        value = percentile(data, q)
        assert min(data) <= value <= max(data)

    @given(FLOATS)
    @settings(max_examples=50)
    def test_property_monotone_in_q(self, data):
        values = [percentile(data, q) for q in (0, 25, 50, 75, 100)]
        assert values == sorted(values)


class TestSummary:
    def test_of_values(self):
        summary = Summary.of([1.0, 2.0, 3.0, 4.0])
        assert summary.count == 4
        assert summary.mean == 2.5
        assert summary.minimum == 1.0
        assert summary.maximum == 4.0
        assert summary.p50 == 2.5

    def test_empty(self):
        summary = Summary.of([])
        assert summary.count == 0
        assert summary.mean == 0.0

    def test_str_readable(self):
        text = str(Summary.of([1.0]))
        assert "p99" in text and "mean" in text


class TestRatio:
    def test_ratio(self):
        assert ratio(1, 2) == 0.5
        assert ratio(1, 0) == 0.0


class TestReport:
    def test_format_value(self):
        assert format_value(1234) == "1,234"
        assert format_value(0.5) == "0.5"
        assert format_value(1e-5) == "1.00e-05"
        assert format_value("x") == "x"

    def test_format_table_aligns(self):
        table = format_table(["name", "value"], [("a", 1), ("bbbb", 22)],
                             title="T")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert len(lines) == 5
