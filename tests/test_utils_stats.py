"""Tests for repro.utils.stats."""

import pytest

from repro.utils.stats import jains_fairness_index, mean, percentile, summarize


class TestMean:
    def test_simple(self):
        assert mean([1.0, 2.0, 3.0]) == pytest.approx(2.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            mean([])

    def test_accepts_generator(self):
        assert mean(x for x in [2.0, 4.0]) == pytest.approx(3.0)


class TestPercentile:
    def test_median_of_odd(self):
        assert percentile([3, 1, 2], 50) == pytest.approx(2)

    def test_interpolation(self):
        assert percentile([0, 10], 50) == pytest.approx(5)

    def test_extremes(self):
        values = [5, 1, 9]
        assert percentile(values, 0) == 1
        assert percentile(values, 100) == 9

    def test_single_element(self):
        assert percentile([4.2], 73) == pytest.approx(4.2)

    def test_out_of_range_q(self):
        with pytest.raises(ValueError):
            percentile([1, 2], 101)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)


class TestJainsFairnessIndex:
    def test_equal_rates_is_one(self):
        assert jains_fairness_index([2.0, 2.0, 2.0]) == pytest.approx(1.0)

    def test_single_hog_approaches_one_over_n(self):
        assert jains_fairness_index([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_all_zero_defined_as_fair(self):
        assert jains_fairness_index([0.0, 0.0]) == 1.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            jains_fairness_index([1.0, -0.1])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            jains_fairness_index([])

    def test_bounds(self):
        value = jains_fairness_index([0.5, 0.9, 0.97, 1.0])
        assert 0.0 < value <= 1.0

    @pytest.mark.parametrize("n", range(9, 35))
    def test_equal_rates_never_exceed_one(self, n):
        # 13 x 0.32499999999999996 rounds to 1.0000000000000007 unclamped.
        for rate in (0.32499999999999996, 0.1, 1 / 3, 0.7, 2.2, 123.456):
            value = jains_fairness_index([rate] * n)
            assert value <= 1.0
            assert value == pytest.approx(1.0)


class TestSummarize:
    def test_fields(self):
        summary = summarize([1.0, 2.0, 3.0, 4.0])
        assert summary.mean == pytest.approx(2.5)
        assert summary.minimum == 1.0
        assert summary.maximum == 4.0
        assert summary.count == 4

    def test_as_dict_keys(self):
        summary = summarize([1.0])
        assert set(summary.as_dict()) == {"mean", "min", "max", "p50", "p99", "count"}

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            summarize([])
