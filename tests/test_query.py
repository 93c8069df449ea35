"""Tests for approximate linear queries (Equations 2–4)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.oasrs import oasrs_sample
from repro.core.query import (
    approximate_count,
    approximate_mean,
    approximate_sum,
    grouped_mean,
    grouped_sum,
    histogram,
)
from repro.core.strata import StratumSample, WeightedSample

KEY = lambda item: item[0]  # noqa: E731
VAL = lambda item: item[1]  # noqa: E731


def full_sample(spec):
    """A WeightedSample where every stratum was kept entirely (weight 1)."""
    ws = WeightedSample()
    for key, values in spec.items():
        ws.add(StratumSample(key, tuple(values), len(values), 1.0))
    return ws


class TestExactWhenFullyKept:
    """With weight-1 strata the estimators must be exact."""

    def test_sum_exact(self):
        ws = full_sample({"a": [1.0, 2.0], "b": [3.0]})
        assert approximate_sum(ws).value == pytest.approx(6.0)

    def test_mean_exact(self):
        ws = full_sample({"a": [2.0, 4.0], "b": [6.0]})
        assert approximate_mean(ws).value == pytest.approx(4.0)

    def test_count_exact(self):
        ws = full_sample({"a": [1.0] * 7, "b": [1.0] * 3})
        assert approximate_count(ws).value == 10.0

    @settings(max_examples=60)
    @given(
        values=st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=50,
        )
    )
    def test_sum_property(self, values):
        ws = full_sample({"s": values})
        assert approximate_sum(ws).value == pytest.approx(sum(values), rel=1e-9, abs=1e-6)


class TestWeightedEstimates:
    def test_sum_scales_by_weight(self):
        ws = WeightedSample()
        ws.add(StratumSample("a", (1.0, 2.0, 3.0), 30, 10.0))
        assert approximate_sum(ws).value == pytest.approx(60.0)

    def test_mean_uses_true_population(self):
        """Equation 4 divides by Σ C_i, not by the sample size."""
        ws = WeightedSample()
        ws.add(StratumSample("a", (5.0,), 10, 10.0))  # SUM_a = 50, C = 10
        assert approximate_mean(ws).value == pytest.approx(5.0)

    def test_mean_empty_interval_zero(self):
        assert approximate_mean(WeightedSample()).value == 0.0

    def test_estimates_track_truth_on_sampled_stream(self):
        rng = random.Random(11)
        items = [("s", rng.gauss(100, 10)) for _ in range(5000)]
        truth_sum = sum(v for _k, v in items)
        sample = oasrs_sample(items, 500, key_fn=KEY, rng=random.Random(5))
        est = approximate_sum(sample, value_fn=VAL).value
        assert abs(est - truth_sum) / truth_sum < 0.05
        est_mean = approximate_mean(sample, value_fn=VAL).value
        assert abs(est_mean - truth_sum / len(items)) < 2.0


def stratum_stats(stratum, value_fn=None):
    """The one stratum's `StratumStats` behind `approximate_mean`."""
    ws = WeightedSample()
    ws.add(stratum)
    (stats,) = approximate_mean(ws, value_fn).strata
    return stats


class TestStratumStats:
    def test_variance_is_unbiased_sample_variance(self):
        stats = stratum_stats(StratumSample("x", (1.0, 3.0, 5.0), 3, 1.0))
        assert stats.mean == pytest.approx(3.0)
        assert stats.variance == pytest.approx(4.0)  # ((4+0+4)/2)

    def test_single_item_variance_zero(self):
        assert stratum_stats(StratumSample("x", (2.0,), 5, 5.0)).variance == 0.0

    def test_value_fn_applied(self):
        s = StratumSample("x", (("k", 4.0), ("k", 8.0)), 2, 1.0)
        assert stratum_stats(s, VAL).total == pytest.approx(12.0)


class TestGroupedQueries:
    def _borough_sample(self):
        """Strata are boroughs; each value is a trip distance."""
        ws = WeightedSample()
        ws.add(StratumSample("manhattan", (("manhattan", 2.0), ("manhattan", 4.0)), 20, 10.0))
        ws.add(StratumSample("queens", (("queens", 8.0),), 1, 1.0))
        return ws

    def test_grouped_sum(self):
        out = grouped_sum(self._borough_sample(), group_fn=KEY, value_fn=VAL)
        assert out["manhattan"] == pytest.approx(60.0)
        assert out["queens"] == pytest.approx(8.0)

    def test_grouped_mean_matches_eq4_when_groups_are_strata(self):
        out = grouped_mean(self._borough_sample(), group_fn=KEY, value_fn=VAL)
        assert out["manhattan"] == pytest.approx(3.0)
        assert out["queens"] == pytest.approx(8.0)

    def test_histogram_estimates_population(self):
        out = histogram(self._borough_sample(), bin_fn=KEY)
        assert out["manhattan"] == pytest.approx(20.0)
        assert out["queens"] == pytest.approx(1.0)

    def test_groups_cutting_across_strata(self):
        ws = WeightedSample()
        ws.add(StratumSample("s1", (("g", 1.0), ("h", 2.0)), 4, 2.0))
        ws.add(StratumSample("s2", (("g", 3.0),), 1, 1.0))
        out = grouped_sum(ws, group_fn=KEY, value_fn=VAL)
        assert out["g"] == pytest.approx(1.0 * 2.0 + 3.0)
        assert out["h"] == pytest.approx(4.0)

    def test_float_conversion(self):
        ws = full_sample({"a": [1.0]})
        assert float(approximate_sum(ws)) == pytest.approx(1.0)
