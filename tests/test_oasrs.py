"""Tests for the OASRS sampler (Algorithm 3) and allocation policies."""

import random
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.oasrs import (
    EqualAllocation,
    FixedPerStratum,
    OASRSSampler,
    ProportionalAllocation,
    oasrs_sample,
)
from repro.core.query import approximate_sum


def make_items(spec):
    """spec: {key: [values]} → flat interleaved (key, value) item list."""
    items = []
    lists = {k: list(v) for k, v in spec.items()}
    while any(lists.values()):
        for k in list(lists):
            if lists[k]:
                items.append((k, lists[k].pop(0)))
    return items


KEY = lambda item: item[0]  # noqa: E731


class TestPolicies:
    def test_fixed_policy_constant(self):
        p = FixedPerStratum(7)
        assert p.capacity_for("a", 1) == 7
        assert p.capacity_for("b", 100) == 7

    def test_fixed_policy_validation(self):
        with pytest.raises(ValueError):
            FixedPerStratum(0)

    def test_equal_allocation_splits(self):
        p = EqualAllocation(90)
        assert p.capacity_for("a", 3) == 30
        assert p.capacity_for("a", 1) == 90

    def test_equal_allocation_floor_one(self):
        p = EqualAllocation(2)
        assert p.capacity_for("a", 10) == 1

    def test_proportional_allocation_uses_observed_counts(self):
        p = ProportionalAllocation(100)
        p.observe({"big": 900, "small": 100})
        assert p.capacity_for("big", 2) == 90
        assert p.capacity_for("small", 2) == 10
        assert p.capacity_for("unseen", 2) == 1

    def test_proportional_before_observation_splits_equally(self):
        p = ProportionalAllocation(10)
        assert p.capacity_for("a", 2) == 5


class TestOASRSSampler:
    def test_underfull_strata_kept_entirely_weight_one(self):
        items = make_items({"a": [1, 2], "b": [5]})
        sample = oasrs_sample(items, 10, key_fn=KEY, rng=random.Random(0))
        assert sample["a"].weight == 1.0
        assert sorted(v for _k, v in sample["a"].items) == [1, 2]
        assert sample["b"].count == 1

    def test_overflow_weight_matches_equation1(self):
        items = make_items({"a": list(range(60))})
        sample = oasrs_sample(items, 6, key_fn=KEY, rng=random.Random(0))
        assert sample["a"].sample_size == 6
        assert sample["a"].weight == pytest.approx(10.0)

    def test_counters_exact_despite_sampling(self):
        items = make_items({"a": list(range(500)), "b": list(range(3))})
        sample = oasrs_sample(items, 5, key_fn=KEY, rng=random.Random(1))
        assert sample["a"].count == 500
        assert sample["b"].count == 3

    def test_rare_stratum_never_overlooked(self):
        """The defining property vs SRS: tiny strata always represented."""
        spec = {"big": list(range(100_000)), "rare": [1, 2]}
        sample = oasrs_sample(make_items(spec), 10, key_fn=KEY, rng=random.Random(2))
        assert "rare" in sample
        assert sample["rare"].sample_size == 2

    def test_close_interval_resets_state(self):
        sampler = OASRSSampler(FixedPerStratum(3), key_fn=KEY, rng=random.Random(0))
        sampler.offer_many(make_items({"a": [1, 2, 3, 4]}))
        first = sampler.close_interval()
        assert first["a"].count == 4
        second = sampler.close_interval()
        # The stratum is still known (policy rebalanced) but has no items.
        assert "a" not in second or second.total_count == 0

    def test_peek_does_not_reset(self):
        sampler = OASRSSampler(FixedPerStratum(3), key_fn=KEY, rng=random.Random(0))
        sampler.offer(("a", 1))
        assert sampler.peek()["a"].count == 1
        sampler.offer(("a", 2))
        assert sampler.peek()["a"].count == 2

    def test_strata_seen_accumulates_across_intervals(self):
        sampler = OASRSSampler(FixedPerStratum(2), key_fn=KEY, rng=random.Random(0))
        sampler.offer(("a", 1))
        sampler.close_interval()
        sampler.offer(("b", 1))
        assert sampler.strata_seen == 2

    def test_set_policy_takes_effect_after_rebalance(self):
        sampler = OASRSSampler(FixedPerStratum(2), key_fn=KEY, rng=random.Random(0))
        sampler.offer_many(make_items({"a": list(range(10))}))
        sampler.close_interval()
        sampler.set_policy(FixedPerStratum(5))
        sampler.close_interval()  # rebalance applies new policy
        sampler.offer_many(make_items({"a": list(range(10))}))
        sample = sampler.close_interval()
        assert sample["a"].sample_size == 5

    def test_adapts_to_shifting_arrival_rates(self):
        """OASRS needs no pre-defined fractions: weights track rate shifts."""
        sampler = OASRSSampler(FixedPerStratum(10), key_fn=KEY, rng=random.Random(3))
        sampler.offer_many(make_items({"a": list(range(100)), "b": list(range(10))}))
        s1 = sampler.close_interval()
        assert s1["a"].weight == pytest.approx(10.0)
        assert s1["b"].weight == 1.0
        # Rates flip in the next interval; weights follow automatically.
        sampler.offer_many(make_items({"a": list(range(10)), "b": list(range(100))}))
        s2 = sampler.close_interval()
        assert s2["a"].weight == 1.0
        assert s2["b"].weight == pytest.approx(10.0)

    def test_sum_estimate_unbiased_on_average(self):
        """Weighted SUM over many runs ≈ true sum (estimator unbiasedness)."""
        values = list(range(1, 201))
        truth = float(sum(values))
        estimates = []
        for seed in range(300):
            sample = oasrs_sample(
                [("a", v) for v in values], 20, key_fn=KEY, rng=random.Random(seed)
            )
            estimates.append(approximate_sum(sample, lambda kv: kv[1]).value)
        mean_est = statistics.fmean(estimates)
        assert abs(mean_est - truth) / truth < 0.02

    @settings(max_examples=50, deadline=None)
    @given(
        sizes=st.dictionaries(
            st.sampled_from(["a", "b", "c", "d"]),
            st.integers(0, 300),
            min_size=1,
            max_size=4,
        ),
        capacity=st.integers(1, 30),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_invariants_hold_for_any_stream(self, sizes, capacity, seed):
        items = make_items({k: list(range(n)) for k, n in sizes.items()})
        sample = oasrs_sample(items, capacity, key_fn=KEY, rng=random.Random(seed))
        for key, n in sizes.items():
            if n == 0:
                assert key not in sample
                continue
            stratum = sample[key]
            assert stratum.count == n
            assert stratum.sample_size == min(n, capacity)
            # Eq. 1 identity: Y_i * W_i == C_i whenever the stratum saturated.
            assert stratum.sample_size * stratum.weight == pytest.approx(
                max(n, stratum.sample_size)
            )


class TestOneShotHelper:
    def test_empty_input(self):
        sample = oasrs_sample([], 5, key_fn=KEY, rng=random.Random(0))
        assert len(sample) == 0
        assert sample.total_count == 0
