"""Columnar pane-sample kernels ≡ the per-item code they replaced, bit for bit.

The merge, the weighted quantile and the grouped estimators read value-mode
samples as ``float64`` arrays (`repro.core.records.concat_members`,
`repro.core.quantiles`, `repro.core.query`).  The per-item bodies they
replaced are kept here, verbatim, as the oracle: every kernel must return
the same floats — ``repr``-equal, so ``-0.0`` and the last bit count — on
ties in value across strata with different weights, DKW ranks clamped at 0
and 1, empty and single-item strata, strata present in only some intervals,
and 1–4 intervals per window.  Samples that are not value-mode end to end
(a tuple-mode part in the merge, a grouping that cuts across strata) must
take the per-item path, never a mix of the two.

The DKW weight moments are per-stratum quantities: ``(Σw, Σw²)`` is summed
in O(strata) and must equal, by ``.hex()``, the ``fsum`` over one weight
per kept item it replaced; and a quantile pane computes the mean
estimator's stratum stats only when a budget controller reads them.
"""

import math
import time
from collections import namedtuple
from fractions import Fraction
from itertools import chain, repeat

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.budget import AccuracyBudget
from repro.core.quantiles import _sorted_run, _weight_moments, approximate_quantile
from repro.core.query import approximate_mean, grouped_mean, grouped_sum
from repro.core.records import _StratumMembers, item_key, item_value
from repro.core.strata import (
    StratumSample,
    WeightedSample,
    combine_worker_samples,
    stratum_weight,
)
from repro.runtime import report as report_module
from repro.system import (
    FlinkStreamApproxSystem,
    NativeStreamApproxSystem,
    SparkStreamApproxSystem,
    StreamQuery,
    SystemConfig,
    WindowConfig,
)
from repro.workloads.synthetic import stream_by_rates

# ---------------------------------------------------------------------------
# The oracle: the per-item bodies as they stood before the kernels
# ---------------------------------------------------------------------------


def oracle_merge(mine, other):
    """`WeightedSample.merge`, pairwise, over item tuples (first-appearance order)."""
    merged = WeightedSample()
    for key in [*mine.strata, *(k for k in other.strata if k not in mine.strata)]:
        a, b = mine.strata.get(key), other.strata.get(key)
        if a is None:
            merged.add(b)
        elif b is None:
            merged.add(a)
        else:
            items = tuple(a.items) + tuple(b.items)
            count = a.count + b.count
            merged.add(StratumSample(key, items, count, stratum_weight(count, len(items))))
    return merged


def oracle_combine(samples):
    if not samples:
        return WeightedSample()
    merged = samples[0]
    for sample in samples[1:]:
        merged = oracle_merge(merged, sample)
    return merged


def oracle_quantile(sample, q, value_fn, confidence):
    """`approximate_quantile`: Python sort of (value, weight) pairs, three walks."""
    points = []
    for stratum in sample:
        for item in stratum.items:
            points.append((float(value_fn(item)), stratum.weight))
    points.sort(key=lambda vw: vw[0])
    if not points:
        raise ValueError("cannot take a quantile of an empty sample")
    weights = [w for _v, w in points]
    total = math.fsum(weights)
    squares = math.fsum(w * w for w in weights)
    effective_n = 0.0 if squares == 0 else total * total / squares
    alpha = 1.0 - confidence
    if effective_n > 0:
        epsilon = math.sqrt(math.log(2.0 / alpha) / (2.0 * effective_n))
    else:
        epsilon = 1.0

    def value_at(rank_fraction):
        target = min(max(rank_fraction, 0.0), 1.0) * total
        cumulative = 0.0
        for value, weight in points:
            cumulative += weight
            if cumulative >= target:
                return value
        return points[-1][0]

    return (value_at(q), value_at(q - epsilon), value_at(q + epsilon), effective_n)


def oracle_weight_moments(sample):
    """`_weight_moments`: ``fsum`` over each stratum's weight repeated ``Y`` times."""
    sizes = [(stratum.weight, stratum.sample_size) for stratum in sample]
    total = math.fsum(chain.from_iterable(repeat(w, y) for w, y in sizes))
    squares = math.fsum(chain.from_iterable(repeat(w * w, y) for w, y in sizes))
    return total, squares


def oracle_grouped_sum(sample, group_fn, value_fn):
    out = {}
    for stratum in sample:
        for item in stratum.items:
            group = group_fn(item)
            out[group] = out.get(group, 0.0) + value_fn(item) * stratum.weight
    return out


def oracle_grouped_mean(sample, group_fn, value_fn):
    sums, weights = {}, {}
    for stratum in sample:
        for item in stratum.items:
            group = group_fn(item)
            sums[group] = sums.get(group, 0.0) + value_fn(item) * stratum.weight
            weights[group] = weights.get(group, 0.0) + stratum.weight
    return {g: sums[g] / weights[g] for g in sums if weights[g] > 0}


# ---------------------------------------------------------------------------
# Sample generators
# ---------------------------------------------------------------------------

# A handful of values every stratum draws from, so equal values meet across
# strata (whose weights differ) and ±0.0 meet inside one stratum.
TIES = [-0.0, 0.0, 1.0, 1.5, 2.0, -3.25, 1e-300]
values_st = st.one_of(
    st.sampled_from(TIES),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)
# One interval's contribution to one stratum: kept values + how many more
# items the stratum received (count = kept + extra, so weights differ).
run_st = st.tuples(st.lists(values_st, max_size=6), st.integers(0, 9))
# 1–4 intervals; in each, a stratum is present (a run) or absent (None).
intervals_st = st.lists(
    st.fixed_dictionaries(
        {}, optional={key: run_st for key in ("a", "b", "c", "d")}
    ),
    min_size=1,
    max_size=4,
)


def as_tuples(sample):
    """The same sample over plain item tuples — what the oracle reads."""
    out = WeightedSample()
    for stratum in sample:
        out.add(
            StratumSample(stratum.key, tuple(stratum.items), stratum.count, stratum.weight)
        )
    return out


def build(intervals, mode):
    """Interval samples; ``mode(i, key)`` picks "list", "array" or "tuple" members."""
    samples = []
    for i, interval in enumerate(intervals):
        sample = WeightedSample()
        for key, (values, extra) in interval.items():
            count = len(values) + extra
            if count == 0:
                continue
            kind = mode(i, key)
            if kind == "tuple":
                items = tuple((key, v) for v in values)
            elif kind == "array":
                items = _StratumMembers(key, np.asarray(values, dtype=np.float64))
            else:
                items = _StratumMembers(key, list(values))
            sample.add(
                StratumSample(key, items, count, stratum_weight(count, len(values)))
            )
        samples.append(sample)
    return samples


def value_mode(i, key):
    return "array" if (i + ord(key)) % 2 else "list"


def same_floats(got, want):
    assert repr(got) == repr(want)


# ---------------------------------------------------------------------------
# Merge
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(intervals=intervals_st)
def test_merge_matches_pairwise_fold_and_stays_columnar(intervals):
    samples = build(intervals, value_mode)
    merged = combine_worker_samples(samples)
    want = oracle_combine([as_tuples(s) for s in samples])
    assert merged.keys == want.keys  # first-appearance order
    for got, ref in zip(merged, want):
        assert (got.key, got.count) == (ref.key, ref.count)
        same_floats(got.weight, ref.weight)
        same_floats(tuple(got.items), ref.items)
        # No tuple was built on the way: value arrays in, value array out.
        assert type(got.items) is _StratumMembers
        assert got.value_array(item_value).dtype == np.float64
    if len(samples) > 1:
        same_floats(
            [(s.key, tuple(s.items), s.weight) for s in samples[0].merge(*samples[1:])],
            [(s.key, s.items, s.weight) for s in want],
        )


@settings(max_examples=100, deadline=None)
@given(intervals=intervals_st, tuple_at=st.integers(0, 3))
def test_mixed_mode_merge_falls_back_to_tuples(intervals, tuple_at):
    """One tuple-mode part makes that stratum's merge plain tuples, not a mix."""

    def mode(i, key):
        return "tuple" if i == tuple_at % len(intervals) else value_mode(i, key)

    samples = build(intervals, mode)
    merged = combine_worker_samples(samples)
    want = oracle_combine([as_tuples(s) for s in samples])
    assert merged.keys == want.keys
    for got, ref in zip(merged, want):
        same_floats(tuple(got.items), ref.items)
        same_floats(got.weight, ref.weight)
        parts = [s[got.key].items for s in samples if got.key in s]
        if len(parts) > 1 and any(type(p) is tuple for p in parts):
            assert type(got.items) is tuple
            assert got.value_array(item_value) is None
    # Estimators over the mixed merge agree with the oracle too.
    if merged.total_items:
        estimate = approximate_quantile(merged, 0.5, item_value)
        same_floats(
            (estimate.value, estimate.lower, estimate.upper, estimate.effective_n),
            oracle_quantile(want, 0.5, item_value, 0.95),
        )
    same_floats(
        grouped_sum(merged, item_key, item_value),
        oracle_grouped_sum(want, item_key, item_value),
    )


# ---------------------------------------------------------------------------
# Quantile
# ---------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(
    intervals=intervals_st,
    q=st.floats(0.001, 0.999),
    confidence=st.floats(0.5, 0.999),
)
def test_quantile_kernel_matches_per_item_walk(intervals, q, confidence):
    merged = combine_worker_samples(build(intervals, value_mode))
    want_sample = as_tuples(merged)
    if merged.total_items == 0:
        with pytest.raises(ValueError, match="empty sample"):
            approximate_quantile(merged, q, item_value, confidence)
        return
    estimate = approximate_quantile(merged, q, item_value, confidence)
    same_floats(
        (estimate.value, estimate.lower, estimate.upper, estimate.effective_n),
        oracle_quantile(want_sample, q, item_value, confidence),
    )
    # The per-item fallback (tuple-mode sample) is the same function of the
    # same numbers.
    fallback = approximate_quantile(want_sample, q, item_value, confidence)
    same_floats(estimate, fallback)


def test_quantile_ranks_clamp_at_both_ends():
    """A tiny sample makes ε > 1: q − ε clamps to rank 0, q + ε to rank 1."""
    sample = WeightedSample()
    sample.add(StratumSample("a", _StratumMembers("a", [3.0, 1.0]), 10, 5.0))
    sample.add(StratumSample("b", _StratumMembers("b", [2.0]), 1, 1.0))
    estimate = approximate_quantile(sample, 0.5, item_value)
    assert (estimate.lower, estimate.upper) == (1.0, 3.0)
    same_floats(
        (estimate.value, estimate.lower, estimate.upper, estimate.effective_n),
        oracle_quantile(as_tuples(sample), 0.5, item_value, 0.95),
    )


def test_cross_stratum_ties_keep_stratum_order():
    """Equal values from strata of different weight are ranked in stratum order."""
    for first, second in ((4.0, 1.0), (1.0, 4.0)):
        sample = WeightedSample()
        sample.add(StratumSample("a", _StratumMembers("a", [1.0, 2.0, 2.0]), int(3 * first), first))
        sample.add(StratumSample("b", _StratumMembers("b", [2.0, 2.0, 5.0]), int(3 * second), second))
        for q in (0.1, 0.3, 0.5, 0.7, 0.9):
            estimate = approximate_quantile(sample, q, item_value)
            same_floats(
                (estimate.value, estimate.lower, estimate.upper, estimate.effective_n),
                oracle_quantile(as_tuples(sample), q, item_value, 0.95),
            )


@given(values=st.lists(st.sampled_from([-0.0, 0.0, -1.0, 1.0, 0.5]), max_size=12))
def test_sorted_run_is_a_stable_sort(values):
    """The fast per-stratum sort leaves ±0.0 in arrival order, like ``sorted``."""
    same_floats(_sorted_run(np.asarray(values, dtype=np.float64)).tolist(), sorted(values))


# ---------------------------------------------------------------------------
# Weight moments: O(strata), bitwise the per-item fsum
# ---------------------------------------------------------------------------

#: All `_weight_moments` reads of a stratum.
Stratum = namedtuple("Stratum", "weight sample_size")

sizes_st = st.integers(0, 5000)
stratum_st = st.one_of(
    # Equation-1 weights C / Y, as the sampler produces them.
    st.tuples(st.integers(0, 10**9), sizes_st).map(
        lambda cy: Stratum(stratum_weight(*cy), cy[1])
    ),
    # Any positive double across 120 binades.
    st.builds(Stratum, st.floats(2.0**-60, 2.0**60), sizes_st),
)


@st.composite
def moment_strata(draw):
    strata = draw(st.lists(stratum_st, min_size=1, max_size=400))
    if draw(st.booleans()):
        # Duplicate weights: every stratum takes one of the first few weights.
        pool = [stratum.weight for stratum in strata[:3]]
        strata = [
            Stratum(draw(st.sampled_from(pool)), stratum.sample_size)
            for stratum in strata
        ]
    return strata


@settings(max_examples=150, deadline=None)
@given(strata=moment_strata())
@example(strata=[Stratum(stratum_weight(10**9 - k, 5000), 5000) for k in range(400)])
@example(strata=[])
def test_weight_moments_match_the_per_item_fsum(strata):
    got = _weight_moments(strata)
    want = oracle_weight_moments(strata)
    assert [x.hex() for x in got] == [x.hex() for x in want]


def test_weight_moments_cost_o_strata():
    """Strata of 10¹⁵ kept items: one float per item could never finish."""
    strata = [
        Stratum(stratum_weight(3 * 10**15 + 1, 10**15), 10**15),
        Stratum(stratum_weight(10**16 + 7, 10**15), 10**15),
        Stratum(0.1, 10**15),
        Stratum(1.0, 0),
    ]
    started = time.perf_counter()
    total, squares = _weight_moments(strata)
    assert time.perf_counter() - started < 1.0
    assert total == float(sum(Fraction(s.weight) * s.sample_size for s in strata))
    assert squares == float(
        sum(Fraction(s.weight * s.weight) * s.sample_size for s in strata)
    )


# ---------------------------------------------------------------------------
# Stratum stats only for a reader
# ---------------------------------------------------------------------------

P90_STREAM = stream_by_rates({"A": 800, "B": 200, "C": 20}, duration=12, seed=7)
P90 = StreamQuery(kind="quantile", q=0.9, name="p90")
STREAMAPPROX = [SparkStreamApproxSystem, FlinkStreamApproxSystem, NativeStreamApproxSystem]


def run_counting_mean(monkeypatch, cls, **config):
    """Run a p90 plan; return the report and how often the mean estimator ran."""
    calls = []
    real = report_module.approximate_mean

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(report_module, "approximate_mean", counted)
        report = cls(P90, WindowConfig(10.0, 5.0), SystemConfig(seed=42, **config)).run(
            P90_STREAM
        )
    return report, len(calls)


@pytest.mark.parametrize("cls", STREAMAPPROX, ids=lambda cls: cls.engine)
def test_fixed_fraction_quantile_panes_skip_the_stratum_stats(monkeypatch, cls):
    report, calls = run_counting_mean(monkeypatch, cls, sampling_fraction=0.5)
    assert calls == 0
    assert report.results and not report.adaptation
    plain = cls(P90, WindowConfig(10.0, 5.0), SystemConfig(seed=42, sampling_fraction=0.5))
    assert repr(report.results) == repr(plain.run(P90_STREAM).results)


@pytest.mark.parametrize("cls", STREAMAPPROX, ids=lambda cls: cls.engine)
def test_budget_quantile_panes_feed_the_controller_stratum_stats(monkeypatch, cls):
    report, calls = run_counting_mean(
        monkeypatch, cls, budget=AccuracyBudget(target_margin=5.0)
    )
    assert report.adaptation
    assert calls == len(report.adaptation) == len(report.results)
    assert all(point.strata == 3 for point in report.adaptation)


# ---------------------------------------------------------------------------
# Grouped estimators and per-stratum statistics
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(intervals=intervals_st)
def test_grouped_kernels_match_per_item_accumulation(intervals):
    merged = combine_worker_samples(build(intervals, value_mode))
    want_sample = as_tuples(merged)
    got_sum = grouped_sum(merged, item_key, item_value)
    want_sum = oracle_grouped_sum(want_sample, item_key, item_value)
    assert list(got_sum) == list(want_sum)  # group order too
    same_floats(got_sum, want_sum)
    got_mean = grouped_mean(merged, item_key, item_value)
    want_mean = oracle_grouped_mean(want_sample, item_key, item_value)
    assert list(got_mean) == list(want_mean)
    same_floats(got_mean, want_mean)


def positive(item):
    return item[1] > 0


@settings(max_examples=100, deadline=None)
@given(intervals=intervals_st)
def test_grouping_across_strata_takes_the_per_item_path(intervals):
    """A ``group_fn`` other than the stratifier may cut across strata."""
    merged = combine_worker_samples(build(intervals, value_mode))
    want_sample = as_tuples(merged)
    same_floats(
        grouped_sum(merged, positive, item_value),
        oracle_grouped_sum(want_sample, positive, item_value),
    )
    same_floats(
        grouped_mean(merged, positive, item_value),
        oracle_grouped_mean(want_sample, positive, item_value),
    )


def test_all_negative_zero_group_sums_to_positive_zero():
    """The loop starts from +0.0, so a run of −0.0 terms sums to +0.0."""
    sample = WeightedSample()
    sample.add(StratumSample("z", _StratumMembers("z", [-0.0, -0.0]), 2, 1.0))
    same_floats(grouped_sum(sample, item_key, item_value), {"z": 0.0})
    same_floats(
        grouped_sum(sample, item_key, item_value),
        oracle_grouped_sum(as_tuples(sample), item_key, item_value),
    )


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**16), parts=st.integers(1, 4))
def test_large_stratum_stats_read_the_array_directly(seed, parts):
    """The merged array feeds the moments as is, bitwise its tuples."""
    rng = np.random.default_rng(seed)
    runs = [rng.normal(10.0, 3.0, 1500).tolist() for _ in range(parts * 3)]
    samples = []
    for run in runs:
        sample = WeightedSample()
        sample.add(StratumSample("a", _StratumMembers("a", run), 4000, 4000 / 1500))
        samples.append(sample)
    merged = combine_worker_samples(samples)
    got = approximate_mean(merged, item_value).strata
    want = approximate_mean(as_tuples(merged), item_value).strata
    same_floats(got, want)
