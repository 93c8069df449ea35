"""Pooled moments are right at any offset, on every engine.

`repro.core.query.interval_moments` reduces each interval's kept values to
per-stratum ``(Y, C, pivot, shift, M2)`` in one segmented pass, and
`repro.core.query.pooled_result` pools a window of them (within + between
sum of squares around a reference pivot).  Every engine's ungrouped
mean/sum pane goes through them, and so does every `approximate_mean`.
The oracle is the standard library on the very same doubles:
``statistics.fmean`` and the exact rational ``statistics.variance`` of each
stratum's values concatenated over the window's intervals.

Tolerances, fixed before any run: the variance within 1e-13 of itself (so a
zero variance must read exactly zero); the mean within 1e-13 of the largest
magnitude among the stratum's values — a mean near zero of values of
either sign is ill-conditioned for any summation short of an exact one, so
its error is measured on the scale of the data it averages.
"""

import math
import pickle
import random
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import query as query_module
from repro.core.oasrs import FixedPerStratum, OASRSSampler
from repro.core.query import (
    approximate_mean,
    approximate_sum,
    interval_moments,
    pooled_result,
)
from repro.core.records import _StratumMembers, item_key, item_value
from repro.core.strata import (
    StratumSample,
    WeightedSample,
    combine_worker_samples,
    stratum_weight,
)
from repro.runtime import (
    ListSource,
    StreamQuery,
    SystemConfig,
    WindowConfig,
    build_plan,
    execute_plan,
)
from repro.runtime import driver

FORMS = ("packed", "arrays", "tuples")


def make_sample(strata, form):
    """One interval's `WeightedSample` over ``[(key, values, count)]``.

    ``packed`` lays the strata out as `OASRSSampler.peek` does — one
    array, in stratum order; ``arrays`` gives each stratum its own array;
    ``tuples`` holds ``(key, value)`` items.
    """
    if form == "packed":
        return WeightedSample.of_columns(
            [key for key, _values, _count in strata],
            [count for _key, _values, count in strata],
            [len(values) for _key, values, _count in strata],
            packed=np.array([v for _key, values, _count in strata for v in values]),
        )
    sample = WeightedSample()
    for key, values, count in strata:
        if form == "arrays":
            members = _StratumMembers(key, np.array(values))
        else:
            members = tuple((key, v) for v in values)
        sample.add(StratumSample(key, members, count, stratum_weight(count, len(values))))
    return sample


@st.composite
def windows(draw):
    """1–5 intervals over 1–400 strata; strata skip intervals, many hold one value."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n_strata = draw(st.integers(1, 400))
    offset = draw(st.sampled_from([0.0, 1.0, 1e3, 1e6, 1e8, 1e10, 1e12]))
    spread = 10.0 ** draw(st.floats(-3.0, 3.0))
    centers = [offset * (1.0 + rng.random()) for _ in range(n_strata)]
    intervals = []
    for _ in range(draw(st.integers(1, 5))):
        strata = []
        for k in range(n_strata):
            if rng.random() < 0.25:
                continue  # this stratum sends nothing this interval
            y = rng.choice((1, 1, 2, 3, rng.randint(4, 12), rng.randint(13, 40)))
            values = [centers[k] + spread * rng.gauss(0.0, 1.0) for _ in range(y)]
            strata.append((f"s{k}", values, y + rng.choice((0, rng.randint(1, 500)))))
        intervals.append(strata)
    return intervals, draw(st.sampled_from(FORMS))


def oracle(intervals):
    """key -> (Y, C, values) over the window, first-appearance order."""
    pooled = {}
    for strata in intervals:
        for key, values, count in strata:
            y, c, vals = pooled.get(key, (0, 0, []))
            pooled[key] = (y + len(values), c + count, vals + values)
    return pooled


def assert_stats_match(got, want):
    assert [s.key for s in got] == list(want)
    for s in got:
        y, c, values = want[s.key]
        assert (s.y, s.c, s.weight) == (y, c, stratum_weight(c, y))
        scale = max(map(abs, values))
        assert abs(s.mean - statistics.fmean(values)) <= 1e-13 * scale, s.key
        assert abs(s.total - math.fsum(values)) <= 1e-13 * scale * y, s.key
        variance = statistics.variance(values) if y > 1 else 0.0
        assert abs(s.variance - variance) <= 1e-13 * variance, (s.key, s.variance, variance)


@given(window=windows())
@settings(max_examples=60, deadline=None)
def test_pooled_stats_match_the_exact_oracle(window):
    intervals, form = window
    moments = [interval_moments(make_sample(s, form), item_value) for s in intervals]
    assert_stats_match(pooled_result(moments, "mean").strata, oracle(intervals))


@pytest.mark.parametrize("form", FORMS)
def test_every_form_reads_the_same_moments(form):
    rng = random.Random(3)
    strata = [
        (f"s{k}", [1e8 + rng.gauss(0.0, 1.0) for _ in range(rng.randint(1, 30))], 40)
        for k in range(50)
    ]
    got = interval_moments(make_sample(strata, form), item_value)
    want = interval_moments(make_sample(strata, "packed"), item_value)
    assert got[0] == want[0]
    assert np.array_equal(got[1], want[1])
    # A pickled sample (a checkpoint's history) drops the memo and comes
    # back holding tuples, which read the same bits again.
    sample = make_sample(strata, form)
    interval_moments(sample, item_value)
    clone = pickle.loads(pickle.dumps(sample))
    assert sample.moments and not clone.moments
    again = interval_moments(clone, item_value)
    assert again[0] == want[0]
    assert np.array_equal(again[1], want[1])


def test_packed_values_are_read_in_place(monkeypatch):
    """Peek's one array is reused: no concatenation for a packed sample."""
    strata = [("a", [1.0, 2.0, 4.0], 3), ("b", [8.0, 16.0], 9)]

    def refuse(*_args, **_kwargs):
        raise AssertionError("packed values were copied")

    monkeypatch.setattr(query_module._np, "concatenate", refuse)
    keys, rows = interval_moments(make_sample(strata, "packed"), item_value)
    assert keys == ["a", "b"]
    assert rows[:, 0].tolist() == [3.0, 2.0]


# ---------------------------------------------------------------------------
# Named regressions: four strata of N(offset, spread) at 10 %, every engine
# ---------------------------------------------------------------------------


def normal_stream(offset, spread=1.0):
    rng = random.Random(5)
    return [
        (i * 0.001, (f"k{i % 4}", offset + spread * rng.gauss(0.0, 1.0)))
        for i in range(10_000)
    ]


def run_panes(offset, engine, monkeypatch, spread=1.0):
    """Pane results plus every `QueryResult` the pane close pooled."""
    pooled = []

    def spy(moment_sets, kind):
        pooled.append(pooled_result(moment_sets, kind))
        return pooled[-1]

    monkeypatch.setattr(driver, "pooled_result", spy)
    plan = build_plan(
        StreamQuery(kind="mean"), WindowConfig(10.0, 5.0),
        SystemConfig(sampling_fraction=0.1, seed=3), engine=engine, strategy="oasrs",
        source=ListSource(normal_stream(offset, spread)),
    )
    results, _ = execute_plan(plan)
    return results, pooled


@pytest.mark.parametrize("engine", ["direct", "pipelined", "batched"])
@pytest.mark.parametrize("offset, tolerance", [(1e8, 1e-6), (1e12, 1e-4)])
def test_variance_does_not_follow_the_offset(engine, offset, tolerance, monkeypatch):
    """The old ``(Σv² − Y·mean²)/(Y−1)`` read 2.06 for every stratum here at
    1e8, and pane variances of 0.0 and 31 048 instead of ≈0.0016 / 0.0009
    at 1e12.  Against the same engine's off = 0 run, the offset only moves
    the values by their rounding (half an ulp of the offset)."""
    base_results, base = run_panes(0.0, engine, monkeypatch)
    results, shifted = run_panes(offset, engine, monkeypatch)
    assert len(shifted) == len(base) == len(results) >= 1
    for got, want in zip(shifted, base):
        assert [s.key for s in got.strata] == [s.key for s in want.strata]
        for s, b in zip(got.strata, want.strata):
            assert 0.5 < b.variance < 1.5
            assert abs(s.variance - b.variance) <= tolerance, (s.key, s.variance)
    for got, want in zip(results, base_results):
        assert got.error.variance == pytest.approx(want.error.variance, rel=tolerance)


@pytest.mark.parametrize("offset", [0.0, 1e8, 1e12])
def test_direct_and_pipelined_panes_are_equal(offset, monkeypatch):
    """Both engines keep the same first pane sample — one draw rule, though
    the direct engine feeds whole intervals and the pipelined loop the runs
    between watermarks — and estimate it (spread 1e-3, where a two-pass
    variance without the (Σd)²/Y correction goes wrong) through the one
    pane close, so they read the same bits."""
    direct, direct_pooled = run_panes(offset, "direct", monkeypatch, spread=1e-3)
    pipelined, pipelined_pooled = run_panes(offset, "pipelined", monkeypatch, spread=1e-3)
    assert len(pipelined) == 1  # the end-of-stream flush pane is dropped
    assert pipelined[0].estimate == direct[0].estimate
    assert pipelined[0].error.variance == direct[0].error.variance
    assert pipelined_pooled[0].strata == direct_pooled[0].strata


def test_each_interval_is_reduced_once(monkeypatch):
    """The second pane pools both intervals; the first one's moments are
    the memoised ones, not a second pass over its kept values."""
    calls = []
    real = query_module._segment_moments

    def counted(sample, value_fn):
        calls.append(sample)
        return real(sample, value_fn)

    monkeypatch.setattr(query_module, "_segment_moments", counted)
    results, pooled = run_panes(0.0, "direct", monkeypatch)
    assert len(results) == len(pooled) == 2
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# Cross-engine: one interval pooled is the estimator; the merged pane agrees
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("chunk", [1, 64])
def test_pooled_stats_equal_the_merged_pane_estimate(chunk):
    rng = random.Random(11)
    sampler = OASRSSampler(FixedPerStratum(40), key_fn=item_key, rng=random.Random(2))
    samples = []
    for _interval in range(3):
        items = [(f"s{rng.randrange(30)}", rng.gauss(5.0, 3.0)) for _ in range(2000)]
        for start in range(0, len(items), chunk):
            sampler.process_chunk(items[start : start + chunk])
        samples.append(sampler.close_interval())
    for sample in samples:
        one = pooled_result([interval_moments(sample, item_value)], "mean")
        assert approximate_mean(sample, item_value) == one
    got = pooled_result([interval_moments(s, item_value) for s in samples], "mean")
    want = approximate_mean(combine_worker_samples(samples), item_value).strata
    assert [s.key for s in got.strata] == [s.key for s in want]
    for g, w in zip(got.strata, want):
        assert (g.y, g.c, g.weight) == (w.y, w.c, w.weight)
        for field in ("total", "mean", "variance"):
            assert getattr(g, field) == pytest.approx(getattr(w, field), rel=1e-12)


def test_a_stratum_that_kept_nothing_still_counts():
    """An SRS micro-batch can keep none of a non-empty batch: its C stays in
    the population, as it does in the merged pane, with zero moments."""
    first = make_sample([("a", [2.0, 4.0], 4), ("b", [], 6)], "tuples")
    second = make_sample([("b", [], 5), ("a", [3.0], 2)], "tuples")
    alone = approximate_mean(first, item_value)
    assert alone.value == 12.0 / 10
    assert [(s.key, s.y, s.c, s.mean, s.variance) for s in alone.strata] == [
        ("a", 2, 4, 3.0, 2.0), ("b", 0, 6, 0.0, 0.0)
    ]
    pane = pooled_result([interval_moments(s, item_value) for s in (first, second)], "sum")
    assert [(s.key, s.y, s.c, s.total) for s in pane.strata] == [
        ("a", 3, 6, 9.0), ("b", 0, 11, 0.0)
    ]
    merged = approximate_sum(combine_worker_samples([first, second]), item_value)
    assert pane.value == merged.value == 18.0
