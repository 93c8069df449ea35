"""Strata as columns: the sampler's close, the moments, the pooling and the
error bound read per-stratum columns, and build no object per stratum.

`WeightedSample` holds an interval's strata as columns (keys, ``C``,
``Y``, kept values); `StratumSample` objects are built only for consumers
that iterate it.  This file keeps the per-stratum object code the columns
replaced — ``peek``, ``_segment_moments``, ``pooled_result`` and the
Equation 6 / 9 loops — as a reference, and checks with ``float.hex`` that
both give the same bits: over 1–400 strata, late-appearing strata,
capacity 1, ``C == Y``, ``Y == 1``, empty intervals, a mid-interval
``rebalance``, value and tuple mode, the sharded producer, pickles and
iterating consumers.  A ``sys.setprofile`` guard pins that the close and a
mean pane make as many Python calls at 400 strata as at 4.
"""

import math
import pickle
import random
import sys
from itertools import chain
from operator import itemgetter

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import strata as strata_module
from repro.core.distributed import ShardedExecutor
from repro.core.error import estimate_error, variance_of_mean, variance_of_sum
from repro.core.oasrs import (
    FixedPerStratum,
    OASRSSampler,
    ProportionalAllocation,
    WaterFillingAllocation,
)
from repro.core.query import QueryResult, StratumStats, interval_moments, pooled_result
from repro.core.records import RecordBatch, _StratumMembers, item_key, item_value
from repro.core.strata import StratumSample, WeightedSample, stratum_weight
from repro.runtime import (
    ListSource,
    StreamQuery,
    SystemConfig,
    WindowConfig,
    build_plan,
    execute_plan,
)
from repro.runtime import driver

# ---------------------------------------------------------------------------
# The per-stratum reference: the object code the columns replaced
# ---------------------------------------------------------------------------


def ref_peek(sampler):
    """One `StratumSample` per active stratum, from the sampler's state."""
    sample = WeightedSample()
    counts = sampler._seen.tolist()
    active = [number for number, count in enumerate(counts) if count]
    if sampler._value_mode and active:
        regions = [
            (sampler._offset[number], min(counts[number], sampler._cap[number]))
            for number in active
        ]
        packed = np.concatenate(
            [sampler._values[start : start + size] for start, size in regions]
        )
    start = 0
    for number in active:
        key, count = sampler._keys[number], counts[number]
        if sampler._value_mode:
            end = start + min(count, sampler._cap[number])
            kept = _StratumMembers(key, packed[start:end])
            start = end
        else:
            kept = tuple(sampler._kept[number])
        sample.add(StratumSample(key, kept, count, stratum_weight(count, len(kept))))
    return sample


def ref_segment_moments(sample, value_fn):
    strata = list(sample)
    keys = [stratum.key for stratum in strata]
    ys = [len(stratum.items) for stratum in strata]
    rows = np.zeros((len(strata), 5))
    rows[:, 0], rows[:, 1] = ys, [stratum.count for stratum in strata]
    kept = rows[:, 0] > 0
    y = np.array([n for n in ys if n], dtype=np.intp)
    if not y.size:
        return keys, rows
    starts = np.cumsum(y) - y
    arrays = [stratum.value_array(value_fn) for stratum in strata]
    if any(array is None for array in arrays):
        items = chain.from_iterable(stratum.items for stratum in strata)
        fn = itemgetter(1) if value_fn is item_value else (value_fn or float)
        values = np.fromiter(map(fn, items), dtype=np.float64, count=sum(ys))
    else:
        values = np.concatenate(arrays)
    pivot = np.add.reduceat(values, starts) / y
    d = np.repeat(pivot, y)
    np.subtract(values, d, out=d)
    sd = np.add.reduceat(d, starts)
    m2 = np.add.reduceat(np.square(d, out=d), starts) - sd * sd / y
    rows[kept, 2:] = np.column_stack((pivot, sd / y, np.maximum(m2, 0.0)))
    return keys, rows


def ref_pooled(moment_sets, kind):
    """``(value, [StratumStats])``: the pooling, one object per stratum."""
    index = {}
    rows = [index.setdefault(k, len(index)) for keys, _ in moment_sets for k in keys]
    y, c, pivot, shift, m2 = np.concatenate([part for _, part in moment_sets]).T
    at = np.array(rows, dtype=np.intp)

    def per_stratum(weights):
        return np.bincount(at, weights=weights, minlength=len(index))

    ys = per_stratum(y)
    n = np.maximum(ys, 1.0)
    ref = per_stratum(y * pivot) / n
    u = (pivot - ref[at]) + shift
    mean_u = per_stratum(y * u) / n
    dev = u - mean_u[at]
    m2 = per_stratum(m2) + per_stratum(y * dev * dev)
    mean = ref + mean_u
    stats = zip(
        ys.astype(np.int64).tolist(), per_stratum(c).astype(np.int64).tolist(),
        (mean * ys).tolist(), mean.tolist(),
        (m2 / np.maximum(ys - 1, 1) * (ys > 1)).tolist(),
    )
    strata = [
        StratumStats(key, y, c, stratum_weight(c, y), total, mean, variance)
        for key, (y, c, total, mean, variance) in zip(index, stats)
    ]
    value = math.fsum(s.total * s.weight for s in strata)
    population = sum(s.c for s in strata)
    if kind == "mean":
        value = value / population if population else 0.0
    return value, strata


def ref_variance_of_sum(strata):
    def term(s):
        if s.y <= 1 or s.c <= s.y:
            return 0.0
        return s.c * (s.c - s.y) * s.variance / s.y

    return math.fsum(term(s) for s in strata)


def ref_variance_of_mean(strata):
    population = sum(s.c for s in strata)
    if population == 0:
        return 0.0
    total = 0.0
    for s in strata:
        if s.y <= 1 or s.c <= s.y or s.c == 0:
            continue
        omega = s.c / population
        total += (omega ** 2) * (s.variance / s.y) * ((s.c - s.y) / s.c)
    return total


# ---------------------------------------------------------------------------
# Bitwise comparisons
# ---------------------------------------------------------------------------


def bits(value):
    return value.hex() if isinstance(value, float) else value


def stratum_bits(stratum):
    return (
        stratum.key,
        stratum.count,
        stratum.weight.hex(),
        type(stratum.items).__name__,
        [(key, bits(value)) for key, value in stratum.items],
    )


def stats_bits(stats):
    return [tuple(map(bits, (s.key, s.y, s.c, s.weight, s.total, s.mean, s.variance)))
            for s in stats]


def assert_same_sample(got, want):
    assert got.keys == want.keys
    assert got.counts == [s.count for s in want]
    assert got.sizes == [s.sample_size for s in want]
    assert got.total_items == want.total_items
    assert got.total_count == want.total_count
    # An iterating consumer sees the `StratumSample`s the objects gave.
    assert [stratum_bits(s) for s in got] == [stratum_bits(s) for s in want]


def assert_same_moments(got, want):
    assert got[0] == want[0]
    assert got[1].tobytes() == want[1].tobytes()


def assert_same_pane(samples, references, kind, value_fn=item_value):
    """The column path on ``samples`` == the object path on ``references``."""
    moments = [interval_moments(s, value_fn) for s in samples]
    ref_moments = [ref_segment_moments(s, value_fn) for s in references]
    for got, want in zip(moments, ref_moments):
        assert_same_moments(got, want)
    result = pooled_result(moments, kind)
    value, strata = ref_pooled(ref_moments, kind)
    assert result.value.hex() == value.hex()
    assert stats_bits(result.strata) == stats_bits(strata)
    ref_variance = ref_variance_of_mean if kind == "mean" else ref_variance_of_sum
    bound = estimate_error(result)
    assert bound.variance.hex() == ref_variance(strata).hex()
    assert bound.margin.hex() == (2.0 * math.sqrt(ref_variance(strata))).hex()
    # Callers that pass objects read the same bits.
    assert variance_of_mean(strata).hex() == ref_variance_of_mean(strata).hex()
    assert variance_of_sum(strata).hex() == ref_variance_of_sum(strata).hex()


# ---------------------------------------------------------------------------
# The oracle
# ---------------------------------------------------------------------------


def tuple_key(item):
    """A custom stratifier: keeps the sampler in tuple mode."""
    return item[0]


def make_scenario(seed, n_strata, n_intervals, policy, tuple_mode, chunk, rebalance):
    """Intervals of ``(key, value)`` items over ``n_strata`` strata."""
    rng = random.Random(seed)
    intervals = []
    for index in range(n_intervals):
        if rng.random() < 0.15:
            intervals.append([])  # an empty interval
            continue
        items = []
        for k in range(n_strata):
            if k * 3 > n_strata * (index + 1) or rng.random() < 0.2:
                continue  # late-appearing strata, and gaps
            count = rng.choice((1, 1, 2, 3, rng.randint(4, 30)))
            offset = 10.0 ** rng.choice((0, 3, 8))
            items.extend((f"s{k}", offset + rng.gauss(0.0, 1.0)) for _ in range(count))
        rng.shuffle(items)
        intervals.append(items)
    return {
        "intervals": intervals,
        "policy": policy,
        "tuple_mode": tuple_mode,
        "chunk": chunk,
        "rebalance": rebalance,
        "seed": rng.getrandbits(32),
    }


scenarios = st.builds(
    make_scenario,
    seed=st.integers(0, 2**32 - 1),
    n_strata=st.integers(1, 400),
    n_intervals=st.integers(1, 4),
    policy=st.sampled_from(("cap1", "cap4", "all", "water")),
    tuple_mode=st.booleans(),
    chunk=st.sampled_from((1, 7, 64, 4096)),
    rebalance=st.booleans(),
)
#: Explicit 400-strata scenarios, value and tuple mode: the oracle always
#: runs at the largest stratum count, however Hypothesis draws.
AT_400 = [make_scenario(5, 400, 4, "water", mode, 4096, True) for mode in (False, True)]


def make_policy(name):
    return {
        "cap1": lambda: FixedPerStratum(1),
        "cap4": lambda: FixedPerStratum(4),
        "all": lambda: FixedPerStratum(1_000),  # C == Y everywhere
        "water": lambda: WaterFillingAllocation(300),
    }[name]()


def feed(sampler, items, chunk, tuple_mode):
    if not items:
        return
    rows = items if tuple_mode else RecordBatch(
        [(float(i), item) for i, item in enumerate(items)]
    ).item_slice(0, len(items))
    for start in range(0, len(rows), chunk):
        sampler.process_chunk(rows[start : start + chunk])


@given(scenario=scenarios)
@example(scenario=AT_400[0])
@example(scenario=AT_400[1])
@settings(max_examples=60, deadline=None)
def test_column_path_matches_the_object_path(scenario):
    policy = make_policy(scenario["policy"])
    sampler = OASRSSampler(
        policy,
        key_fn=tuple_key if scenario["tuple_mode"] else item_key,
        rng=random.Random(scenario["seed"]),
    )
    samples, references = [], []
    for items in scenario["intervals"]:
        half = len(items) // 2
        feed(sampler, items[:half], scenario["chunk"], scenario["tuple_mode"])
        if scenario["rebalance"] and isinstance(policy, WaterFillingAllocation):
            # Mid-interval re-target: only strata without an item re-size
            # (in value mode their slots move to the end of the buffer).
            counts = sampler._seen.tolist()
            before = sampler._cap.tolist()
            policy.set_total(policy.total + 37)
            sampler.rebalance()
            expected = [
                capacity if count else policy.capacity_for(key, len(sampler._keys))
                for key, count, capacity in zip(sampler._keys, counts, before)
            ]
            assert sampler._cap.tolist() == expected
        feed(sampler, items[half:], scenario["chunk"], scenario["tuple_mode"])
        want = ref_peek(sampler)
        assert_same_sample(sampler.peek(), want)
        got = sampler.close_interval()
        # The pane below reads a copy no consumer has iterated yet.
        samples.append(WeightedSample.of_columns(
            got.keys, got.counts, got.sizes, got.packed, got._members
        ))
        assert_same_sample(got, want)
        # The next interval's capacities: the policy's answer per stratum.
        keys = sampler._keys
        assert sampler._cap.tolist() == [
            policy.capacity_for(key, len(keys)) for key in keys
        ]
        references.append(want)
    for kind in ("mean", "sum"):
        for end in range(1, len(samples) + 1):
            window = slice(max(0, end - 2), end)
            assert_same_pane(samples[window], references[window], kind)


@given(scenario=scenarios)
@example(scenario=AT_400[0])
@settings(max_examples=25, deadline=None)
def test_pickled_samples_read_the_same_bits(scenario):
    sampler = OASRSSampler(
        make_policy(scenario["policy"]),
        key_fn=tuple_key if scenario["tuple_mode"] else item_key,
        rng=random.Random(scenario["seed"]),
    )
    for items in scenario["intervals"]:
        feed(sampler, items, scenario["chunk"], scenario["tuple_mode"])
        sample = sampler.close_interval()
        clone = pickle.loads(pickle.dumps(sample))
        assert [stratum_bits(s)[:3] for s in clone] == [
            stratum_bits(s)[:3] for s in sample
        ]
        assert_same_moments(
            interval_moments(clone, item_value), interval_moments(sample, item_value)
        )
        assert_same_pane([clone], [ref_peek_of(sample)], "mean")


def ref_peek_of(sample):
    """An object-built copy of ``sample`` (what the reference path reads)."""
    copy = WeightedSample()
    for stratum in sample:
        copy.add(stratum)
    return copy


def test_custom_value_fn_reads_through_the_items():
    sampler = OASRSSampler(FixedPerStratum(3), key_fn=item_key, rng=random.Random(4))
    items = [(f"k{i % 5}", float(i)) for i in range(40)]
    feed(sampler, items, 16, tuple_mode=False)
    want = ref_peek(sampler)
    got = sampler.close_interval()

    def doubled(item):
        return 2.0 * item[1]

    assert_same_pane([got], [want], "sum", value_fn=doubled)


def test_empty_interval_is_empty_columns():
    sampler = OASRSSampler(FixedPerStratum(3), key_fn=item_key, rng=random.Random(1))
    feed(sampler, [("a", 1.0), ("b", 2.0)], 2, tuple_mode=False)
    sampler.close_interval()
    empty = sampler.close_interval()
    assert (empty.keys, empty.counts, empty.sizes, len(empty)) == ([], [], [], 0)
    assert_same_pane([empty], [WeightedSample()], "mean")


def test_sharded_producer_matches_the_object_path():
    rng = random.Random(11)
    items = [(f"s{rng.randrange(120)}", 1e3 + rng.gauss(0.0, 5.0)) for _ in range(6000)]
    rows = RecordBatch([(float(i), item) for i, item in enumerate(items)])
    samples = []
    for policy in (FixedPerStratum(6), WaterFillingAllocation(400)):
        executor = ShardedExecutor(2, policy, key_fn=item_key, seed=5)
        samples.append(executor.run(rows.item_slice(0, len(rows))))
        samples.append(executor.run(items))  # tuple items
    for sample in samples:
        for kind in ("mean", "sum"):
            assert_same_pane([sample], [ref_peek_of(sample)], kind)


def test_pow_is_libm_pow_not_a_square():
    """``ω ** 2`` is libm ``pow``: at this ω it differs from ``ω * ω``.

    With ``ΣC = 2**53`` the stratum weight ``ω = C / ΣC`` is exact, so the
    pane below has ``ω == 0.923854799557242`` and must read the ``pow``
    bits end to end.
    """
    omega = 0.923854799557242
    assert math.pow(omega, 2.0) != omega * omega
    assert (omega ** 2).hex() == "0x1.b4fef5c494b63p-1"
    count = int(omega * 2**53)
    assert count / 2**53 == omega
    counts = [count, 2**53 - count]
    values = np.array([1.0, 4.0, 2.0, 7.0, 3.0])
    sample = WeightedSample.of_columns(["a", "b"], counts, [2, 3], packed=values)
    assert_same_pane([sample], [ref_peek_of(sample)], "mean")
    result = pooled_result([interval_moments(sample, item_value)], "mean")
    (a, b) = result.strata
    term = (omega ** 2) * (a.variance / a.y) * ((a.c - a.y) / a.c)
    squared = (omega * omega) * (a.variance / a.y) * ((a.c - a.y) / a.c)
    assert estimate_error(result).variance == 0.0 + term + (
        ((b.c / 2**53) ** 2) * (b.variance / b.y) * ((b.c - b.y) / b.c)
    )
    assert term != squared


def test_query_result_strata_are_a_read_only_view_of_its_columns():
    sample = WeightedSample.of_columns(
        ["a", "b"], [4, 3], [2, 3], packed=np.array([1.0, 4.0, 2.0, 7.0, 3.0])
    )
    result = pooled_result([interval_moments(sample, item_value)], "mean")
    assert isinstance(result.strata, tuple)
    assert [s.key for s in result.strata] == result.columns.key == ["a", "b"]
    assert repr(result) == f"QueryResult(value={result.value!r}, kind='mean', strata=2)"
    built = QueryResult(result.value, list(result.strata), "mean")
    assert built == result and isinstance(built.strata, tuple)


def test_proportional_rebalance_at_400_strata():
    rng = random.Random(2)
    counts = {f"s{k}": rng.randint(0, 500) for k in range(400)}
    policy = ProportionalAllocation(10_000)
    keys = list(counts) + ["late"]
    fresh = policy.rebalance(keys)
    assert set(fresh.values()) == {max(1, 10_000 // len(keys))}
    policy.observe(counts)
    seen = sum(counts.values())
    assert policy.rebalance(keys) == {
        key: max(1, int(round(10_000 * (counts.get(key, 0) / seen)))) for key in keys
    }


# ---------------------------------------------------------------------------
# No Python call per stratum
# ---------------------------------------------------------------------------


def strata_stream(n_strata, per_interval=6_000, intervals=3):
    rng = random.Random(9)
    events = []
    for i in range(per_interval * intervals):
        key = f"s{i % n_strata}"
        events.append((i * 5.0 / per_interval, (key, 100.0 + rng.gauss(0.0, 3.0))))
    return events


def calls_per_close(n_strata):
    """Python calls made by the second interval's ``close_interval`` plus
    its pane's ``close_sampled_pane`` on the direct engine (all strata
    seen by then, none fully kept)."""
    counted = []

    def counting(method):
        def wrapper(*args, **kwargs):
            calls = [0]

            def profile(_frame, event, _arg):
                if event == "call":
                    calls[0] += 1

            sys.setprofile(profile)
            try:
                return method(*args, **kwargs)
            finally:
                sys.setprofile(None)
                counted.append(calls[0])

        return wrapper

    plan = build_plan(
        StreamQuery(kind="mean"),
        WindowConfig(length=10.0, slide=5.0),
        SystemConfig(sampling_fraction=0.3, seed=3, chunk_size=4096),
        engine="direct",
        strategy="oasrs",
        source=ListSource(RecordBatch(strata_stream(n_strata))),
    )
    patched = (
        (OASRSSampler, "close_interval"),
        (driver._Run, "close_sampled_pane"),
    )
    saved = [getattr(owner, name) for owner, name in patched]
    try:
        for owner, name in patched:
            setattr(owner, name, counting(getattr(owner, name)))
        results, _ = execute_plan(plan)
    finally:
        for (owner, name), method in zip(patched, saved):
            setattr(owner, name, method)
    assert len(results) == 3 and len(counted) == 6
    return counted[2] + counted[3]


def test_close_and_pane_make_no_python_call_per_stratum():
    few, many = calls_per_close(4), calls_per_close(400)
    assert many - few <= 3, (few, many)


def test_direct_mean_run_builds_no_stratum_sample(monkeypatch):
    built = []
    original = StratumSample.__post_init__

    def counting(self):
        built.append(self.key)
        original(self)

    monkeypatch.setattr(strata_module.StratumSample, "__post_init__", counting)
    plan = build_plan(
        StreamQuery(kind="mean"),
        WindowConfig(length=10.0, slide=5.0),
        SystemConfig(sampling_fraction=0.3, seed=3, chunk_size=4096),
        engine="direct",
        strategy="oasrs",
        source=ListSource(RecordBatch(strata_stream(50))),
    )
    results, _ = execute_plan(plan)
    assert len(results) == 3
    assert built == []
    # The same samples still hand out objects to a consumer that asks.
    sampler = OASRSSampler(FixedPerStratum(2), key_fn=item_key, rng=random.Random(1))
    feed(sampler, [("a", 1.0), ("b", 2.0), ("a", 3.0)], 3, tuple_mode=False)
    assert [s.key for s in sampler.close_interval()] == ["a", "b"]
    assert built == ["a", "b"]


def test_stratum_order_is_first_arrival_not_hash():
    sampler = OASRSSampler(FixedPerStratum(2), key_fn=item_key, rng=random.Random(1))
    keys = [f"k{n}" for n in (7, 3, 9, 1, 5)]
    feed(sampler, [(key, 1.0) for key in keys], 5, tuple_mode=False)
    assert sampler.close_interval().keys == keys
