"""Properties of the segmented Algorithm-R chunk kernel.

`repro.core.reservoir.segmented_offer` decides a whole chunk for every
stratum at once, and `OASRSSampler.process_chunk` applies those decisions
to one of two stores.  Pinned here:

* *right* — every arrival of a stratum is kept with probability ``N / n``,
  also when the fill→steady boundary falls inside a chunk; a slot named
  twice in one chunk goes to the later arrival; an underfull stratum keeps
  everything at weight 1;
* *one decision, two stores* — a column chunk and the list of its item
  tuples sample ``repr``-equally for any mix of chunk sizes, any stratum
  count, and any assignment of interned codes to keys;
* *one draw rule* — any grouping of the same rows (an ``offer`` loop,
  ``offer_many``, ``process_chunk`` at any size, column or tuple rows)
  leaves the sample, the strata and both generators in the same state, so
  every engine returns the same panes at every ``chunk_size`` and under
  ``REPRO_NO_COLUMNAR``;
* *resumable* — the array state and the one generator survive a snapshot,
  mid-interval and at every pane checkpoint of a 400-strata chunked plan,
  in memory and through ``to_bytes``.
"""

import os
import pickle
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.oasrs as oasrs
from repro.core.oasrs import (
    EqualAllocation,
    FixedPerStratum,
    OASRSSampler,
    WaterFillingAllocation,
)
from repro.core.records import L2_SLICE, ColumnSlice, RecordBatch, item_key
from repro.core.recovery import restore_sampler, sampler_state
from repro.core.reservoir import segmented_offer
from repro.runtime import (
    CheckpointPolicy,
    CheckpointStore,
    ListSource,
    PaneCheckpoint,
    StreamQuery,
    SystemConfig,
    WindowConfig,
    build_plan,
    execute_plan,
)
from repro.workloads.synthetic import SubStreamSpec, make_stream, stream_by_rates


def column_view(items):
    batch = RecordBatch([(float(i), item) for i, item in enumerate(items)])
    return batch.item_slice(0, len(items))


def feed(sampler, source, sizes):
    """Feed ``source`` as consecutive chunks of the given sizes (cycled)."""
    start, turn = 0, 0
    while start < len(source):
        size = sizes[turn % len(sizes)]
        sampler.process_chunk(source[start : start + size])
        start, turn = start + size, turn + 1


def fingerprint(sample):
    return repr([(s.key, list(s.items), s.count, s.weight) for s in sample])


def make_items(strata, n, seed):
    rng = random.Random(seed)
    keys = [f"k{i:03d}" for i in range(strata)]
    return [(rng.choice(keys), rng.gauss(50.0, 5.0)) for _ in range(n)]


class Scripted:
    """A stand-in generator that hands the kernel the uniforms of a script."""

    def __init__(self, *draws):
        self._draws = list(draws)

    def random(self, n):
        draw = self._draws.pop(0)
        assert len(draw) == n
        return np.asarray(draw, dtype=np.float64)


# ---------------------------------------------------------------------------
# The kernel alone
# ---------------------------------------------------------------------------


class TestKernel:
    def test_inclusion_is_uniform_with_the_boundary_inside_a_chunk(self):
        """χ² of per-arrival inclusion counts against ``trials · N / n``."""
        caps = np.asarray([20, 7], dtype=np.int64)
        # Stratum 0 fills at its 20th arrival (row ~30 of the first chunk),
        # stratum 1 at its 7th; both boundaries sit inside chunk one.
        layout = np.asarray(([0, 0, 1] * 200)[:540], dtype=np.intp)
        arrivals = [np.flatnonzero(layout == s) for s in (0, 1)]
        trials = 4000
        hits = np.zeros(len(layout))
        for trial in range(trials):
            gen = np.random.default_rng(trial)
            seen = np.zeros(2, dtype=np.int64)
            slot_owner = {}
            for start in range(0, len(layout), 128):
                chunk = layout[start : start + 128]
                rows, numbers, slots = segmented_offer(chunk, seen, caps, gen)
                assert numbers.tolist() == chunk[rows].tolist()
                for row, number, slot in zip(rows.tolist(), numbers.tolist(), slots.tolist()):
                    slot_owner[(number, slot)] = start + row
            assert seen.tolist() == [len(a) for a in arrivals]
            assert len(slot_owner) == caps.sum()
            hits[list(slot_owner.values())] += 1
        for stratum, rows in enumerate(arrivals):
            expected = trials * caps[stratum] / len(rows)
            chi2 = float(((hits[rows] - expected) ** 2 / expected).sum())
            df = len(rows) - 1
            # Fixed-size samples are under-dispersed, so df + 4σ is generous.
            assert chi2 < df + 4 * (2 * df) ** 0.5, (stratum, chi2, df)
            # No drift along the stream: early and late arrivals alike.
            half = len(rows) // 2
            assert abs(hits[rows[:half]].mean() - hits[rows[half:]].mean()) < 0.05 * expected

    def test_later_arrival_wins_a_slot_named_twice(self):
        seen = np.asarray([10], dtype=np.int64)
        caps = np.asarray([2], dtype=np.int64)
        # Arrivals 11, 12, 13: ⌊U·i⌋ = 1, 10, 1.
        gen = Scripted([1.5 / 11, 0.9, 1.5 / 13])
        rows, numbers, slots = segmented_offer(
            np.zeros(3, dtype=np.intp), seen, caps, gen
        )
        assert rows.tolist() == [0, 2] and slots.tolist() == [1, 1]
        assert numbers.tolist() == [0, 0] and seen.tolist() == [13]

    def test_fill_rows_take_their_arrival_slot(self):
        seen = np.asarray([0, 3], dtype=np.int64)
        caps = np.asarray([4, 5], dtype=np.int64)
        strata = np.asarray([1, 0, 0, 1, 0], dtype=np.intp)
        rows, numbers, slots = segmented_offer(
            strata, seen, caps, np.random.default_rng(0)
        )
        # Ordered by stratum, then arrival.
        assert rows.tolist() == [1, 2, 4, 0, 3]
        assert numbers.tolist() == [0, 0, 0, 1, 1]
        assert slots.tolist() == [0, 1, 2, 3, 4]
        assert seen.tolist() == [3, 5]


# ---------------------------------------------------------------------------
# One decision, two stores
# ---------------------------------------------------------------------------


def run_both(items, sizes, policy_factory, seed, intervals=2):
    """Feed the same items as column chunks and as tuple chunks."""
    out = []
    for source in (column_view(items), items):
        sampler = OASRSSampler(policy_factory(), item_key, random.Random(seed))
        prints = []
        for _ in range(intervals):
            feed(sampler, source, sizes)
            prints.append(fingerprint(sampler.close_interval()))
        out.append((prints, sampler._rng.getstate(), sampler._gen.bit_generator.state))
    return out


class TestColumnarEqualsTupleChunks:
    @pytest.mark.parametrize("strata", [1, 3, 400])
    @pytest.mark.parametrize("chunk", [2, 64, 256, 4096, 10_000])
    def test_repr_equal_across_strata_and_chunk_sizes(self, strata, chunk):
        items = make_items(strata, 12_000, seed=strata + chunk)
        columnar, tuples = run_both(
            items, [chunk], lambda: WaterFillingAllocation(3000), seed=chunk
        )
        assert columnar == tuples
        assert "k000" in columnar[0][1]

    @settings(max_examples=40, deadline=None)
    @given(
        sizes=st.lists(st.sampled_from([1, 1, 2, 5, 64]), min_size=1, max_size=6),
        strata=st.sampled_from([1, 3, 40]),
        capacity=st.integers(1, 30),
        seed=st.integers(0, 2**16),
    )
    def test_one_row_chunks_interleave_with_multi_row_chunks(
        self, sizes, strata, capacity, seed
    ):
        items = make_items(strata, 300, seed)
        columnar, tuples = run_both(
            items, sizes, lambda: FixedPerStratum(capacity), seed, intervals=1
        )
        assert columnar == tuples

    def test_collision_resolves_the_same_way_in_both_stores(self):
        items = [("a", float(i)) for i in range(13)]
        kept = []
        for source in (column_view(items), items):
            sampler = OASRSSampler(FixedPerStratum(2), item_key, random.Random(3))
            sampler.process_chunk(source[:10])
            before = list(sampler.peek()["a"].items)
            sampler._gen = Scripted([1.5 / 11, 0.9, 1.5 / 13])
            assert sampler.process_chunk(source[10:]) == 2
            after = list(sampler.close_interval()["a"].items)
            assert after == [before[0], ("a", 12.0)]
            kept.append(after)
        assert kept[0] == kept[1]

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**16), data=st.data())
    def test_invariant_under_permuting_key_table_codes(self, seed, data):
        items = make_items(6, 400, seed)
        view = column_view(items)
        table = list(view.key_table)
        permutation = data.draw(st.permutations(range(len(table))))
        # Old code c becomes code permutation[c]; the new table inverts it.
        new_table = [None] * len(table)
        for old, new in enumerate(permutation):
            new_table[new] = table[old]
        recoded = ColumnSlice(
            np.asarray(permutation, dtype=np.int32)[view.codes], view.values, new_table
        )
        assert list(recoded) == list(view)
        prints = []
        for source in (view, recoded):
            sampler = OASRSSampler(EqualAllocation(60), item_key, random.Random(seed))
            feed(sampler, source, [50])
            prints.append(fingerprint(sampler.close_interval()))
        assert prints[0] == prints[1]

    def test_stratum_first_seen_mid_interval(self):
        items = make_items(3, 200, seed=1) + [("late", 1.0), ("k000", 2.0), ("late", 3.0)]
        columnar, tuples = run_both(
            items, [64], lambda: EqualAllocation(40), seed=2, intervals=1
        )
        assert columnar == tuples
        sampler = OASRSSampler(EqualAllocation(40), item_key, random.Random(2))
        feed(sampler, column_view(items), [64])
        sample = sampler.close_interval()
        # Numbered on arrival: last of four strata, a quarter of the budget.
        assert sample.keys[-1] == "late"
        assert list(sample["late"].items) == [("late", 1.0), ("late", 3.0)]
        assert sample["late"].count == 2 and sample["late"].weight == 1.0

    @pytest.mark.parametrize("columnar", [True, False])
    def test_underfull_strata_keep_everything_at_weight_one(self, columnar):
        items = make_items(5, 90, seed=4)
        sampler = OASRSSampler(FixedPerStratum(90), item_key, random.Random(0))
        feed(sampler, column_view(items) if columnar else items, [32])
        sample = sampler.close_interval()
        assert sample.total_items == sample.total_count == 90
        for stratum in sample:
            assert stratum.weight == 1.0
            assert list(stratum.items) == [it for it in items if it[0] == stratum.key]

    def test_rebalance_mid_interval_resizes_only_idle_strata(self):
        items = [("a", float(i)) for i in range(8)] + [("b", float(i)) for i in range(8)]
        prints = []
        for source in (column_view(items), items):
            sampler = OASRSSampler(FixedPerStratum(3), item_key, random.Random(1))
            sampler.process_chunk(source[:8])  # "a" is active, at capacity 3
            sampler.close_interval()
            sampler.process_chunk(source[:4])
            sampler.set_policy(FixedPerStratum(6))
            sampler.rebalance()  # "b" is idle and grows; "a" keeps 3 slots
            sampler.process_chunk(source[4:])
            sample = sampler.close_interval()
            assert sample["a"].sample_size == 3 and sample["a"].count == 8
            assert sample["b"].sample_size == 6 and sample["b"].count == 8
            assert {v for _k, v in sample["b"].items} <= set(map(float, range(8)))
            prints.append(fingerprint(sample))
        assert prints[0] == prints[1]

    def test_per_item_feed_after_column_chunks_keeps_one_store(self):
        items = make_items(3, 120, seed=6)
        mixed = OASRSSampler(FixedPerStratum(200), item_key, random.Random(0))
        mixed.process_chunk(column_view(items)[:64])
        for item in items[64:100]:
            mixed.offer(item)
        mixed.process_chunk(column_view(items)[100:])
        sample = mixed.close_interval()
        for stratum in sample:
            assert type(stratum.items) is tuple
            assert list(stratum.items) == [it for it in items if it[0] == stratum.key]


# ---------------------------------------------------------------------------
# One draw rule: the grouping of the rows changes nothing
# ---------------------------------------------------------------------------

POLICIES = {
    "fixed": FixedPerStratum,
    "equal": lambda capacity: EqualAllocation(3 * capacity),
    "water": lambda capacity: WaterFillingAllocation(3 * capacity),
}
KEY_MAKERS = {
    "str": lambda i: f"k{i:02d}",
    "int": lambda i: i + 2,
    "mixed": lambda i: f"k{i:02d}" if i % 2 else i + 2,
}
FEEDS = ("offer", "offer_many", "chunk")
#: The sampler's slice while `TestOneDrawRule` runs: an interval of
#: ``SLICE + 300`` rows crosses a slice boundary whatever its feed, at a
#: size a one-row feed still walks in well under a second.
SLICE = 8192


@st.composite
def grouped_intervals(draw):
    """Intervals of rows, each cut into segments fed by a drawn feed."""
    strata = draw(st.integers(1, 40))
    make_key = KEY_MAKERS[draw(st.sampled_from(sorted(KEY_MAKERS)))]
    keys = [make_key(i) for i in range(strata)]
    rng = random.Random(draw(st.integers(0, 2**16)))
    intervals = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.one_of(st.integers(0, 700), st.just(SLICE + 300)))
        # Some strata are first seen only in the interval's second half.
        early = keys[: draw(st.integers(1, strata))]
        items = [
            (rng.choice(early if row < n // 2 else keys), rng.gauss(50.0, 5.0))
            for row in range(n)
        ]
        cuts = sorted(draw(st.lists(st.integers(0, n), max_size=3)))
        bounds = [0] + cuts + [n]
        segments = [
            (
                lo,
                hi,
                draw(st.sampled_from(FEEDS)),
                draw(st.booleans()),  # column rows, else tuple rows
                draw(st.sampled_from([1, 2, 5, 64, 4096])),
            )
            for lo, hi in zip(bounds, bounds[1:])
        ]
        intervals.append((items, segments))
    return intervals


def feed_segment(sampler, items, view, segment):
    lo, hi, how, columnar, size = segment
    rows = view[lo:hi] if columnar else items[lo:hi]
    if how == "offer":
        for item in items[lo:hi]:
            sampler.offer(item)
    elif how == "offer_many":
        sampler.offer_many(rows)
    else:
        feed(sampler, rows, [size])


def generator_state(sampler):
    return None if sampler._gen is None else sampler._gen.bit_generator.state


class TestOneDrawRule:
    @settings(max_examples=300, deadline=None)
    @given(
        intervals=grouped_intervals(),
        policy=st.sampled_from(sorted(POLICIES)),
        capacity=st.integers(1, 200),
        seed=st.integers(0, 2**16),
    )
    @mock.patch.object(oasrs, "_L2_SLICE", SLICE)
    def test_any_grouping_keeps_the_same_sample_and_generator(
        self, intervals, policy, capacity, seed
    ):
        make_policy = POLICIES[policy]
        grouped = OASRSSampler(make_policy(capacity), item_key, random.Random(seed))
        whole = OASRSSampler(make_policy(capacity), item_key, random.Random(seed))
        for items, segments in intervals:
            view = column_view(items)
            for segment in segments:
                feed_segment(grouped, items, view, segment)
            whole.offer_many(items)
            assert grouped.strata_seen == whole.strata_seen
            assert grouped._keys == whole._keys and grouped._cap == whole._cap
            assert fingerprint(grouped.peek()) == fingerprint(whole.peek())
            assert fingerprint(grouped.close_interval()) == fingerprint(
                whole.close_interval()
            )
            assert grouped._rng.getstate() == whole._rng.getstate()
            assert generator_state(grouped) == generator_state(whole)

    def test_column_feed_keeps_floats_and_a_tuple_interval_keeps_tuples(self):
        items = make_items(3, 500, seed=2)
        sampler = OASRSSampler(FixedPerStratum(20), item_key, random.Random(1))
        sampler.offer_many(column_view(items))
        assert {type(s.items).__name__ for s in sampler.close_interval()} == {
            "_StratumMembers"
        }
        # An interval that already holds item tuples stays in the tuple store.
        sampler.offer(items[0])
        sampler.offer_many(column_view(items)[1:])
        assert {type(s.items) for s in sampler.close_interval()} == {tuple}
        sampler.offer_many(column_view(items)[:0])
        assert len(sampler.peek()) == 0

    @settings(max_examples=25, deadline=None)
    @given(capacity=st.integers(1, 12), seed=st.integers(0, 2**16))
    def test_one_row_chunks_equal_one_run(self, capacity, seed):
        items = make_items(4, 200, seed)
        view = column_view(items)
        samplers = [
            OASRSSampler(FixedPerStratum(capacity), item_key, random.Random(seed))
            for _ in range(3)
        ]
        rows, loop, run = samplers
        kept = sum(rows.process_chunk(view[row : row + 1]) for row in range(len(items)))
        for item in items:
            loop.offer(item)
        assert run.process_chunk(view) == kept >= min(len(items), capacity)
        prints = {fingerprint(sampler.close_interval()) for sampler in samplers}
        assert len(prints) == 1
        assert rows._rng.getstate() == loop._rng.getstate() == run._rng.getstate()
        assert generator_state(rows) == generator_state(loop) == generator_state(run)


#: The slide and the micro-batch: every engine feeds 5-second runs.
RUN_SECONDS = 5.0


def chunk_stream():
    # Odd interval lengths: a chunk of 2 leaves a one-row tail; the two
    # whole intervals hold more than `L2_SLICE` rows each.
    return stream_by_rates({"A": 6423, "B": 1609, "C": 21}, duration=12, seed=5)


@pytest.mark.parametrize("engine", ["direct", "pipelined", "batched"])
def test_chunk_size_changes_no_pane(engine, monkeypatch):
    stream = chunk_stream()
    draws = []
    real_draw = oasrs.draw

    def counting_draw(*args):
        draws.append(1)
        return real_draw(*args)

    monkeypatch.setattr(oasrs, "draw", counting_draw)

    def panes(chunk, shim=False):
        if shim:
            os.environ["REPRO_NO_COLUMNAR"] = "1"
        try:
            plan = build_plan(
                StreamQuery(kind="mean"), WindowConfig(10.0, RUN_SECONDS),
                SystemConfig(
                    sampling_fraction=0.4, seed=3, chunk_size=chunk,
                    batch_interval=RUN_SECONDS,
                ),
                engine=engine, strategy="oasrs", source=ListSource(stream),
            )
            info = {}
            draws.clear()
            results, _ = execute_plan(plan, run_info=info)
        finally:
            os.environ.pop("REPRO_NO_COLUMNAR", None)
        assert ("columnar_fallback" in info) == shim
        # The sampler takes each run between two watermarks in one feed and
        # slices only that: one draw per `L2_SLICE` rows of a run.
        assert len(draws) == slices, f"chunk_size={chunk}, shim={shim}"
        return results

    runs = np.bincount([int(ts // RUN_SECONDS) for ts, _item in stream])
    slices = sum(-(-int(run) // L2_SLICE) for run in runs)
    assert slices > np.count_nonzero(runs)
    base = panes(0)
    assert len(base) >= 2
    for chunk in (1, 2, 256, 4096):
        assert panes(chunk) == base, f"chunk_size={chunk}"
    for chunk in (0, 2):
        assert panes(chunk, shim=True) == base, f"REPRO_NO_COLUMNAR, chunk_size={chunk}"


# ---------------------------------------------------------------------------
# Snapshots: the array state and the one generator
# ---------------------------------------------------------------------------


class TestSnapshots:
    @pytest.mark.parametrize("columnar", [True, False])
    @pytest.mark.parametrize("through_bytes", [False, True])
    def test_mid_interval_round_trip_is_exact(self, columnar, through_bytes):
        items = make_items(400, 9000, seed=8)
        source = column_view(items) if columnar else items

        def fresh(seed):
            return OASRSSampler(WaterFillingAllocation(1200), item_key, random.Random(seed))

        original = fresh(5)
        feed(original, source[:3000], [512])
        original.close_interval()
        feed(original, source[3000:6000], [512])
        state = sampler_state(original)
        if through_bytes:
            state = pickle.loads(pickle.dumps(state))
        restored = restore_sampler(fresh(0), state)
        for sampler in (original, restored):
            feed(sampler, source[6000:], [512])
        assert fingerprint(restored.close_interval()) == fingerprint(
            original.close_interval()
        )
        feed(original, source[:2000], [512])
        feed(restored, source[:2000], [512])
        assert fingerprint(restored.peek()) == fingerprint(original.peek())


def many_strata_stream(seed):
    specs = [
        SubStreamSpec(f"s{i:03d}", "gaussian", mu=10.0 * (i + 1), sigma=1.0 + i % 7)
        for i in range(400)
    ]
    return make_stream(specs, {spec.source: 8.0 for spec in specs}, 12.0, seed=seed)


def many_strata_plan(stream, **config_overrides):
    config = SystemConfig(sampling_fraction=0.4, seed=11, chunk_size=512, **config_overrides)
    return build_plan(
        StreamQuery(kind="mean", name="mean"), WindowConfig(6.0, 3.0), config,
        engine="direct", strategy="oasrs", source=ListSource(stream), name="many",
    )


def test_resume_from_every_checkpoint_of_a_400_strata_chunked_plan():
    stream = many_strata_stream(seed=3)
    info = {}
    base, _ = execute_plan(many_strata_plan(stream), run_info=info)
    assert info.get("columnar_fallback") is None and len(base) >= 3
    store = CheckpointStore()
    policy = CheckpointPolicy(every=1)
    observed, _ = execute_plan(
        many_strata_plan(stream, checkpoint=policy), checkpoint_store=store
    )
    assert observed == base and len(store) == len(base)
    for index in store.indices():
        checkpoint = store.get(index)
        for resume_from in (checkpoint, PaneCheckpoint.from_bytes(checkpoint.to_bytes())):
            resumed, _ = execute_plan(
                many_strata_plan(stream, checkpoint=policy), resume_from=resume_from
            )
            assert resumed == base
