"""The OASRS kernel's grouping half, cached on a resident stream.

`repro.core.reservoir.group_rows` orders a run of rows by interned code —
the part of the kernel that does not depend on the seed — and
`repro.core.records.RecordBatch.grouping` keeps it per located row range,
so every later seed and pass over the batch runs only
`repro.core.reservoir.draw`.  Pinned here:

* *one kernel path* — a second pass over one batch (cache hit), a fresh
  batch (miss), tuple rows, ``REPRO_NO_COLUMNAR`` and a strided shard view
  (never cached) leave ``==`` panes, samples and generator states, at
  every chunk size and resume point;
* *the cache* — a second pass computes no grouping, the bytes it holds stay
  under `GROUPING_BYTES_PER_ROW` times the batch's rows however many chunk
  grids run over it, a change of the batch's length drops it, and
  threads sharing a batch get the panes they get alone.
"""

import os
import random
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.records as records
import repro.core.reservoir as reservoir
from repro.core.oasrs import OASRSSampler, WaterFillingAllocation
from repro.core.records import GROUPING_BYTES_PER_ROW, L2_SLICE, RecordBatch, item_key
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

KEY_MAKERS = {
    "str": lambda i: f"k{i:03d}",
    "int": lambda i: i + 2,
    "mixed": lambda i: f"k{i:03d}" if i % 2 else i + 2,
}
CHUNKS = (0, 1, 2, 5, 64, 4096, L2_SLICE + 1)


def make_events(strata, n, keys, seed, duration=12.0):
    """``n`` time-ordered ``(ts, (key, value))`` events over skewed strata."""
    rng = random.Random(seed)
    make_key = KEY_MAKERS[keys]
    names = [make_key(i) for i in range(strata)]
    weights = [1.0 / (i + 1) for i in range(strata)]
    picks = rng.choices(names, weights, k=n)
    times = sorted(rng.uniform(0.0, duration) for _ in range(n))
    return [(ts, (key, rng.gauss(50.0, 5.0))) for ts, key in zip(times, picks)]


def plan_for(stream, chunk, seed=3, **overrides):
    return build_plan(
        StreamQuery(kind="mean"), WindowConfig(6.0, 3.0),
        SystemConfig(sampling_fraction=0.3, seed=seed, chunk_size=chunk, **overrides),
        engine="direct", strategy="oasrs", source=ListSource(stream), name="g",
    )


def generators(store):
    """Each checkpoint's ``random.Random`` and NumPy generator states."""
    states = []
    for index in store.indices():
        sampler = store.get(index).state["strategy"]["sampler"]["state"]
        states.append((sampler["rng"], sampler["gen"]))
    return states


def checkpointed_run(stream, chunk, shim=False):
    """``(panes, generator states, store)`` of one checkpointed run."""
    if shim:
        os.environ["REPRO_NO_COLUMNAR"] = "1"
    try:
        store = CheckpointStore()
        info = {}
        panes, _ = execute_plan(
            plan_for(stream, chunk, checkpoint=CheckpointPolicy(every=1)),
            run_info=info, checkpoint_store=store,
        )
    finally:
        os.environ.pop("REPRO_NO_COLUMNAR", None)
    assert ("columnar_fallback" in info) == shim
    return panes, generators(store), store


@settings(max_examples=20, deadline=None)
@given(
    chunk=st.sampled_from(CHUNKS),
    keys=st.sampled_from(sorted(KEY_MAKERS)),
    strata=st.one_of(st.integers(1, 40), st.just(500)),
    seed=st.integers(0, 2**16),
)
def test_every_plan_feed_leaves_equal_panes_and_generators(chunk, keys, strata, seed):
    events = make_events(strata, 12_000, keys, seed)
    batch = RecordBatch(events)
    first = checkpointed_run(batch, chunk)  # fills the cache
    hit = checkpointed_run(batch, chunk)
    miss = checkpointed_run(RecordBatch(list(events)), chunk)
    shim = checkpointed_run(batch, chunk, shim=True)
    assert len(first[0]) >= 2
    for other in (hit, miss, shim):
        assert other[0] == first[0] and other[1] == first[1]
    store = first[2]
    for index in store.indices():
        checkpoint = store.get(index)
        for resume_from in (checkpoint, PaneCheckpoint.from_bytes(checkpoint.to_bytes())):
            resumed, _ = execute_plan(
                plan_for(batch, chunk, checkpoint=CheckpointPolicy(every=1)),
                resume_from=resume_from,
            )
            assert resumed == first[0]


def fingerprint(sample):
    return repr([(s.key, list(s.items), s.count, s.weight) for s in sample])


def sampler_feed(rows_of, sizes, intervals, seed):
    """Samples and final generator states of one sampler fed interval by
    interval, each interval cut into chunks of the given sizes (cycled)."""
    sampler = OASRSSampler(WaterFillingAllocation(300), item_key, random.Random(seed))
    prints = []
    for lo, hi in intervals:
        start, turn = lo, 0
        while start < hi:
            end = min(start + sizes[turn % len(sizes)], hi)
            sampler.process_chunk(rows_of(start, end))
            start, turn = end, turn + 1
        prints.append(fingerprint(sampler.close_interval()))
    gen = None if sampler._gen is None else sampler._gen.bit_generator.state
    return prints, sampler._rng.getstate(), gen


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(
        st.sampled_from([1, 2, 5, 64, 4096, L2_SLICE + 1]), min_size=1, max_size=4
    ),
    keys=st.sampled_from(sorted(KEY_MAKERS)),
    strata=st.one_of(st.integers(1, 40), st.just(500)),
    seed=st.integers(0, 2**16),
)
def test_every_sampler_feed_leaves_equal_samples_and_generators(sizes, keys, strata, seed):
    n = 9_000
    events = make_events(strata, n, keys, seed)
    items = [item for _ts, item in events]
    batch = RecordBatch(events)
    # Every row of the original sits at an even index: ``[lo:hi:2]`` of the
    # doubled batch is a strided view (no row range, never cached).
    doubled = RecordBatch([event for pair in zip(events, events) for event in pair])
    intervals = [(0, 4_000), (4_000, n)]

    def located(of):
        return lambda lo, hi: of.item_slice(lo, hi)

    first = sampler_feed(located(batch), sizes, intervals, seed)
    feeds = {
        "hit": located(batch),
        "miss": located(RecordBatch(list(events))),
        "tuples": lambda lo, hi: items[lo:hi],
        "strided": lambda lo, hi: doubled.item_slice(2 * lo, 2 * hi)[::2],
    }
    for name, rows_of in feeds.items():
        assert sampler_feed(rows_of, sizes, intervals, seed) == first, name


def counting_group_rows(monkeypatch):
    """Count every grouping `RecordBatch.grouping` computes."""
    calls = []
    real = records.group_rows

    def spy(codes):
        calls.append(len(codes))
        return real(codes)

    monkeypatch.setattr(records, "group_rows", spy)
    return calls


@pytest.mark.parametrize("chunk", [0, 64, 4096])
def test_a_second_pass_computes_no_grouping(monkeypatch, chunk):
    batch = RecordBatch(make_events(6, 20_000, "str", seed=1))
    calls = counting_group_rows(monkeypatch)
    base, _ = execute_plan(plan_for(batch, chunk, seed=3))
    assert calls
    calls.clear()
    for seed in (3, 4, 5):  # every seed, every pass
        panes, _ = execute_plan(plan_for(batch, chunk, seed=seed))
        if seed == 3:
            assert panes == base
    assert calls == []


def held_bytes(batch):
    """The bytes the batch's cached groupings are charged."""
    _columns, cached, _counted = batch._groupings
    return sum(
        records._GROUPING_OVERHEAD + sum(array.nbytes for array in grouping)
        for grouping in cached.values()
    )


def group_grid(batch, chunk):
    """Group ``batch`` cut into ``chunk``-row views; each grouping must be
    the one `group_rows` computes from the view's codes."""
    n = len(batch)
    for start in range(0, n, chunk):
        view = batch.item_slice(start, min(start + chunk, n))
        grouping = view.grouping()
        assert (grouping.order == reservoir.group_rows(view.codes).order).all()


def test_the_cache_bound_holds_across_ten_chunk_grids(monkeypatch):
    batch = RecordBatch(make_events(5, 10_000, "mixed", seed=2))
    calls = counting_group_rows(monkeypatch)
    bound = GROUPING_BYTES_PER_ROW * len(batch)
    for chunk in (1, 2, 3, 5, 7, 64, 100, 999, 4096, L2_SLICE + 1):
        group_grid(batch, chunk)
        assert held_bytes(batch) == batch._groupings[2][0] <= bound
    # Past the bound a grouping is computed and not kept: a grid that no
    # longer fits is grouped again on every pass.
    before = len(calls)
    group_grid(batch, 7)
    assert len(calls) > before and held_bytes(batch) <= bound


def test_a_change_of_length_drops_the_groupings(monkeypatch):
    events = make_events(3, 5_000, "int", seed=4)
    batch = RecordBatch(events)
    calls = counting_group_rows(monkeypatch)
    view = batch.item_slice(100, 4_100)
    grouping = view.grouping()
    assert batch.item_slice(100, 4_100).grouping() is grouping and len(calls) == 1
    batch.append((events[-1][0] + 1.0, ("late", 1.0)))
    regrouped = batch.item_slice(100, 4_100).grouping()
    assert len(calls) == 2 and regrouped is not grouping
    assert len(batch._groupings[1]) == 1
    assert (regrouped.order == grouping.order).all()


def test_threads_sharing_a_batch_get_their_own_panes():
    events = make_events(30, 30_000, "mixed", seed=5)
    seeds = (1, 2, 3, 4)

    def panes(stream, seed):
        return execute_plan(plan_for(stream, 512, seed=seed))[0]

    alone = [panes(RecordBatch(list(events)), seed) for seed in seeds]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            shared = RecordBatch(events)  # cold: the threads fill its cache at once
            with ThreadPoolExecutor(max_workers=4) as pool:
                runs = [pool.submit(panes, shared, seed) for seed in seeds]
                together = [run.result(timeout=120) for run in runs]
            assert together == alone
            # A lost update of the charge would break this equality.
            assert held_bytes(shared) == shared._groupings[2][0]
            assert held_bytes(shared) <= GROUPING_BYTES_PER_ROW * len(shared)
    finally:
        sys.setswitchinterval(switch)


def test_cached_groupings_are_read_only():
    batch = RecordBatch(make_events(3, 1_000, "str", seed=6))
    grouping = batch.item_slice(0, 1_000).grouping()
    for array in grouping:
        with pytest.raises(ValueError):
            array[:1] = 0
