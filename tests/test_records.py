"""Columnar record format properties: the batch is an execution detail.

`repro.core.records.RecordBatch` is the pipeline's native record format;
these tests pin the contract that makes that safe:

* round-trip — a batch IS the event list it was built from (list subclass,
  `ColumnSlice` views materialize the identical ``(key, float)`` tuples,
  pickling ships plain events), checked with Hypothesis over arbitrary
  streams,
* bitwise equivalence — every engine × strategy combination produces
  bit-identical pane results with the columnar path on (default) and off
  (``REPRO_NO_COLUMNAR=1``, the per-item shim),
* checkpoint/resume over batched sources — resuming a chunked columnar run
  from any pane checkpoint reproduces the uninterrupted panes exactly,
* fallback surfacing — batches the columns cannot represent (non-float
  payloads, unhashable keys) and queries with custom projections report a
  ``columnar_fallback`` reason instead of silently degrading.
"""

import gc
import os
import pickle
import sys
from collections import Counter, namedtuple
from operator import itemgetter

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.records import (
    ColumnSlice,
    RecordBatch,
    _StratumMembers,
    concat_members,
    item_key,
    item_value,
)
from repro.aggregator.broker import Broker
from repro.aggregator.producer import Producer
from repro.runtime import (
    CheckpointPolicy,
    CheckpointStore,
    ListSource,
    StreamQuery,
    SystemConfig,
    TopicSource,
    WindowConfig,
    build_plan,
    execute_plan,
)
from repro.system import NativeStreamApproxSystem
from repro.system import WindowConfig as SysWindow
from repro.workloads.netflow import flow_bytes, flow_protocol, netflow_stream
from repro.workloads.synthetic import stream_by_rates

events_strategy = st.lists(
    st.tuples(
        st.floats(0, 100, allow_nan=False),
        st.tuples(
            st.sampled_from("abc"),
            st.floats(-1e6, 1e6, allow_nan=False),
        ),
    ),
    min_size=0,
    max_size=80,
).map(lambda evs: sorted(evs, key=lambda e: e[0]))


# ---------------------------------------------------------------------------
# Round trip: batch ⇄ events
# ---------------------------------------------------------------------------


class TestRoundTrip:
    @settings(max_examples=50, deadline=None)
    @given(events=events_strategy)
    def test_batch_is_its_event_list(self, events):
        batch = RecordBatch(events)
        assert list(batch) == events
        assert list(map(itemgetter(1), batch)) == [item for _ts, item in events]
        assert batch.columnar_reason is None
        assert batch.has_columns
        n = len(events)
        assert batch.ts.shape == (n,)
        view = batch.item_slice(0, n)
        assert view.materialize() == [item for _ts, item in events]

    @settings(max_examples=50, deadline=None)
    @given(events=events_strategy, data=st.data())
    def test_column_slice_views_match_list_slices(self, events, data):
        batch = RecordBatch(events)
        n = len(events)
        lo = data.draw(st.integers(0, n))
        hi = data.draw(st.integers(lo, n))
        step = data.draw(st.integers(1, 4))
        items = [item for _ts, item in events]
        view = batch.item_slice(lo, hi)
        assert list(view) == items[lo:hi]
        strided = view[::step]
        assert isinstance(strided, ColumnSlice)
        assert list(strided) == items[lo:hi][::step]
        for i in range(len(view)):
            materialized = view[i]
            assert materialized == items[lo + i]
            assert type(materialized[1]) is float

    @settings(max_examples=100, deadline=None)
    @given(
        events=events_strategy,
        cuts=st.lists(
            st.tuples(
                st.none() | st.integers(-90, 90),
                st.none() | st.integers(-90, 90),
                st.sampled_from([None, 1]),
            ),
            min_size=1,
            max_size=4,
        ),
        stride=st.sampled_from([2, 3, -1]),
    )
    def test_unit_step_views_know_their_rows(self, events, cuts, stride):
        """A view's origin names the very rows it holds, however it was cut:
        nested, empty, open-ended or negative-index unit-step slices all keep
        ``batch.item_slice(start, start + len)`` equal to the view."""
        batch = RecordBatch(events)
        view = batch.item_slice(0, len(events))
        for lo, hi, step in cuts:
            view = view[lo:hi:step]
            assert view.batch is batch
            again = batch.item_slice(view.start, view.start + len(view))
            assert again.start == view.start
            assert np.array_equal(again.codes, view.codes)
            assert np.array_equal(again.values, view.values)
            assert again.key_table is view.key_table
        # A strided view is no row range; a pickled one is a plain list.
        assert view[::stride].batch is None
        assert view[::stride][0:2].batch is None
        assert type(pickle.loads(pickle.dumps(view))) is list

    @settings(max_examples=25, deadline=None)
    @given(events=events_strategy)
    def test_pickle_round_trip(self, events):
        batch = RecordBatch(events)
        clone = pickle.loads(pickle.dumps(batch))
        assert isinstance(clone, RecordBatch)
        assert list(clone) == events
        if events:
            view = batch.item_slice(0, len(events))
            assert pickle.loads(pickle.dumps(view)) == view.materialize()

    def test_stratum_members_interop(self):
        values = np.asarray([1.0, 2.0, 3.0])
        members = _StratumMembers("k", values)
        assert list(members) == [("k", 1.0), ("k", 2.0), ("k", 3.0)]
        assert members.value_list() == [1.0, 2.0, 3.0]
        assert members == [("k", 1.0), ("k", 2.0), ("k", 3.0)]
        # Merge interop: value-mode runs concatenate into one float64 array,
        # a tuple-mode part turns the whole result into plain item tuples.
        both = concat_members([members, _StratumMembers("k", [9.0])])
        assert type(both) is _StratumMembers
        assert both.value_array().dtype == np.float64
        assert both == [("k", 1.0), ("k", 2.0), ("k", 3.0), ("k", 9.0)]
        assert concat_members([members, (("k", 9.0),)]) == (
            ("k", 1.0), ("k", 2.0), ("k", 3.0), ("k", 9.0),
        )
        # Serialization ships plain tuples.
        assert pickle.loads(pickle.dumps(members)) == tuple(members)


# ---------------------------------------------------------------------------
# Columnar ≡ per-item shim, bitwise, across engines × strategies
# ---------------------------------------------------------------------------


def _columnar_stream():
    return stream_by_rates({"A": 600, "B": 150, "C": 15}, duration=12, seed=9)


def _plan(stream, engine, strategy, **config_overrides):
    query = StreamQuery(
        key_fn=item_key, value_fn=item_value, kind="mean", name="records-ab"
    )
    config = SystemConfig(sampling_fraction=0.5, seed=31, **config_overrides)
    return build_plan(
        query, WindowConfig(6.0, 3.0), config,
        engine=engine, strategy=strategy,
        source=ListSource(stream), name="records-ab",
    )


def _fingerprint(results):
    return [
        (
            r.end,
            r.estimate,
            r.exact,
            r.sampled_items,
            r.total_items,
            r.error.margin if r.error else None,
            sorted(r.groups.items()),
        )
        for r in results
    ]


# Every engine × strategy combination the planner accepts.
_COMBOS = [
    ("batched", "none"),
    ("batched", "srs"),
    ("batched", "sts"),
    ("batched", "oasrs"),
    ("pipelined", "none"),
    ("pipelined", "oasrs"),
    ("direct", "oasrs"),
]


@pytest.mark.parametrize("engine,strategy", _COMBOS)
def test_columnar_matches_shim_bitwise(engine, strategy):
    stream = _columnar_stream()
    columnar, _ = execute_plan(_plan(stream, engine, strategy, chunk_size=256))
    os.environ["REPRO_NO_COLUMNAR"] = "1"
    try:
        shim, _ = execute_plan(_plan(stream, engine, strategy, chunk_size=256))
    finally:
        os.environ.pop("REPRO_NO_COLUMNAR", None)
    assert _fingerprint(columnar) == _fingerprint(shim)


def test_columnar_matches_shim_at_small_chunks():
    # One draw rule: the whole-interval feed (chunk 0 and 1), small chunks
    # and the per-item shim all keep the chunk-256 run's sample.
    stream = _columnar_stream()
    want = _fingerprint(execute_plan(_plan(stream, "direct", "oasrs", chunk_size=256))[0])
    for chunk in (0, 1, 64):
        columnar, _ = execute_plan(_plan(stream, "direct", "oasrs", chunk_size=chunk))
        os.environ["REPRO_NO_COLUMNAR"] = "1"
        try:
            shim, _ = execute_plan(_plan(stream, "direct", "oasrs", chunk_size=chunk))
        finally:
            os.environ.pop("REPRO_NO_COLUMNAR", None)
        assert _fingerprint(columnar) == _fingerprint(shim) == want, f"chunk={chunk}"


# ---------------------------------------------------------------------------
# Checkpoint / resume over batched sources
# ---------------------------------------------------------------------------


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**16), chunk=st.sampled_from([64, 256, 1024]))
def test_chunked_columnar_resume_matches_uninterrupted(seed, chunk):
    stream = stream_by_rates({"A": 400, "B": 100}, duration=12, seed=seed % 997)
    assert isinstance(stream, RecordBatch) and stream.has_columns

    def plan(**overrides):
        return _plan(stream, "direct", "oasrs", chunk_size=chunk, **overrides)

    base, _ = execute_plan(plan())
    store = CheckpointStore()
    observed, _ = execute_plan(
        plan(checkpoint=CheckpointPolicy(every=1)), checkpoint_store=store
    )
    assert _fingerprint(observed) == _fingerprint(base)
    for index in store.indices():
        resumed, _ = execute_plan(
            plan(checkpoint=CheckpointPolicy(every=1)),
            resume_from=store.get(index),
        )
        assert _fingerprint(resumed) == _fingerprint(base)


@pytest.mark.parametrize("shim", [False, True], ids=["columnar", "shim"])
def test_chunked_pipelined_resume_keeps_the_chunk_grid(shim, monkeypatch):
    """Resume from every checkpoint of a run whose fire boundaries leave
    one-row chunk segments: every resumed run returns the uninterrupted
    run's panes (the resumed loop charges on the stream-global chunk grid,
    not on one shifted to the checkpointed position)."""
    if shim:
        monkeypatch.setenv("REPRO_NO_COLUMNAR", "1")
    stream = stream_by_rates({"A": 640, "B": 160, "C": 8}, duration=30, seed=7)
    query = StreamQuery(kind="mean", name="grid")

    def plan(**overrides):
        config = SystemConfig(sampling_fraction=0.4, seed=3, chunk_size=256, **overrides)
        return build_plan(
            query, WindowConfig(0.6, 0.3), config, engine="pipelined",
            strategy="oasrs", source=ListSource(stream), name="grid",
        )

    base, _ = execute_plan(plan())
    store = CheckpointStore()
    execute_plan(plan(checkpoint=CheckpointPolicy(every=1)), checkpoint_store=store)
    assert len(store) >= 90
    diverged = [
        index
        for index in store.indices()
        if _fingerprint(
            execute_plan(
                plan(checkpoint=CheckpointPolicy(every=1)), resume_from=store.get(index)
            )[0]
        )
        != _fingerprint(base)
    ]
    assert not diverged, f"resume diverged from checkpoints {diverged}"


# ---------------------------------------------------------------------------
# Fallback surfacing
# ---------------------------------------------------------------------------


class TestFallbackSurfacing:
    def test_non_tuple_items_record_reason(self):
        batch = RecordBatch([(0.0, "not-a-tuple"), (1.0, "still-not")])
        assert batch.ts is not None
        assert not batch.has_columns
        assert "not plain (key, value) tuples" in batch.columnar_reason

    def test_non_float_payloads_record_reason(self):
        batch = RecordBatch([(0.0, ("a", 1)), (1.0, ("b", 2))])
        assert not batch.has_columns
        assert "value is not a plain float" in batch.columnar_reason
        with pytest.raises(ValueError):
            batch.item_slice(0, 2)

    def test_unhashable_keys_record_reason(self):
        batch = RecordBatch([(0.0, (["un", "hashable"], 1.0))])
        assert not batch.has_columns
        assert "unhashable keys" in batch.columnar_reason

    def test_netflow_projections_intern_onto_columnar_path(self):
        # FlowRecord payloads are not (key, float) tuples, but the query's
        # flow_protocol/flow_bytes projections ARE columnar-representable:
        # the driver interns them once at run start and the whole run takes
        # the columnar path — bitwise identical to the per-item shim.
        stream = netflow_stream(total_rate=400, duration=6, seed=5)
        query = StreamQuery(
            key_fn=flow_protocol, value_fn=flow_bytes, kind="sum", name="nf"
        )
        config = SystemConfig(sampling_fraction=0.6, seed=3, chunk_size=256)
        system = NativeStreamApproxSystem(query, SysWindow(3.0, 3.0), config)
        report = system.run(stream)
        assert report.columnar_fallback is None
        assert report.results, "interned run still produces panes"
        os.environ["REPRO_NO_COLUMNAR"] = "1"
        try:
            shim = NativeStreamApproxSystem(query, SysWindow(3.0, 3.0), config).run(
                stream
            )
        finally:
            os.environ.pop("REPRO_NO_COLUMNAR", None)
        assert shim.columnar_fallback is not None
        assert _fingerprint(report.results) == _fingerprint(shim.results)

    def test_custom_projections_intern_onto_columnar_path(self):
        # Even ad-hoc lambdas intern when they extract (hashable, float).
        stream = _columnar_stream()
        query = StreamQuery(
            key_fn=lambda it: it[0], value_fn=lambda it: it[1],
            kind="mean", name="custom",
        )
        config = SystemConfig(sampling_fraction=0.5, seed=31, chunk_size=256)
        report = NativeStreamApproxSystem(query, SysWindow(6.0, 3.0), config).run(
            stream
        )
        assert report.columnar_fallback is None
        canonical = NativeStreamApproxSystem(
            StreamQuery(key_fn=item_key, value_fn=item_value, kind="mean",
                        name="custom"),
            SysWindow(6.0, 3.0), config,
        ).run(stream)
        # Interning rewrote the run to the canonical plan over the same
        # (key, value) events, so the answers match it bitwise.
        assert _fingerprint(report.results) == _fingerprint(canonical.results)

    def test_non_columnar_projections_still_surface_fallback(self):
        # A value projection yielding non-floats cannot intern: the run
        # stays on the per-item shim and the report says why.
        stream = _columnar_stream()
        query = StreamQuery(
            key_fn=lambda it: it[0], value_fn=lambda it: int(it[1]),
            kind="mean", name="intvals",
        )
        config = SystemConfig(sampling_fraction=0.5, seed=31, chunk_size=256)
        report = NativeStreamApproxSystem(query, SysWindow(6.0, 3.0), config).run(
            stream
        )
        assert "custom key/value projections" in report.columnar_fallback

    def test_group_fn_distinct_from_key_fn_blocks_interning(self):
        # A third independent projection has no column to intern into.
        stream = _columnar_stream()
        query = StreamQuery(
            key_fn=lambda it: it[0], value_fn=lambda it: it[1],
            group_fn=lambda it: it[0], kind="mean", name="grouped",
        )
        config = SystemConfig(sampling_fraction=0.5, seed=31, chunk_size=256)
        report = NativeStreamApproxSystem(query, SysWindow(6.0, 3.0), config).run(
            stream
        )
        assert "custom key/value projections" in report.columnar_fallback

    def test_canonical_projections_take_columnar_path(self):
        stream = _columnar_stream()
        query = StreamQuery(
            key_fn=item_key, value_fn=item_value, kind="mean", name="canon"
        )
        config = SystemConfig(sampling_fraction=0.5, seed=31, chunk_size=256)
        report = NativeStreamApproxSystem(query, SysWindow(6.0, 3.0), config).run(
            stream
        )
        assert report.columnar_fallback is None


# ---------------------------------------------------------------------------
# The column build and the projection against per-item oracles
# ---------------------------------------------------------------------------

_FAILED = (None, None, None)


def reference_columns(events):
    """`RecordBatch._build_columns`, one Python step per item.

    The contract the C-level passes must reproduce: the validation order
    (event arity → timestamps → item type → item arity → payload type →
    hashability, each over the whole batch before the next), the six
    reasons, first-appearance codes, and NumPy's timestamp coercion.
    """
    n = len(events)
    ts_vals, items = [], []
    for event in events:
        try:
            if len(event) != 2:
                raise TypeError
            ts_vals.append(event[0])
            items.append(event[1])
        except (TypeError, LookupError):
            return (None, *_FAILED, n, "events are not (ts, item) pairs")
    try:
        # None → NaN is NumPy's float conversion; everything else is float().
        ts = [float("nan") if t is None else float(t) for t in ts_vals]
    except (TypeError, ValueError):
        return (None, *_FAILED, n, "non-numeric timestamps")
    ts = np.asarray(ts, dtype=np.float64)
    for item in items:
        if type(item) is not tuple:
            return (ts, *_FAILED, n, "items are not plain (key, value) tuples")
    for item in items:
        if len(item) != 2:
            return (ts, *_FAILED, n, "items are not 2-tuples")
    for _key, value in items:
        if type(value) is not float:
            return (ts, *_FAILED, n, "non-float payloads (value is not a plain float)")
    code_of, codes = {}, []
    for key, _value in items:
        try:
            if key not in code_of:
                code_of[key] = len(code_of)
        except TypeError:
            return (ts, *_FAILED, n, "unhashable keys")
        codes.append(code_of[key])
    return (
        ts,
        np.asarray(codes, dtype=np.int32),
        np.asarray([value for _key, value in items], dtype=np.float64),
        list(code_of),
        n,
        None,
    )


def reference_project(batch, key_fn, value_fn):
    """`RecordBatch.project` as the per-item loop it used to be."""
    events = []
    try:
        for ts, item in batch:
            value = value_fn(item)
            if type(value) is not float:
                return None
            events.append((ts, (key_fn(item), value)))
    except Exception:
        return None
    return events if reference_columns(events)[5] is None else None


def _same_columns(got, want):
    """Six-tuples equal: dtypes, bits (NaN payloads too), key *objects*."""
    assert got[4:] == want[4:]
    for g, w, dtype in zip(got[:3], want[:3], (np.float64, np.int32, np.float64)):
        assert (g is None) == (w is None)
        if g is not None:
            assert g.dtype == w.dtype == dtype
            assert g.tobytes() == w.tobytes()
    assert (got[3] is None) == (want[3] is None)
    if got[3] is not None:
        assert len(got[3]) == len(want[3])
        assert all(g is w for g, w in zip(got[3], want[3]))


def _same_events(got, want):
    """Equal events, and the very same element types slot for slot."""

    def shape(x):
        return (type(x), [shape(y) for y in x]) if isinstance(x, (tuple, list)) else type(x)

    assert list(got) == want
    assert shape(list(got)) == shape(want)


Point = namedtuple("Point", "key value")
_NAN = float("nan")

_clean_keys = st.sampled_from(["a", "b", "c", 1, 1.0, True, None, ("t", 1), _NAN])
_any_keys = _clean_keys | st.builds(float, st.just("nan")) | st.just(["un", "hashable"])
_clean_payloads = st.floats(allow_nan=True, allow_infinity=True)
_any_payloads = _clean_payloads | st.sampled_from([1, True, np.float64(2.5)])
_clean_ts = st.floats(0, 100) | st.sampled_from([True, 2, "3", None, np.float64(4.5)])
_any_ts = _clean_ts | st.sampled_from(["x", (0.0, 1.0)])


def _events(ts, keys, payloads, items=None):
    """Tuple- and list-shaped ``(ts, item)`` events."""
    items = st.tuples(keys, payloads) if items is None else items
    return st.builds(
        lambda shape, t, item: shape((t, item)), st.sampled_from([tuple, list]), ts, items
    )


_clean_events = _events(_clean_ts, _clean_keys, _clean_payloads)
_odd_events = st.one_of(
    _events(_any_ts, _any_keys, _any_payloads),
    _events(
        _clean_ts, _clean_keys, _clean_payloads,
        items=st.one_of(
            st.builds(Point, _clean_keys, _clean_payloads),
            st.builds(list, st.tuples(_clean_keys, _clean_payloads)),
            st.tuples(_clean_keys, _clean_payloads, st.just("extra")),
            st.just("ab"),
        ),
    ),
    st.tuples(_clean_ts),
    st.tuples(_clean_ts, st.tuples(_clean_keys, _clean_payloads), st.just("extra")),
    st.just(7.0),
)


@st.composite
def event_lists(draw):
    """Mostly well-formed batches with up to two odd events spliced in."""
    events = draw(st.lists(_clean_events, max_size=30))
    for odd in draw(st.lists(_odd_events, max_size=2)):
        events.insert(draw(st.integers(0, len(events))), odd)
    return events


class TestBuildOracle:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(events=event_lists())
    def test_build_matches_the_per_item_reference(self, events):
        _same_columns(RecordBatch(events)._build_columns(), reference_columns(events))

    def test_timestamp_coercion_is_numpys(self):
        # fromiter (the build) and asarray (the parent's build) agree.
        ts_vals = [True, 2, "3", None, np.float64(4.5)]
        batch = RecordBatch([(t, ("a", 1.0)) for t in ts_vals])
        assert batch.columnar_reason is None
        want = np.asarray(ts_vals, dtype=np.float64)
        assert batch.ts.tobytes() == want.tobytes()
        assert want.tolist()[:3] == [1.0, 2.0, 3.0] and np.isnan(want[3])

    def test_time_order_verdict_is_cached_with_the_columns(self):
        batch = RecordBatch([(0.0, ("a", 1.0)), (1.0, ("b", 2.0)), (1.0, ("a", 3.0))])
        assert batch.time_ordered is True
        assert batch._ordered[0] is batch._cols  # read once per column build
        batch.append((0.5, ("b", 4.0)))  # a new length rebuilds both
        assert batch.time_ordered is False
        assert RecordBatch([("t", ("a", 1.0))]).time_ordered is None

    def test_wrong_arity_events_are_refused_not_truncated(self):
        """``zip(*events)`` used to stop at the shortest event and drop the
        rest of a longer one; the per-item path raises on the same stream."""
        events = [(0.0, ("a", 1.0)), (1.0, ("b", 2.0), "extra")]
        batch = RecordBatch(events)
        assert batch.columnar_reason == "events are not (ts, item) pairs"
        assert batch.ts is None and not batch.has_columns
        assert batch.project(item_key, item_value) is None
        info = {}
        with pytest.raises(ValueError):  # the shim unpacks ``ts, item``
            execute_plan(_plan(events, "direct", "oasrs"), run_info=info)
        assert info["columnar_fallback"] == "events are not (ts, item) pairs"
        # List-shaped events stay accepted.
        assert RecordBatch([[0.0, ("a", 1.0)], [1.0, ("b", 2.0)]]).has_columns

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        events=event_lists(),
        key_fn=st.sampled_from([item_key, lambda it: it[0], lambda it: [it[0]]]),
        value_fn=st.sampled_from([item_value, lambda it: it[1], lambda it: it[1] * 2]),
    )
    def test_project_matches_the_per_item_loop(self, events, key_fn, value_fn):
        calls = Counter()

        def counted(name, fn):
            def call(item):
                calls[name] += 1
                return fn(item)
            return call

        batch = RecordBatch(events)
        key, value = counted("key", key_fn), counted("value", value_fn)
        want = reference_project(list(events), key_fn, value_fn)
        got = batch.project(key, value)
        assert batch.project(key, value) is got  # cached, None included
        assert max(calls.values(), default=0) <= len(events)
        if want is None:
            assert got is None
            return
        assert calls == ({"key": len(events), "value": len(events)} if events else {})
        _same_events(got, want)
        assert isinstance(got, RecordBatch)
        _same_columns(got._columns(), reference_columns(want))


def _python_calls(fn):
    """How many Python-level frames ``fn()`` enters (C calls not counted)."""
    count = 0

    def profiler(_frame, event, _arg):
        nonlocal count
        count += event == "call"

    gc.disable()  # a collection would run Hypothesis's Python gc callback
    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(None)
        gc.enable()
    return count


def test_the_build_runs_no_python_frame_per_event():
    """The regression guard for "someone reintroduces a per-item loop":
    counts frames, reads no clock."""

    def canonical(n):
        return [(i / 10.0, ("abc"[i % 3], float(i))) for i in range(n)]

    small = _python_calls(RecordBatch(canonical(200))._build_columns)
    large = _python_calls(RecordBatch(canonical(20_000))._build_columns)
    assert small == large

    # project: its own fixed frames, one per distinct key, two per event.
    def projected(n):
        batch = RecordBatch(canonical(n))
        return _python_calls(lambda: batch.project(lambda it: it[0], lambda it: it[1]))

    fixed = projected(0)
    assert projected(200) - fixed == 2 * 200 + 3
    assert projected(20_000) - fixed == 2 * 20_000 + 3


# ---------------------------------------------------------------------------
# Every way a stream enters a run: broker drain, fresh list, cached batch
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("partitions", [1, 4])
@pytest.mark.parametrize("members", [0, 3], ids=["consumer", "group3"])
def test_topic_source_batch_equals_the_per_record_build(partitions, members):
    stream = stream_by_rates({"A": 300, "B": 80, "C": 9}, duration=6, seed=4)
    broker = Broker()
    broker.create_topic("events", num_partitions=partitions)
    producer = Producer(broker, "events")
    for timestamp, item in stream:
        producer.send(timestamp, item, key=item[0])
    group = {"group_id": "g", "members": members} if members else {}
    (batch,) = TopicSource(broker, "events", **group).batches()
    # The reference: one generator step per record, as the drain used to be.
    records = sorted(
        (r for p in broker.topic("events").partitions for r in p.fetch(0)),
        key=lambda r: (r.timestamp, r.seq),
    )
    _same_events(batch, [(r.timestamp, r.value) for r in records])
    assert list(batch) == list(stream)
    assert batch.seq.dtype == np.int64
    assert batch.seq.tolist() == [r.seq for r in records]
    _same_columns(batch._columns(), stream._columns())


@pytest.mark.parametrize("chunk", [0, 256])
@pytest.mark.parametrize("engine", ["direct", "pipelined", "batched"])
def test_fresh_batch_matches_cached_batch(engine, chunk):
    """Cold path ≡ hot path: a just-wrapped list (columns built inside the
    run) gives the panes of the batch whose columns were built before it."""
    stream = _columnar_stream()
    assert stream.has_columns
    info = {}
    cached, _ = execute_plan(_plan(stream, engine, "oasrs", chunk_size=chunk), run_info=info)
    fresh, _ = execute_plan(
        _plan(RecordBatch(list(stream)), engine, "oasrs", chunk_size=chunk), run_info=info
    )
    assert "columnar_fallback" not in info
    assert fresh == cached
