"""Persistent worker pool: lifecycle, transports, and degraded paths.

`repro.core.distributed.ShardedExecutor` keeps one process per shard
alive for the whole run; an interval goes in as an index span of the
run's stream (or pickled items) and comes back as value columns.
These tests pin the contracts the rest of the runtime builds on:

* **Bitwise determinism across execution modes** — a pooled run, the
  ``REPRO_NO_MP`` in-process fallback, and both message kinds (pickled
  items, index span — recognised from located column chunks) produce
  the exact same merged samples, because shard samplers
  are rebuilt from coordinator-drawn seeds every interval.
* **The reply format** — a stratum sampled from column views returns as
  its value array, never as per-item tuples; tuple strata round-trip.
* **Pool lifecycle** — workers spawn once (lazily, on the first parallel
  interval), survive across intervals without respawning, die on
  ``close``, and a permanent `ShardKill` terminates the real process
  while the pool re-widens over the survivors.
* **Degraded paths** — fallbacks are never silent: the first cause is
  recorded on the executor and surfaced as ``SystemReport.parallel_fallback``.
* **Checkpoint/resume** — `restore` tears the pool down and a resumed
  ``execute_plan`` matches the uninterrupted run bitwise.
"""

import pickle
import random

import numpy as np
import pytest

from repro.core.distributed import ShardedExecutor, ShardedIntervalSampler, _run_shard
from repro.core.oasrs import FixedPerStratum, WaterFillingAllocation
from repro.core.records import RecordBatch, _StratumMembers, item_key
from repro.core.recovery import FaultSchedule, ShardKill
from repro.core.strata import WeightedSample
from repro.obs import MetricsRegistry
from repro.runtime import (
    CheckpointPolicy,
    CheckpointStore,
    ListSource,
    StreamQuery,
    SystemConfig,
    WindowConfig,
    build_plan,
    execute_plan,
)
from repro.system.native import NativeStreamApproxSystem
from repro.workloads.synthetic import stream_by_rates

KEY = lambda item: item[0]  # noqa: E731


def fingerprint(sample):
    """Exact identity of a merged WeightedSample, order-independent."""
    return tuple(sorted((s.key, s.items, s.count, s.weight) for s in sample))


def make_intervals(n_intervals=5, n_items=3000, seed=7):
    rng = random.Random(seed)
    return [
        [(rng.choice("abcd"), float(rng.randrange(100))) for _ in range(n_items)]
        for _ in range(n_intervals)
    ]


def make_executor(**kwargs):
    kwargs.setdefault("workers", 4)
    kwargs.setdefault("policy", WaterFillingAllocation(total=200))
    kwargs.setdefault("key_fn", KEY)
    kwargs.setdefault("seed", 42)
    kwargs.setdefault("chunk_size", 256)
    return ShardedExecutor(**kwargs)


@pytest.fixture
def intervals():
    return make_intervals()


#: Tests that assert on live worker processes; `make shard-modes` runs this
#: file under ``REPRO_NO_MP=1`` too, where every run is in-process.
needs_pool = pytest.mark.skipif(
    ShardedExecutor._parallel_blocker() is not None,
    reason="no worker pool on this host/run: in-process execution only",
)


def as_events(intervals):
    """The intervals laid end to end as one stream, plus each one's row span."""
    events, spans = [], []
    for items in intervals:
        lo = len(events)
        events.extend((float(len(events) + i), item) for i, item in enumerate(items))
        spans.append((lo, len(events)))
    return events, spans


class TestBitwiseAcrossModes:
    """Pooled, fallback, and both message kinds: one identical answer."""

    def reference_fingerprints(self, monkeypatch, intervals, **kwargs):
        monkeypatch.setenv("REPRO_NO_MP", "1")
        ex = make_executor(**kwargs)
        fps = [fingerprint(ex.run(items)) for items in intervals]
        assert not ex.last_run_parallel
        ex.close()
        monkeypatch.delenv("REPRO_NO_MP")
        return fps

    def test_pooled_flat_matches_in_process(self, monkeypatch, intervals):
        expected = self.reference_fingerprints(monkeypatch, intervals)
        ex = make_executor()
        try:
            got = [fingerprint(ex.run(items)) for items in intervals]
            assert ex.last_run_parallel
            assert ex.fallback_reason is None
        finally:
            ex.close()
        assert got == expected

    def test_located_chunks_cross_as_spans(self, monkeypatch, intervals):
        """Column chunks tiling a row range of the source ship as its span —
        and sample exactly as the same items pickled, or in-process."""
        expected = self.reference_fingerprints(monkeypatch, intervals, key_fn=item_key)
        events, spans = as_events(intervals)
        batch = RecordBatch(events)
        metrics = MetricsRegistry()
        ex = make_executor(key_fn=item_key, source=batch, metrics=metrics)
        try:
            got = []
            for lo, hi in spans:
                view = batch.item_slice(lo, hi)
                chunks = [view[i : i + 512] for i in range(0, hi - lo, 512)]
                got.append(fingerprint(ex.run_chunks(chunks)))
            assert ex.last_run_parallel
            counters = metrics.snapshot()["counters"]
            assert counters["transport.span_intervals"] == len(spans)
            assert counters["transport.pickle_intervals"] == 0
            # A gap between the chunks is not a row range: the items travel.
            lo, hi = spans[0]
            ex.run_chunks([batch.item_slice(lo, lo + 10), batch.item_slice(lo + 20, hi)])
            assert metrics.snapshot()["counters"]["transport.pickle_intervals"] == 1
        finally:
            ex.close()
        assert got == expected


class TestReplyFormat:
    """What `_run_shard` hands back across the process boundary."""

    def test_column_shard_replies_with_value_arrays(self):
        events, _spans = as_events(make_intervals(1))
        shard = RecordBatch(events).item_slice(0, len(events))[1::2]
        payload = _run_shard(shard, WaterFillingAllocation(200), item_key, 2, 5, 256)
        keys, counts, sizes, packed, members = payload
        assert keys, "empty payload"
        assert isinstance(packed, np.ndarray) and packed.dtype == np.float64
        assert members is None and len(packed) == sum(sizes)
        assert all(0 < size <= count for size, count in zip(sizes, counts))
        # The bytes on the pipe hold arrays only: unpickling builds no tuple
        # per kept item.
        revived = pickle.loads(pickle.dumps(payload))
        assert isinstance(revived[3], np.ndarray) and revived[4] is None
        sample = WeightedSample.of_columns(*revived)
        start = 0
        for key, count, size in zip(keys, counts, sizes):
            kept = packed[start : start + size].tolist()
            assert type(sample[key].items) is _StratumMembers
            assert sample[key].items == [(key, v) for v in kept]
            assert sample[key].count == count
            start += size

    def test_tuple_strata_round_trip(self):
        """A custom ``key_fn`` sees item tuples; they come back as they went."""
        items = make_intervals(1)[0]
        payload = _run_shard(items, WaterFillingAllocation(200), KEY, 2, 5, 256)
        keys, counts, _sizes, packed, members = payload
        assert packed is None
        sample = WeightedSample.of_columns(*pickle.loads(pickle.dumps(payload)))
        for key, count, kept in zip(keys, counts, members):
            assert type(kept) is tuple and set(kept) <= set(items)
            assert sample[key].items == kept
            assert sample[key].count == count


class TestPoolLifecycle:
    @needs_pool
    def test_pool_spawns_lazily_and_once(self, intervals):
        ex = make_executor()
        try:
            assert not ex.pooled  # construction spawns nothing
            pids = []
            for items in intervals:
                ex.run(items)
                assert ex.pooled
                pids.append(tuple(sorted(w.process.pid for w in ex._pool.values())))
            assert len(set(pids)) == 1, f"pool respawned mid-run: {set(pids)}"
            assert len(pids[0]) == 4
        finally:
            ex.close()

    @needs_pool
    def test_close_terminates_workers(self, intervals):
        ex = make_executor()
        ex.run(intervals[0])
        processes = [w.process for w in ex._pool.values()]
        ex.close()
        assert not ex.pooled
        for process in processes:
            assert not process.is_alive()
        ex.close()  # idempotent

    def test_close_without_spawn_is_noop(self):
        ex = make_executor()
        ex.close()
        assert not ex.pooled

    @needs_pool
    def test_permanent_kill_terminates_live_worker(self, intervals):
        faults = FaultSchedule(
            kills=(ShardKill(interval=1, worker=2, permanent=True),)
        )
        ex = make_executor(faults=faults)
        try:
            ex.run(intervals[0])
            before = {w: worker.process.pid for w, worker in ex._pool.items()}
            assert sorted(before) == [0, 1, 2, 3]
            doomed = ex._pool[2].process
            ex.run(intervals[1])  # the kill interval
            assert ex.live_workers == [0, 1, 3]
            assert sorted(ex._pool) == [0, 1, 3]
            doomed.join(timeout=5.0)
            assert not doomed.is_alive()
            # Survivors keep their processes — the pool re-widens, it does
            # not respawn.
            after = {w: worker.process.pid for w, worker in ex._pool.items()}
            assert after == {w: before[w] for w in (0, 1, 3)}
            ex.run(intervals[2])
            assert ex.last_run_parallel
        finally:
            ex.close()

    @needs_pool
    def test_restore_tears_pool_down(self, intervals):
        ex = make_executor()
        ex.run(intervals[0])
        snapshot = ex.state()
        assert ex.pooled
        ex.restore(snapshot)
        assert not ex.pooled
        try:
            assert fingerprint(ex.run(intervals[1])) == fingerprint(
                make_and_run(snapshot, intervals[1])
            )
        finally:
            ex.close()


def make_and_run(snapshot, items):
    """Fresh executor restored from `snapshot`, run over one interval."""
    ex = make_executor()
    ex.restore(snapshot)
    try:
        return ex.run(items)
    finally:
        ex.close()


class TestFallbackSurfacing:
    def test_no_mp_records_reason(self, monkeypatch, intervals):
        monkeypatch.setenv("REPRO_NO_MP", "1")
        ex = make_executor()
        ex.run(intervals[0])
        assert not ex.last_run_parallel
        assert "REPRO_NO_MP" in ex.fallback_reason
        ex.close()

    def test_first_reason_wins(self, monkeypatch, intervals):
        ex = make_executor()
        ex._note_fallback("first cause")
        ex._note_fallback("second cause")
        assert ex.fallback_reason == "first cause"
        ex.close()

    def test_single_worker_never_pools(self, intervals):
        ex = make_executor(workers=1)
        ex.run(intervals[0])
        assert not ex.last_run_parallel
        assert not ex.pooled
        ex.close()

    def test_report_surfaces_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_MP", "1")
        report = run_parallel_system()
        assert report.parallel_fallback is not None
        assert "REPRO_NO_MP" in report.parallel_fallback

    @needs_pool
    def test_report_silent_when_pool_healthy(self):
        report = run_parallel_system()
        assert report.parallel_fallback is None

    def test_report_none_without_parallelism(self):
        report = run_parallel_system(parallelism=1)
        assert report.parallel_fallback is None


def run_parallel_system(parallelism=4):
    query = StreamQuery(key_fn=KEY, value_fn=lambda it: it[1], kind="mean")
    config = SystemConfig(sampling_fraction=0.5, seed=17, parallelism=parallelism)
    stream = stream_by_rates({"A": 300, "B": 60}, duration=10, seed=5)
    return NativeStreamApproxSystem(query, WindowConfig(5, 2.5), config).run(stream)


class TestResumeAcrossPool:
    """`execute_plan(resume_from=...)` re-spawns the pool and matches bitwise."""

    def plan(self, stream, **overrides):
        config = SystemConfig(
            sampling_fraction=0.5, seed=17, parallelism=4, **overrides
        )
        return build_plan(
            StreamQuery(key_fn=KEY, value_fn=lambda it: it[1], kind="mean"),
            WindowConfig(length=5.0, slide=2.5),
            config,
            engine="direct",
            strategy="oasrs",
            source=ListSource(stream),
            name="pool-resume",
        )

    @staticmethod
    def pane_fingerprint(results):
        return [
            (r.end, r.estimate, r.sampled_items,
             r.error.margin if r.error is not None else None)
            for r in results
        ]

    def test_resume_matches_uninterrupted_pooled_run(self):
        stream = stream_by_rates({"A": 300, "B": 60, "C": 10}, duration=15, seed=11)
        base, _ = execute_plan(self.plan(stream))
        store = CheckpointStore()
        execute_plan(
            self.plan(stream, checkpoint=CheckpointPolicy(every=1)),
            checkpoint_store=store,
        )
        assert len(store) >= 2, "workload too short to exercise resume"
        for index in store.indices():
            resumed, _ = execute_plan(
                self.plan(stream, checkpoint=CheckpointPolicy(every=1)),
                resume_from=store.get(index),
            )
            assert self.pane_fingerprint(resumed) == self.pane_fingerprint(base), (
                f"resume from checkpoint {index} diverged"
            )


    @needs_pool
    @pytest.mark.parametrize("chunk_size", [0, 256])
    def test_resumed_batched_run_stays_on_the_span_transport(self, chunk_size):
        """A restart used to drop a columnar batched run onto tuple
        micro-batches, so a sharded one pickled every remaining interval."""
        from repro.core.records import item_value
        from repro.obs import TelemetryConfig

        stream = stream_by_rates({"A": 300, "B": 60, "C": 10}, duration=15, seed=11)

        def plan():
            return build_plan(
                StreamQuery(key_fn=item_key, value_fn=item_value, kind="mean"),
                WindowConfig(length=5.0, slide=2.5),
                SystemConfig(
                    sampling_fraction=0.5, seed=17, parallelism=2, batch_interval=0.5,
                    chunk_size=chunk_size, checkpoint=CheckpointPolicy(every=1),
                    telemetry=TelemetryConfig(),
                ),
                engine="batched", strategy="oasrs", source=ListSource(stream),
            )

        store = CheckpointStore()
        base, _ = execute_plan(plan(), checkpoint_store=store)
        checkpoint = store.get(2)
        info = {}
        resumed, _ = execute_plan(plan(), resume_from=checkpoint, run_info=info)
        assert resumed == base
        remaining = {int(ts // 0.5) for ts, _item in stream if ts >= checkpoint.pane_end}
        counters = info["telemetry"].metrics.snapshot()["counters"]
        assert "columnar_fallback" not in info
        assert counters["transport.span_intervals"] == len(remaining) > 0
        assert counters["transport.pickle_intervals"] == 0


class TestIntervalSamplerBuffering:
    def test_offer_many_buffers_a_whole_interval_by_reference(self):
        """``chunk_size <= 1`` hands the sampler the interval in one piece; a
        located view kept intact still leaves as its index span."""
        events, spans = as_events(make_intervals(1))
        batch = RecordBatch(events)
        metrics = MetricsRegistry()
        ex = make_executor(workers=2, key_fn=item_key, source=batch, metrics=metrics)
        sampler = ShardedIntervalSampler(ex)
        try:
            view = batch.item_slice(*spans[0])
            sampler.offer_many(view)
            assert sampler._chunks[-1] is view
            assert sampler.close_interval().total_count == len(view)
            counters = metrics.snapshot()["counters"]
            pooled = ShardedExecutor._parallel_blocker() is None
            assert counters["transport.span_intervals"] == (1 if pooled else 0)
            assert counters["transport.pickle_intervals"] == 0
        finally:
            sampler.close()

    def test_process_chunk_keeps_chunk_intact(self):
        ex = make_executor(workers=2, policy=FixedPerStratum(4))
        sampler = ShardedIntervalSampler(ex)
        chunk = [("a", float(i)) for i in range(64)]
        sampler.process_chunk(chunk)
        assert sampler._chunks[-1] is chunk  # stored by reference, not re-buffered
        sampler.close()

    def test_mixed_offer_and_chunks_cover_all_items(self):
        ex = make_executor(workers=2, policy=FixedPerStratum(4), seed=1)
        sampler = ShardedIntervalSampler(ex)
        sampler.offer(("a", 1.0))
        sampler.process_chunk([("a", float(i)) for i in range(50)])
        sampler.offer_many([("b", float(i)) for i in range(10)])
        merged = sampler.close_interval()
        assert merged["a"].count == 51
        assert merged["b"].count == 10
        # The buffer drains: a second close sees an empty interval.
        assert len(sampler.close_interval()) == 0
        sampler.close()

    def test_state_flattens_buffer_and_restores(self):
        ex = make_executor(workers=2, policy=FixedPerStratum(4), seed=1)
        sampler = ShardedIntervalSampler(ex)
        sampler.process_chunk([("a", float(i)) for i in range(20)])
        sampler.process_chunk([("b", float(i)) for i in range(5)])
        snapshot = sampler.state()
        assert snapshot["buffer"] == (
            [("a", float(i)) for i in range(20)] + [("b", float(i)) for i in range(5)]
        )
        ex2 = make_executor(workers=2, policy=FixedPerStratum(4), seed=99)
        restored = ShardedIntervalSampler(ex2)
        restored.restore(snapshot)
        a = sampler.close_interval()
        b = restored.close_interval()
        assert fingerprint(a) == fingerprint(b)
        sampler.close()
        restored.close()
