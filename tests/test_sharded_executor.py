"""Tests for `ShardedExecutor`, the §3.2 distributed OASRS scheme.

Covers the merge-weight semantics (counters sum, reservoirs concatenate,
Equation-1 weights re-derive), what one shard keeps (column members for
a column view, the given tuples otherwise), determinism (same seed, same
samples; a restored executor and a resumed plan match the uninterrupted
ones), the interval-sampler
adapter's buffering, worker loss at the executor boundary
(discard-and-rewiden; the plan-level view is
``tests/chaos/test_shard_kill.py``), and the accuracy acceptance bar: 4
sharded workers estimate within the same error bounds as single-process
OASRS on the synthetic workload.
"""

import random
import statistics
from collections import Counter

import pytest

from repro.core.distributed import ShardedExecutor, ShardedIntervalSampler, _run_shard
from repro.core.oasrs import (
    FixedPerStratum,
    OASRSSampler,
    WaterFillingAllocation,
    oasrs_sample,
)
from repro.core.query import approximate_mean
from repro.core.error import estimate_error
from repro.core.records import RecordBatch, _StratumMembers, item_key, item_value
from repro.core.recovery import FaultSchedule, ShardKill
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
from repro.workloads.synthetic import stream_by_rates

KEY = lambda item: item[0]  # noqa: E731
VAL = lambda item: item[1]  # noqa: E731


def make_stream(spec, seed=0):
    rng = random.Random(seed)
    items = []
    for key, n in spec.items():
        items.extend((key, rng.gauss(100, 10)) for _ in range(n))
    rng.shuffle(items)
    return items


class TestConstruction:
    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            ShardedExecutor(0, FixedPerStratum(5), key_fn=KEY)


class TestMergeWeights:
    """The Equation-1 merge: counts add, samples concatenate, W re-derives."""

    def test_counters_sum_across_shards(self):
        ex = ShardedExecutor(4, FixedPerStratum(10), key_fn=KEY, seed=1)
        merged = ex.run(make_stream({"a": 100, "b": 7}))
        assert merged["a"].count == 100
        assert merged["b"].count == 7

    def test_weight_is_count_over_sample_size(self):
        ex = ShardedExecutor(4, FixedPerStratum(20), key_fn=KEY, seed=2)
        merged = ex.run(make_stream({"a": 10_000}))
        stratum = merged["a"]
        # ⌈20/4⌉ = 5 per worker ⇒ 20 kept in the merge.
        assert stratum.sample_size == 20
        assert stratum.weight == pytest.approx(stratum.count / stratum.sample_size)

    def test_underfull_stratum_weight_one(self):
        ex = ShardedExecutor(4, FixedPerStratum(100), key_fn=KEY, seed=3)
        merged = ex.run(make_stream({"rare": 3}))
        assert merged["rare"].sample_size == 3
        assert merged["rare"].weight == 1.0

    def test_rare_stratum_survives_sharding(self):
        stream = make_stream({"big": 40_000, "rare": 2})
        ex = ShardedExecutor(4, FixedPerStratum(16), key_fn=KEY, seed=4)
        merged = ex.run(stream)
        assert "rare" in merged
        assert merged["rare"].sample_size == 2

    def test_intervals_are_independent(self):
        """Nothing carries over: each run's counters cover that run alone."""
        ex = ShardedExecutor(2, FixedPerStratum(5), key_fn=KEY, seed=4)
        assert ex.run(make_stream({"a": 50}))["a"].count == 50
        assert ex.run(make_stream({"a": 30}))["a"].count == 30
        assert ex.run([]).total_count == 0

    def test_adaptive_policy_observes_merged_counts(self):
        policy = WaterFillingAllocation(200)
        ex = ShardedExecutor(4, policy, key_fn=KEY, seed=10)
        ex.run(make_stream({"a": 3000, "b": 300}, seed=10))
        assert policy._capacities  # rebalanced from the merged counters


class TestExecutionModes:
    def test_single_worker_runs_inline(self):
        ex = ShardedExecutor(1, FixedPerStratum(10), key_fn=KEY, seed=8)
        merged = ex.run(make_stream({"a": 500}))
        assert merged["a"].count == 500

    def test_same_seed_same_distribution(self):
        """Same seeds ⇒ identical samples: shard samplers carry no state."""
        stream = make_stream({"a": 5000, "b": 100}, seed=9)
        first = ShardedExecutor(4, FixedPerStratum(32), key_fn=KEY, seed=9).run(stream)
        again = ShardedExecutor(4, FixedPerStratum(32), key_fn=KEY, seed=9).run(stream)
        for key in first.keys:
            assert first[key].items == again[key].items
            assert first[key].count == again[key].count

    def test_single_worker_is_the_plain_sampler(self):
        """One shard is one OASRS sampler seeded by the coordinator's draw."""
        stream = make_stream({"a": 800, "b": 40}, seed=12)
        merged = ShardedExecutor(1, FixedPerStratum(8), key_fn=KEY, seed=3).run(stream)
        plain = OASRSSampler(
            FixedPerStratum(8), key_fn=KEY,
            rng=random.Random(random.Random(3).getrandbits(64)),
        )
        plain.offer_many(stream)
        assert fingerprint(merged) == fingerprint(plain.close_interval())

    def test_chunked_feed_matches_one_flat_run(self):
        """However the interval was fed, the executor shards the same items."""
        stream = make_stream({"a": 900, "b": 90, "c": 9}, seed=13)
        sampler = sharded_sampler(workers=4, seed=5)
        for lo in range(0, len(stream), 128):
            sampler.process_chunk(stream[lo : lo + 128])
        flat = ShardedExecutor(4, FixedPerStratum(4), key_fn=KEY, seed=5).run(stream)
        assert fingerprint(sampler.close_interval()) == fingerprint(flat)


def column_view(items):
    """``items`` as one located column view (`item_key` / `item_value` rows)."""
    batch = RecordBatch([(float(i), item) for i, item in enumerate(items)])
    return batch.item_slice(0, len(batch))


class TestShardSamples:
    """What `_run_shard` keeps, for column views and for plain tuples."""

    def test_column_shard_keeps_column_members(self):
        stream = make_stream({"a": 1500, "b": 300, "c": 20}, seed=14)
        shard = column_view(stream)[1::2]
        sample = _run_shard(shard, WaterFillingAllocation(200), item_key, 2, 5)
        assert sample.total_count == len(shard)
        values = Counter(value for _key, value in shard)
        for stratum in sample:
            assert type(stratum.items) is _StratumMembers
            assert 0 < stratum.sample_size <= stratum.count
            assert all(key == stratum.key for key, _value in stratum.items)
            assert not Counter(v for _k, v in stratum.items) - values

    def test_tuple_strata_keep_the_items_they_were_given(self):
        """A custom ``key_fn`` sees item tuples; the kept items are those."""
        stream = make_stream({"a": 1500, "b": 300, "c": 20}, seed=15)
        sample = _run_shard(stream, WaterFillingAllocation(200), KEY, 2, 5)
        assert {s.key: s.count for s in sample} == Counter(KEY(it) for it in stream)
        for stratum in sample:
            assert 0 < stratum.sample_size <= stratum.count
            assert not Counter(stratum.items) - Counter(stream)

    def test_column_view_samples_like_its_tuples(self):
        """A column view and the same rows as tuples give one merged sample."""
        stream = make_stream({"a": 2000, "b": 200, "c": 20}, seed=16)

        def run(items):
            policy = WaterFillingAllocation(200)
            return ShardedExecutor(4, policy, key_fn=item_key, seed=42).run(items)

        assert fingerprint(run(column_view(stream))) == fingerprint(run(stream))


def fingerprint(sample):
    """Exact identity of a merged WeightedSample, order-independent."""
    return tuple(sorted((s.key, s.items, s.count, s.weight) for s in sample))


def sharded_sampler(workers=2, policy=None, seed=1):
    return ShardedIntervalSampler(
        ShardedExecutor(workers, policy or FixedPerStratum(4), key_fn=KEY, seed=seed)
    )


class TestResume:
    """`execute_plan(resume_from=...)` on a sharded plan matches bitwise."""

    def plan(self, stream, **overrides):
        config = SystemConfig(
            sampling_fraction=0.5, seed=17, parallelism=4, **overrides
        )
        return build_plan(
            StreamQuery(key_fn=KEY, value_fn=VAL, kind="mean"),
            WindowConfig(length=5.0, slide=2.5),
            config,
            engine="direct",
            strategy="oasrs",
            source=ListSource(stream),
            name="sharded-resume",
        )

    @staticmethod
    def pane_fingerprint(results):
        return [
            (r.end, r.estimate, r.sampled_items,
             r.error.margin if r.error is not None else None)
            for r in results
        ]

    def test_resume_matches_uninterrupted_run(self):
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

    @pytest.mark.parametrize("chunk_size", [0, 256])
    def test_resumed_batched_run_stays_columnar(self, chunk_size):
        """A restart used to drop a columnar batched run onto tuple
        micro-batches."""
        stream = stream_by_rates({"A": 300, "B": 60, "C": 10}, duration=15, seed=11)

        def plan():
            return build_plan(
                StreamQuery(key_fn=item_key, value_fn=item_value, kind="mean"),
                WindowConfig(length=5.0, slide=2.5),
                SystemConfig(
                    sampling_fraction=0.5, seed=17, parallelism=2, batch_interval=0.5,
                    chunk_size=chunk_size, checkpoint=CheckpointPolicy(every=1),
                ),
                engine="batched", strategy="oasrs", source=ListSource(stream),
            )

        store = CheckpointStore()
        base, _ = execute_plan(plan(), checkpoint_store=store)
        info = {}
        resumed, _ = execute_plan(plan(), resume_from=store.get(2), run_info=info)
        assert resumed == base
        assert "columnar_fallback" not in info

    def test_restore_replays_the_next_interval(self):
        """An executor restored from a snapshot, reused or fresh, continues
        exactly as the one the snapshot came from."""
        intervals = [make_stream({"a": 600, "b": 60}, seed=s) for s in range(3)]

        def executor():
            return ShardedExecutor(4, WaterFillingAllocation(200), key_fn=KEY, seed=42)

        ex = executor()
        ex.run(intervals[0])
        snapshot = ex.state()
        expected = [fingerprint(ex.run(items)) for items in intervals[1:]]
        ex.restore(snapshot)
        assert [fingerprint(ex.run(items)) for items in intervals[1:]] == expected
        fresh = executor()
        fresh.restore(snapshot)
        assert [fingerprint(fresh.run(items)) for items in intervals[1:]] == expected

    def test_restore_revives_a_permanently_killed_worker(self):
        """The live set and the fault schedule's interval index checkpoint:
        a restore from before the kill brings the worker back, and re-running
        the kill interval kills it again."""
        kill = ShardKill(interval=1, worker=2, permanent=True)
        ex = ShardedExecutor(
            4, FixedPerStratum(40), key_fn=KEY, seed=6,
            faults=FaultSchedule(kills=(kill,)),
        )
        ex.run(make_stream({"a": 400}))
        snapshot = ex.state()
        first = fingerprint(ex.run(make_stream({"a": 400}, seed=1)))
        assert ex.live_workers == [0, 1, 3]
        assert [e.worker for e in ex.drain_recovery_events()] == [2]
        ex.restore(snapshot)
        assert ex.live_workers == [0, 1, 2, 3]
        assert fingerprint(ex.run(make_stream({"a": 400}, seed=1))) == first
        assert ex.live_workers == [0, 1, 3]
        assert [e.worker for e in ex.drain_recovery_events()] == [2]


class TestIntervalSamplerBuffering:
    def test_offer_many_buffers_a_whole_interval_by_reference(self):
        """A located view is kept intact and sharded as strided views."""
        batch = RecordBatch([(float(i), item) for i, item in enumerate(
            make_stream({"a": 2000, "b": 200, "c": 20}, seed=3))])
        sampler = ShardedIntervalSampler(
            ShardedExecutor(2, WaterFillingAllocation(200), key_fn=item_key, seed=42)
        )
        view = batch.item_slice(0, len(batch))
        sampler.offer_many(view)
        assert sampler._chunks[-1] is view
        assert sampler.close_interval().total_count == len(view)

    def test_process_chunk_keeps_chunk_intact(self):
        sampler = sharded_sampler()
        chunk = [("a", float(i)) for i in range(64)]
        sampler.process_chunk(chunk)
        assert sampler._chunks[-1] is chunk  # stored by reference, not re-buffered

    def test_mixed_offer_and_chunks_cover_all_items(self):
        sampler = sharded_sampler()
        sampler.offer(("a", 1.0))
        sampler.process_chunk([("a", float(i)) for i in range(50)])
        sampler.offer_many([("b", float(i)) for i in range(10)])
        merged = sampler.close_interval()
        assert merged["a"].count == 51
        assert merged["b"].count == 10
        # The buffer drains: a second close sees an empty interval.
        assert len(sampler.close_interval()) == 0

    def test_state_flattens_buffer_and_restores(self):
        sampler = sharded_sampler()
        sampler.process_chunk([("a", float(i)) for i in range(20)])
        sampler.process_chunk([("b", float(i)) for i in range(5)])
        snapshot = sampler.state()
        assert snapshot["buffer"] == (
            [("a", float(i)) for i in range(20)] + [("b", float(i)) for i in range(5)]
        )
        restored = sharded_sampler(seed=99)
        restored.restore(snapshot)
        assert fingerprint(sampler.close_interval()) == fingerprint(
            restored.close_interval()
        )


class TestWorkerLoss:
    """A dead worker loses only its own reservoir and counter (§3.2)."""

    @staticmethod
    def executor(*kills, workers=4, capacity=50):
        return ShardedExecutor(
            workers, FixedPerStratum(capacity), key_fn=KEY, seed=1,
            faults=FaultSchedule(kills=kills),
        )

    def test_loss_is_confined_to_the_dead_worker(self):
        ex = self.executor(ShardKill(interval=0, worker=0, after_fraction=1.0))
        merged = ex.run(make_stream({"A": 1000}))
        # Worker 0 held 250 items; the rest survive with exact counters.
        assert merged["A"].count == 750
        (event,) = ex.drain_recovery_events()
        assert (event.worker, event.items_lost, event.items_rerouted) == (0, 250, 0)
        assert ex.drain_recovery_events() == []

    def test_unprocessed_suffix_reroutes_over_survivors(self):
        ex = self.executor(ShardKill(interval=0, worker=1, after_fraction=0.2))
        merged = ex.run(make_stream({"A": 1000}))
        (event,) = ex.drain_recovery_events()
        assert (event.items_lost, event.items_rerouted) == (50, 200)
        assert merged["A"].count == 950
        # The transient kill is over: the next interval is whole again.
        assert ex.run(make_stream({"A": 1000}))["A"].count == 1000

    def test_estimate_unbiased_over_survivors(self):
        ex = self.executor(ShardKill(interval=0, worker=2), capacity=100)
        merged = ex.run(make_stream({"A": 4000}, seed=2))
        assert abs(approximate_mean(merged, VAL).value - 100.0) < 3.0

    def test_kill_changes_only_the_killed_shard(self):
        """Seeds are drawn per configured worker whatever fails, so the
        survivors keep their exact samples and later intervals are
        bitwise those of a fault-free run."""
        clean = self.executor()
        faulty = self.executor(ShardKill(interval=1, worker=0, after_fraction=1.0))
        intervals = [make_stream({"A": 1000, "B": 600}, seed=s) for s in range(3)]
        outcomes = [(clean.run(items), faulty.run(items)) for items in intervals]
        for index in (0, 2):
            want, got = outcomes[index]
            assert fingerprint(got) == fingerprint(want)
        want, got = outcomes[1]
        assert got.total_count == want.total_count - 400  # worker 0's quarter
        for stratum in got:
            assert not Counter(stratum.items) - Counter(want[stratum.key].items)

    def test_permanent_kill_shrinks_the_live_set(self):
        ex = self.executor(ShardKill(interval=0, worker=3, permanent=True))
        ex.run(make_stream({"A": 400}))
        assert ex.live_workers == [0, 1, 2]
        # Survivors re-widen: capacity is split three ways from now on.
        assert ex.run(make_stream({"A": 4000}))["A"].sample_size == 51

    def test_all_workers_dead_is_loud(self):
        ex = self.executor(
            ShardKill(interval=0, worker=0, permanent=True),
            ShardKill(interval=0, worker=1, permanent=True),
            workers=2,
        )
        # Nobody is left to take the re-route: the interval is lost whole...
        assert ex.run(make_stream({"A": 10})).total_count == 0
        assert ex.live_workers == []
        # ...and the next one has no worker to run on.
        with pytest.raises(RuntimeError, match="all shard workers"):
            ex.run(make_stream({"A": 10}))


class TestAccuracy:
    def test_sharded_within_single_process_error_bounds(self):
        """4 shards estimate the synthetic stream as well as 1 sampler."""
        stream = make_stream({"a": 6000, "b": 600, "c": 30}, seed=20)
        truth = statistics.fmean(v for _k, v in stream)

        def sharded(seed):
            ex = ShardedExecutor(4, FixedPerStratum(64), key_fn=KEY, seed=seed)
            return ex.run(stream)

        def single(seed):
            return oasrs_sample(stream, 64, key_fn=KEY, rng=random.Random(seed))

        def losses(estimator, trials=25):
            out = []
            for seed in range(trials):
                sample = estimator(seed)
                est = approximate_mean(sample, VAL).value
                out.append(abs(est - truth) / truth)
            return out

        loss_sharded = statistics.fmean(losses(sharded))
        loss_single = statistics.fmean(losses(single))
        assert loss_sharded < 0.05
        assert loss_sharded < max(2.5 * loss_single, 0.02)

    def test_estimate_within_error_bound(self):
        """The rigorous ±bound of the merged sample covers the true mean."""
        stream = make_stream({"a": 6000, "b": 600}, seed=30)
        truth = statistics.fmean(v for _k, v in stream)
        covered = 0
        trials = 20
        for seed in range(trials):
            ex = ShardedExecutor(4, FixedPerStratum(128), key_fn=KEY, seed=seed)
            sample = ex.run(stream)
            result = approximate_mean(sample, VAL)
            bound = estimate_error(result, confidence=0.95)
            if abs(result.value - truth) <= bound.margin:
                covered += 1
        # 95% nominal coverage; allow slack for the small trial count.
        assert covered >= int(0.8 * trials)
