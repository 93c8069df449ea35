"""Tests for the real multi-process `ShardedExecutor` (§3.2 on actual cores).

Covers the merge-weight semantics (counters sum, reservoirs concatenate,
Equation-1 weights re-derive), the process/fallback execution modes,
worker loss at the executor boundary (discard-and-rewiden; the plan-level
view is ``tests/chaos/test_shard_kill.py``), and the accuracy acceptance
bar: 4 sharded workers estimate within the same error bounds as
single-process OASRS on the synthetic workload.
"""

import os
import random
import statistics

import pytest

from repro.core.distributed import ShardedExecutor
from repro.core.oasrs import FixedPerStratum, WaterFillingAllocation, oasrs_sample
from repro.core.query import approximate_mean
from repro.core.error import estimate_error
from repro.core.recovery import FaultSchedule, ShardKill

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


class TestExecutionModes:
    def test_multiprocess_path_used_when_available(self):
        ex = ShardedExecutor(4, FixedPerStratum(10), key_fn=KEY, seed=6)
        ex.run(make_stream({"a": 2000}))
        if ex._parallel_blocker() is None:
            assert ex.last_run_parallel

    def test_inline_fallback_with_env_flag(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_MP", "1")
        ex = ShardedExecutor(4, FixedPerStratum(10), key_fn=KEY, seed=7)
        merged = ex.run(make_stream({"a": 2000}))
        assert not ex.last_run_parallel
        assert merged["a"].count == 2000

    def test_single_worker_runs_inline(self):
        ex = ShardedExecutor(1, FixedPerStratum(10), key_fn=KEY, seed=8)
        merged = ex.run(make_stream({"a": 500}))
        assert not ex.last_run_parallel
        assert merged["a"].count == 500

    def test_inline_and_parallel_same_distribution(self, monkeypatch):
        """Same seeds ⇒ identical samples whether forked or inline."""
        stream = make_stream({"a": 5000, "b": 100}, seed=9)
        ex_mp = ShardedExecutor(4, FixedPerStratum(32), key_fn=KEY, seed=9)
        sample_mp = ex_mp.run(stream)
        monkeypatch.setenv("REPRO_NO_MP", "1")
        ex_inline = ShardedExecutor(4, FixedPerStratum(32), key_fn=KEY, seed=9)
        sample_inline = ex_inline.run(stream)
        for key in sample_mp.keys:
            assert sample_mp[key].items == sample_inline[key].items
            assert sample_mp[key].count == sample_inline[key].count

    def test_adaptive_policy_observes_merged_counts(self):
        policy = WaterFillingAllocation(200)
        ex = ShardedExecutor(4, policy, key_fn=KEY, seed=10)
        ex.run(make_stream({"a": 3000, "b": 300}, seed=10))
        assert policy._capacities  # rebalanced from the merged counters


class TestWorkerLoss:
    """A dead worker loses only its own reservoir and counter (§3.2)."""

    @pytest.fixture(autouse=True)
    def in_process_shards(self, monkeypatch):
        # Kills are applied to the partitioned shards before they reach a
        # worker, so the in-process mode sees exactly what the pool would.
        monkeypatch.setenv("REPRO_NO_MP", "1")

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
        """4 real workers estimate the synthetic stream as well as 1 process."""
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
