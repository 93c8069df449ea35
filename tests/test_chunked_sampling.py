"""Property tests for the vectorized chunk-based sampling path.

The contract of the chunk API (`Reservoir.offer_many`,
`OASRSSampler.process_chunk`, the pipelined engine's chunk runs):

* chunk_size = 1 — *identical* to the per-item path, bit for bit (same RNG
  draws, same reservoir contents),
* chunk_size > 1 — *statistically equivalent*: deterministic quantities
  (counters, sample sizes, weights) match exactly, and the sampled-item
  distribution passes KS-style uniformity bounds.
"""

import random
import statistics

import pytest

from repro.core.oasrs import FixedPerStratum, OASRSSampler, WaterFillingAllocation
from repro.core.reservoir import Reservoir
from repro.system import (
    FlinkStreamApproxSystem,
    NativeFlinkSystem,
    NativeStreamApproxSystem,
    StreamQuery,
    SystemConfig,
    WindowConfig,
)
from repro.workloads.synthetic import stream_by_rates

KEY = lambda item: item[0]  # noqa: E731
VAL = lambda item: item[1]  # noqa: E731


def make_items(spec, seed=0):
    rng = random.Random(seed)
    items = []
    for key, n in spec.items():
        items.extend((key, rng.gauss(50, 5)) for _ in range(n))
    rng.shuffle(items)
    return items


def chunks(seq, size):
    return [seq[i : i + size] for i in range(0, len(seq), size)]


class TestReservoirOfferMany:
    def test_chunk_of_one_is_bitwise_identical(self):
        per_item = Reservoir(16, rng=random.Random(3))
        chunked = Reservoir(16, rng=random.Random(3))
        for x in range(2000):
            per_item.offer(x)
            chunked.offer_many([x])
        assert per_item.items == chunked.items
        assert per_item.seen == chunked.seen

    @pytest.mark.parametrize("chunk_size", [2, 7, 64, 500])
    def test_counters_and_size_deterministic(self, chunk_size):
        r = Reservoir(32, rng=random.Random(1))
        accepted = sum(r.offer_many(c) for c in chunks(list(range(1000)), chunk_size))
        assert r.seen == 1000
        assert len(r) == 32
        assert accepted >= 32  # the fill phase alone accepts capacity items

    def test_underfull_chunk_keeps_everything(self):
        r = Reservoir(100, rng=random.Random(2))
        r.offer_many(list(range(40)))
        assert r.items == list(range(40))
        assert not r.is_saturated()

    @pytest.mark.parametrize("chunk_size", [16, 1024])
    def test_uniformity_ks_bound(self, chunk_size):
        """Pooled inclusion frequencies stay near capacity/n for every item."""
        n, cap, trials = 1000, 25, 300
        counts = [0] * n
        for trial in range(trials):
            r = Reservoir(cap, rng=random.Random(trial))
            for c in chunks(list(range(n)), chunk_size):
                r.offer_many(c)
            for x in r.items:
                counts[x] += 1
        # Empirical inclusion probability per decile vs the uniform cap/n,
        # a KS-style sup-norm bound on the aggregated distribution.
        expected = cap / n * trials
        decile = n // 10
        for d in range(10):
            mean_count = statistics.fmean(counts[d * decile : (d + 1) * decile])
            assert abs(mean_count - expected) / expected < 0.25

    def test_skip_and_vector_paths_agree_statistically(self):
        """The Algorithm-X skip loop and the NumPy path draw alike."""
        n, cap, trials = 600, 20, 200
        means = {}
        for label, chunk_size in (("skip", 40), ("vector", 600)):
            total = 0.0
            for trial in range(trials):
                r = Reservoir(cap, rng=random.Random(7000 + trial))
                for c in chunks(list(range(n)), chunk_size):
                    r.offer_many(c)
                total += statistics.fmean(r.items)
            means[label] = total / trials
        # Uniform samples of 0..599 have mean ≈ 299.5 under either path.
        assert abs(means["skip"] - means["vector"]) < 15
        assert abs(means["skip"] - (n - 1) / 2) < 15


class TestOASRSProcessChunk:
    def test_chunk_of_one_matches_offer_exactly(self):
        items = make_items({"a": 300, "b": 40, "c": 3})
        per_item = OASRSSampler(FixedPerStratum(10), key_fn=KEY, rng=random.Random(5))
        chunked = OASRSSampler(FixedPerStratum(10), key_fn=KEY, rng=random.Random(5))
        for item in items:
            per_item.offer(item)
            chunked.process_chunk([item])
        a, b = per_item.close_interval(), chunked.close_interval()
        for key in a.keys:
            assert a[key].items == b[key].items
            assert a[key].count == b[key].count
            assert a[key].weight == b[key].weight

    @pytest.mark.parametrize("chunk_size", [3, 64, 4096])
    def test_deterministic_quantities_match_per_item(self, chunk_size):
        """Counters, sample sizes, and Equation-1 weights are RNG-free."""
        items = make_items({"a": 2000, "b": 150, "rare": 4}, seed=9)
        per_item = OASRSSampler(FixedPerStratum(50), key_fn=KEY, rng=random.Random(1))
        chunked = OASRSSampler(FixedPerStratum(50), key_fn=KEY, rng=random.Random(2))
        per_item.offer_many(items)
        for c in chunks(items, chunk_size):
            chunked.process_chunk(c)
        a, b = per_item.close_interval(), chunked.close_interval()
        assert sorted(a.keys) == sorted(b.keys)
        for key in a.keys:
            assert a[key].count == b[key].count
            assert a[key].sample_size == b[key].sample_size
            assert a[key].weight == b[key].weight

    def test_rare_stratum_never_overlooked(self):
        items = make_items({"big": 30_000, "rare": 2}, seed=11)
        sampler = OASRSSampler(FixedPerStratum(16), key_fn=KEY, rng=random.Random(3))
        for c in chunks(items, 512):
            sampler.process_chunk(c)
        sample = sampler.close_interval()
        assert "rare" in sample
        assert sample["rare"].sample_size == 2
        assert sample["rare"].weight == 1.0

    def test_estimates_statistically_equivalent(self):
        """Weighted mean from chunked sampling ≈ per-item ≈ exact."""
        items = make_items({"a": 4000, "b": 400}, seed=13)
        exact = statistics.fmean(v for _k, v in items)

        def mean_of(sampler_fn, trials=40):
            estimates = []
            for seed in range(trials):
                sampler = OASRSSampler(
                    FixedPerStratum(64), key_fn=KEY, rng=random.Random(seed)
                )
                sampler_fn(sampler)
                sample = sampler.close_interval()
                num = sum(
                    sum(s.values(VAL)) * s.weight for s in sample
                )
                den = sum(s.sample_size * s.weight for s in sample)
                estimates.append(num / den)
            return statistics.fmean(estimates)

        per_item = mean_of(lambda s: s.offer_many(items))
        chunked = mean_of(
            lambda s: [s.process_chunk(c) for c in chunks(items, 256)]
        )
        assert abs(per_item - exact) / exact < 0.01
        assert abs(chunked - exact) / exact < 0.01

    def test_adaptive_policy_sees_chunked_counts(self):
        policy = WaterFillingAllocation(100)
        sampler = OASRSSampler(policy, key_fn=KEY, rng=random.Random(1))
        sampler.process_chunk(make_items({"a": 900, "b": 100}, seed=4))
        sampler.close_interval()
        # Water-filling rebalanced from the observed counters.
        assert policy.capacity_for("b", 2) <= 100


class TestChunkedEngines:
    QUERY = StreamQuery(key_fn=KEY, value_fn=VAL, kind="mean", name="chunk-test")
    WINDOW = WindowConfig(length=10.0, slide=5.0)

    @pytest.fixture(scope="class")
    def stream(self):
        return stream_by_rates({"A": 1500, "B": 400, "C": 20}, duration=12, seed=21)

    def test_native_flink_chunked_identical(self, stream):
        """No RNG on the native path ⇒ chunked results must match exactly."""
        base = NativeFlinkSystem(self.QUERY, self.WINDOW, SystemConfig()).run(stream)
        chunked = NativeFlinkSystem(
            self.QUERY, self.WINDOW, SystemConfig(chunk_size=256)
        ).run(stream)
        assert [r.end for r in base.results] == [r.end for r in chunked.results]
        for a, b in zip(base.results, chunked.results):
            assert a.estimate == pytest.approx(b.estimate)
            assert a.total_items == b.total_items

    def test_flink_approx_chunked_same_structure(self, stream):
        cfg = SystemConfig(sampling_fraction=0.5, seed=9)
        cfg_chunked = SystemConfig(sampling_fraction=0.5, seed=9, chunk_size=256)
        base = FlinkStreamApproxSystem(self.QUERY, self.WINDOW, cfg).run(stream)
        chunked = FlinkStreamApproxSystem(self.QUERY, self.WINDOW, cfg_chunked).run(stream)
        assert [r.end for r in base.results] == [r.end for r in chunked.results]
        for a, b in zip(base.results, chunked.results):
            # Which items were kept differs; how many and their weights do not.
            assert a.total_items == b.total_items
            assert a.sampled_items == b.sampled_items
        assert chunked.mean_accuracy_loss() < 0.05

    def test_native_streamapprox_chunked_matches_item_path(self, stream):
        item_cfg = SystemConfig(sampling_fraction=0.4, seed=3)
        chunk_cfg = SystemConfig(sampling_fraction=0.4, seed=3, chunk_size=128)
        item_run = NativeStreamApproxSystem(self.QUERY, self.WINDOW, item_cfg).run(stream)
        chunk_run = NativeStreamApproxSystem(self.QUERY, self.WINDOW, chunk_cfg).run(stream)
        assert [r.end for r in item_run.results] == [r.end for r in chunk_run.results]
        for a, b in zip(item_run.results, chunk_run.results):
            assert a.total_items == b.total_items
            assert a.sampled_items == b.sampled_items
        assert chunk_run.mean_accuracy_loss() < 0.05
