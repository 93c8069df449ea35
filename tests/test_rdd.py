"""Tests for the MiniRDD batched substrate."""

import random

import pytest

from repro.engine.batched.rdd import MiniRDD
from repro.engine.cluster import SimulatedCluster


@pytest.fixture
def cluster():
    return SimulatedCluster(nodes=2, cores_per_node=4)


def rdd_of(cluster, data, parts=None):
    return MiniRDD.parallelize(cluster, data, num_partitions=parts)


class TestLineage:
    def test_sampling_is_lazy(self, cluster):
        """Transformations alone launch no job; the action launches one."""
        pairs = [("a", i) for i in range(100)]
        rdd_of(cluster, pairs).sample(0.5, rng=random.Random(0))
        keyed = rdd_of(cluster, pairs).sample_by_key(0.5, rng=random.Random(0))
        assert cluster.stats.jobs_launched == 0
        keyed.collect()
        assert cluster.stats.jobs_launched == 1

    def test_action_launches_job_and_tasks(self, cluster):
        rdd = rdd_of(cluster, range(10), parts=4)
        rdd.collect()
        assert cluster.stats.jobs_launched == 1
        assert cluster.stats.tasks_launched == 4

    def test_process_all_charges_items(self, cluster):
        rdd = rdd_of(cluster, range(50))
        n = rdd.process_all()
        assert n == 50
        assert cluster.stats.items_processed == 50


class TestSamplingOperators:
    def test_sample_fraction(self, cluster):
        rdd = rdd_of(cluster, list(range(10_000)))
        out = rdd.sample(0.1, rng=random.Random(0)).collect()
        assert abs(len(out) - 1000) < 50

    def test_sample_charges_sort_and_keys(self, cluster):
        rdd = rdd_of(cluster, list(range(10_000)))
        rdd.sample(0.2, rng=random.Random(1)).collect()
        assert cluster.stats.items_sampled == 10_000
        assert cluster.stats.sort_comparisons > 0

    def test_sample_by_key_exact_sizes(self, cluster):
        pairs = [("a", i) for i in range(100)] + [("b", i) for i in range(50)]
        out = rdd_of(cluster, pairs).sample_by_key(0.2, rng=random.Random(2)).collect()
        counts = {}
        for key, _v in out:
            counts[key] = counts.get(key, 0) + 1
        assert counts == {"a": 20, "b": 10}

    def test_sample_by_key_charges_shuffle_and_barriers(self, cluster):
        pairs = [("a", i) for i in range(1000)] + [("b", i) for i in range(1000)]
        rdd_of(cluster, pairs).sample_by_key(0.5, rng=random.Random(3)).collect()
        assert cluster.stats.items_shuffled == 2000
        assert cluster.stats.barriers >= 3  # groupBy + per-stratum collects


class TestCostStructure:
    """The asymmetries the paper's evaluation rests on."""

    def test_sts_costs_more_than_srs(self):
        pairs = [("k%d" % (i % 3), float(i)) for i in range(20_000)]
        c_srs = SimulatedCluster()
        MiniRDD.parallelize(c_srs, pairs).sample(0.4, rng=random.Random(4)).collect()
        c_sts = SimulatedCluster()
        MiniRDD.parallelize(c_sts, pairs).sample_by_key(0.4, rng=random.Random(4)).collect()
        assert c_sts.elapsed() > c_srs.elapsed()

    def test_formation_cost_scales_with_items(self):
        c_small = SimulatedCluster()
        MiniRDD.parallelize(c_small, range(100))
        c_big = SimulatedCluster()
        MiniRDD.parallelize(c_big, range(100_000))
        assert c_big.elapsed() > c_small.elapsed()
