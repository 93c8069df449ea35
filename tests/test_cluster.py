"""Tests for the virtual clock and simulated cluster cost accounting."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.engine.cluster as cluster_module
from repro.engine.cluster import SimulatedCluster, VirtualClock
from repro.engine.costs import DEFAULT_COSTS, CostProfile


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now == 0.0

    def test_advances(self):
        clock = VirtualClock()
        clock.advance(1.5)
        clock.advance(0.5)
        assert clock.now == pytest.approx(2.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-1.0)

    def test_reset(self):
        clock = VirtualClock()
        clock.advance(3.0)
        clock.reset()
        assert clock.now == 0.0


class TestCostProfile:
    def test_default_constants_positive(self):
        for name, value in vars(DEFAULT_COSTS).items():
            assert value > 0, name

    def test_scaled_overrides(self):
        profile = DEFAULT_COSTS.scaled(item_process=9.0)
        assert profile.item_process == 9.0
        assert profile.item_ingest == DEFAULT_COSTS.item_ingest

    def test_dominant_cost_is_processing(self):
        """Calibration sanity: query processing dominates per-item costs."""
        c = DEFAULT_COSTS
        assert c.item_process > c.item_ingest
        assert c.item_process > c.item_batch_form
        assert c.item_process > c.item_sample_oasrs
        assert c.item_process > c.item_sample_srs


class TestSimulatedCluster:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            SimulatedCluster(nodes=0)
        with pytest.raises(ValueError):
            SimulatedCluster(cores_per_node=0)
        with pytest.raises(ValueError):
            SimulatedCluster(parallel_efficiency=0.0)

    def test_total_cores(self):
        assert SimulatedCluster(nodes=3, cores_per_node=4).total_cores == 12

    def test_parallel_divided_by_cores(self):
        one = SimulatedCluster(nodes=1, cores_per_node=1)
        eight = SimulatedCluster(nodes=1, cores_per_node=8)
        one.parallel(8.0)
        eight.parallel(8.0)
        assert one.elapsed() == pytest.approx(8.0)
        assert eight.elapsed() < one.elapsed()
        # With 92% efficiency: 1 + 0.92*7 = 7.44× speedup.
        assert eight.elapsed() == pytest.approx(8.0 / 7.44)

    def test_perfect_efficiency_linear(self):
        cluster = SimulatedCluster(nodes=2, cores_per_node=4, parallel_efficiency=1.0)
        cluster.parallel(8.0)
        assert cluster.elapsed() == pytest.approx(1.0)

    def test_serial_not_divided(self):
        cluster = SimulatedCluster(nodes=4, cores_per_node=8)
        cluster.serial(2.0)
        assert cluster.elapsed() == pytest.approx(2.0)

    def test_barrier_grows_with_nodes(self):
        small = SimulatedCluster(nodes=2)
        big = SimulatedCluster(nodes=16)
        small.barrier()
        big.barrier()
        assert big.elapsed() > small.elapsed()
        assert big.elapsed() == pytest.approx(
            DEFAULT_COSTS.barrier_sync * math.log2(16)
        )

    def test_event_ledger(self):
        cluster = SimulatedCluster()
        cluster.ingest_items(10)
        cluster.process_items(5)
        cluster.shuffle_items(3)
        cluster.sample_items(7, "oasrs")
        cluster.launch_tasks(2)
        cluster.launch_job()
        cluster.create_rdd()
        cluster.barrier()
        cluster.sort(100.0)
        s = cluster.stats
        assert s.items_ingested == 10
        assert s.items_processed == 5
        assert s.items_shuffled == 3
        assert s.items_sampled == 7
        assert s.tasks_launched == 2
        assert s.jobs_launched == 1
        assert s.rdds_created == 1
        assert s.barriers == 1
        assert s.sort_comparisons == 100.0

    def test_unknown_sampling_kind(self):
        with pytest.raises(ValueError):
            SimulatedCluster().sample_items(1, "bogus")

    def test_throughput(self):
        cluster = SimulatedCluster(nodes=1, cores_per_node=1, parallel_efficiency=1.0)
        n = 1_000_000
        cluster.process_items(n)
        assert cluster.throughput(n) == pytest.approx(
            1.0 / DEFAULT_COSTS.item_process, rel=0.01
        )

    def test_throughput_zero_time(self):
        assert SimulatedCluster().throughput(100) == 0.0

    def test_reset(self):
        cluster = SimulatedCluster()
        cluster.process_items(100)
        cluster.reset()
        assert cluster.elapsed() == 0.0
        assert cluster.stats.items_processed == 0

    def test_custom_stat_bump(self):
        cluster = SimulatedCluster()
        cluster.stats.bump("panes")
        cluster.stats.bump("panes", 2.0)
        assert cluster.stats.custom["panes"] == 3.0


def charge_item_by_item(cluster, n, kind):
    """The reference `SimulatedCluster.ingest_each` replaces: one item at a
    time, ingest then sample (or process)."""
    for _ in range(n):
        cluster.ingest_items(1)
        if kind is None:
            cluster.process_items(1)
        else:
            cluster.sample_items(1, kind)


class TestIngestEach:
    @settings(max_examples=60, deadline=None)
    @given(
        before=st.floats(0.0, 1e3),
        n=st.integers(0, 3000),
        kind=st.sampled_from([None, "oasrs", "srs", "sts"]),
        nodes=st.integers(1, 6),
        ingest=st.floats(1e-12, 1e-3),
        then=st.floats(1e-12, 1e-3),
    )
    def test_bitwise_the_item_by_item_loop(self, before, n, kind, nodes, ingest, then):
        costs = DEFAULT_COSTS.scaled(
            item_ingest=ingest, item_process=then, item_sample_oasrs=then,
            item_sample_srs=then * 3, item_sample_sts=then / 7,
        )
        loop, one = (SimulatedCluster(nodes=nodes, costs=costs) for _ in range(2))
        for cluster in (loop, one):
            cluster.serial(before)
        charge_item_by_item(loop, n, kind)
        one.ingest_each(n, kind)
        assert one.elapsed().hex() == loop.elapsed().hex()
        assert one.stats == loop.stats

    def test_crosses_block_boundaries_bitwise(self):
        n = 2 * cluster_module._EACH_BLOCK + 3
        loop, one = SimulatedCluster(), SimulatedCluster()
        charge_item_by_item(loop, n, "oasrs")
        one.ingest_each(n, "oasrs")
        assert one.elapsed().hex() == loop.elapsed().hex()
        assert one.stats == loop.stats

    def test_unknown_kind_and_negative_costs_are_refused(self):
        with pytest.raises(ValueError):
            SimulatedCluster().ingest_each(3, "bogus")
        with pytest.raises(ValueError):
            SimulatedCluster(costs=DEFAULT_COSTS.scaled(item_ingest=-1.0)).ingest_each(3)
