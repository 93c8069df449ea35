"""Tests for the pipelined (Flink-like) engine."""

import random

import pytest

from repro.core.oasrs import FixedPerStratum, OASRSSampler
from repro.core.query import approximate_mean
from repro.engine.cluster import SimulatedCluster
from repro.engine.pipelined.dataflow import Pipeline

KEY = lambda item: item[0]  # noqa: E731
VAL = lambda item: item[1]  # noqa: E731


@pytest.fixture
def cluster():
    return SimulatedCluster(nodes=1, cores_per_node=4)


class TestPipelineBasics:
    def test_map_filter_sink(self, cluster):
        out = (
            Pipeline(cluster)
            .map(lambda x: x * 2)
            .filter(lambda x: x > 2)
            .sink_collect()
            .run([(0.1, 1), (0.2, 2), (0.3, 3)])
        )
        assert [v for _ts, v in out] == [4, 6]

    def test_run_without_sink_raises(self, cluster):
        with pytest.raises(RuntimeError):
            Pipeline(cluster).map(lambda x: x).run([(0.0, 1)])

    def test_stage_after_sink_raises(self, cluster):
        p = Pipeline(cluster).sink_collect()
        with pytest.raises(RuntimeError):
            p.map(lambda x: x)

    def test_out_of_order_stream_rejected(self, cluster):
        p = Pipeline(cluster).sink_collect()
        with pytest.raises(ValueError):
            p.run([(1.0, "a"), (0.5, "b")])

    def test_source_charges_ingest(self, cluster):
        Pipeline(cluster).sink_collect().run([(0.1, i) for i in range(10)])
        assert cluster.stats.items_ingested == 10

    def test_process_sink_charges_processing(self, cluster):
        Pipeline(cluster).sink_process().run([(0.1, i) for i in range(10)])
        assert cluster.stats.items_processed == 10

    def test_no_batch_overheads_on_pipelined_path(self, cluster):
        """Structural Flink property: no jobs, tasks, RDDs, or barriers."""
        Pipeline(cluster).map(lambda x: x).sink_process().run(
            [(0.01 * i, i) for i in range(100)]
        )
        s = cluster.stats
        assert s.jobs_launched == 0
        assert s.tasks_launched == 0
        assert s.rdds_created == 0
        assert s.barriers == 0


class TestSlidingWindowOperator:
    def test_window_aggregation(self, cluster):
        stream = [(float(t), 1) for t in range(1, 21)]
        out = (
            Pipeline(cluster)
            .window(length=10.0, slide=5.0, aggregate=lambda _end, pane: len(pane))
            .sink_collect()
            .run(stream)
        )
        fires = {ts: v for ts, v in out}
        assert fires[10.0] == 9  # items at t=1..9 (t=10 arrives after the fire)
        assert fires[15.0] == 10  # t=5..14

    def test_eviction(self, cluster):
        stream = [(0.5, "old")] + [(float(t), "new") for t in range(20, 25)]
        out = (
            Pipeline(cluster)
            .window(length=5.0, slide=5.0, aggregate=lambda _end, pane: [v for _t, v in pane])
            .sink_collect()
            .run(stream)
        )
        final_panes = [v for _ts, v in out[1:]]
        assert all("old" not in pane for pane in final_panes)

    def test_window_charges_processing_per_pane_item(self, cluster):
        stream = [(float(t), t) for t in range(1, 11)]
        Pipeline(cluster).window(
            length=5.0, slide=5.0, aggregate=lambda _end, pane: len(pane)
        ).sink_collect().run(stream)
        assert cluster.stats.items_processed > 0


class TestOASRSOperator:
    def _run(self, cluster, stream, capacity=8, slide=5.0):
        sampler = OASRSSampler(FixedPerStratum(capacity), key_fn=KEY, rng=random.Random(0))
        return (
            Pipeline(cluster)
            .sample_oasrs(sampler, slide=slide)
            .sink_collect()
            .run(stream)
        )

    def test_one_sample_per_slide(self, cluster):
        stream = [(t * 0.1, ("a", t)) for t in range(1, 200)]
        out = self._run(cluster, stream)
        # 19.9 seconds of stream, slide 5 s → fires at 5, 10, 15 (+ final flush).
        fire_times = [ts for ts, _s in out]
        assert fire_times[:3] == [5.0, 10.0, 15.0]

    def test_sample_respects_capacity_and_counts(self, cluster):
        stream = [(t * 0.01, ("a", t)) for t in range(1, 400)]
        out = self._run(cluster, stream, capacity=8, slide=1.0)
        first = out[0][1]
        assert first["a"].sample_size == 8
        assert first["a"].count == 99  # items with ts in (0, 1)

    def test_sampling_charged_per_seen_item(self, cluster):
        stream = [(t * 0.1, ("a", t)) for t in range(1, 51)]
        self._run(cluster, stream)
        assert cluster.stats.items_sampled == 50

    def test_end_to_end_mean_estimate(self, cluster):
        rng = random.Random(7)
        stream = [(t * 0.001, ("s", rng.gauss(100, 5))) for t in range(1, 5001)]
        sampler = OASRSSampler(FixedPerStratum(200), key_fn=KEY, rng=random.Random(1))
        out = (
            Pipeline(cluster)
            .sample_oasrs(sampler, slide=5.0)
            .map(lambda sample: approximate_mean(sample, VAL).value)
            .sink_collect()
            .run(stream)
        )
        assert out, "no panes emitted"
        # The first pane covers ~5000 items; the trailing flush pane may hold
        # only a handful, so judge accuracy on well-populated panes only.
        assert abs(out[0][1] - 100.0) < 2.0


class TestSampleWindowOperator:
    def test_merges_slide_samples_into_window(self, cluster):
        sampler = OASRSSampler(FixedPerStratum(100), key_fn=KEY, rng=random.Random(2))
        stream = [(t * 0.1, ("a", 1.0)) for t in range(1, 101)]  # 10 seconds
        out = (
            Pipeline(cluster)
            .sample_oasrs(sampler, slide=5.0)
            .window_samples(intervals_per_window=2, aggregate=lambda _end, recent: sum(s.total_count for _ts, s in recent))
            .sink_collect()
            .run(stream)
        )
        # The pane firing at t=10 merges both 5-second samples (~100 items);
        # a trailing flush pane may follow with fewer.
        by_ts = dict(out)
        assert by_ts[10.0] == pytest.approx(99, abs=1)
