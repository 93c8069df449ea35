"""Failure-injection and edge-case tests across the stack.

Streams in production are never clean: they go empty, stall, carry a
single item, or a single stratum; configurations get set to their
extremes.  Every system and substrate must degrade predictably — exact
answers where possible, empty-but-valid reports otherwise, and loud
errors for genuinely invalid input.
"""

import random
from dataclasses import replace

import pytest

from repro.core.oasrs import FixedPerStratum, OASRSSampler, WaterFillingAllocation, oasrs_sample
from repro.core.query import approximate_mean, approximate_sum
from repro.engine.batched.dstream import Batcher, SlidingWindower
from repro.runtime import ListSource, PlanError, build_plan, execute_plan
from repro.system import (
    ALL_SYSTEMS,
    FlinkStreamApproxSystem,
    SparkStreamApproxSystem,
    StreamQuery,
    SystemConfig,
    WindowConfig,
)
from repro.workloads.synthetic import stream_by_rates

KEY = lambda it: it[0]  # noqa: E731
VAL = lambda it: it[1]  # noqa: E731
QUERY = StreamQuery(key_fn=KEY, value_fn=VAL, kind="mean")
WINDOW = WindowConfig(10.0, 5.0)


class TestEmptyStreams:
    @pytest.mark.parametrize("name", sorted(ALL_SYSTEMS))
    def test_every_system_survives_empty_stream(self, name):
        report = ALL_SYSTEMS[name](QUERY, WINDOW, SystemConfig()).run([])
        assert report.results == []
        assert report.items_total == 0
        assert report.throughput == 0.0
        assert report.mean_accuracy_loss() == 0.0

    def test_empty_interval_sampler(self):
        sampler = OASRSSampler(FixedPerStratum(5), key_fn=KEY, rng=random.Random(0))
        sample = sampler.close_interval()
        assert len(sample) == 0
        assert approximate_sum(sample).value == 0.0


class TestSingleItemStreams:
    @pytest.mark.parametrize(
        "cls", [SparkStreamApproxSystem, FlinkStreamApproxSystem]
    )
    def test_single_item(self, cls):
        report = cls(QUERY, WINDOW, SystemConfig()).run([(0.5, ("A", 7.0))])
        # A one-item stream has no pane boundary; either zero panes or one
        # exact pane is acceptable — never a crash or a wrong value.
        for pane in report.results:
            assert pane.estimate == pytest.approx(7.0)

    def test_single_stratum_single_item_weight_one(self):
        sample = oasrs_sample([("A", 1.0)], 5, key_fn=KEY, rng=random.Random(0))
        assert sample["A"].weight == 1.0
        bound_value = approximate_mean(sample, VAL).value
        assert bound_value == pytest.approx(1.0)


class TestStalls:
    def test_long_silence_between_items(self):
        """A stream gap spanning many windows must not break pane algebra."""
        stream = [(1.0, ("A", 1.0)), (1.5, ("A", 3.0)), (60.0, ("A", 5.0))]
        report = SparkStreamApproxSystem(QUERY, WINDOW, SystemConfig()).run(stream)
        by_end = {r.end: r for r in report.results}
        # The early pane sampled from {1.0, 3.0}; its estimate must stay in
        # the convex hull of the observed values.
        assert by_end[5.0].total_items == 2
        assert 1.0 <= by_end[5.0].estimate <= 3.0
        # Panes fully inside the silence carry no data.
        assert by_end[30.0].total_items == 0

    def test_batcher_emits_empty_batches_through_gap(self):
        batches = list(Batcher(1.0).batches([(0.5, "a"), (10.5, "b")]))
        assert len(batches) == 11
        assert sum(len(b) for b in batches) == 2


class TestExtremeConfigurations:
    def test_fraction_one_is_near_exact(self):
        """At fraction 1.0 the adaptive allocator lags one interval behind
        growing batch sizes, so the first panes may drop an item or two;
        once counts stabilise, panes are exactly the input."""
        stream = [(0.1 * i, ("A", float(i % 13))) for i in range(1, 400)]
        report = SparkStreamApproxSystem(
            QUERY, WINDOW, SystemConfig(sampling_fraction=1.0)
        ).run(stream)
        for pane in report.results:
            assert pane.accuracy_loss < 0.02
        for pane in report.results[2:]:
            assert pane.accuracy_loss == pytest.approx(0.0, abs=1e-9)

    def test_tumbling_window(self):
        stream = [(0.1 * i, ("A", 1.0)) for i in range(1, 400)]
        report = SparkStreamApproxSystem(
            QUERY, WindowConfig(5.0, 5.0), SystemConfig()
        ).run(stream)
        assert report.results

    def test_tiny_budget_never_zero_capacity(self):
        policy = WaterFillingAllocation(1, expected_strata=5)
        assert policy.capacity_for("x", 5) >= 1
        policy.observe({"a": 1000, "b": 1000, "c": 1000})
        assert all(v >= 1 for v in policy._capacities.values())

    def test_many_strata_few_items(self):
        items = [(f"s{i}", float(i)) for i in range(500)]  # every item unique stratum
        sample = oasrs_sample(items, 2, key_fn=KEY, rng=random.Random(1))
        assert len(sample) == 500
        assert all(s.weight == 1.0 for s in sample)
        assert approximate_sum(sample, VAL).value == pytest.approx(
            sum(v for _k, v in items)
        )


class TestInvalidInput:
    @pytest.mark.parametrize("engine", ["direct", "batched", "pipelined"])
    @pytest.mark.parametrize("chunk_size", [0, 256])
    @pytest.mark.parametrize("feed", ["columns", "shim"])
    def test_out_of_order_stream_rejected_before_any_pane(
        self, monkeypatch, engine, chunk_size, feed
    ):
        """Every engine's interval boundaries are binary searches over the
        timestamps; one swapped pair must be refused, not windowed."""
        stream = stream_by_rates({"A": 600, "B": 200}, duration=25, seed=3)
        swapped = list(stream)
        swapped[5000], swapped[5001] = swapped[5001], swapped[5000]
        assert swapped[5000][0] > swapped[5001][0]
        if feed == "shim":
            monkeypatch.setenv("REPRO_NO_COLUMNAR", "1")
        panes, info = [], {}
        plan = build_plan(
            StreamQuery(kind="mean"), WINDOW, SystemConfig(chunk_size=chunk_size),
            engine=engine, strategy="oasrs", source=ListSource(swapped),
        )
        with pytest.raises(PlanError, match="event 5001 at .* follows"):
            execute_plan(plan, run_info=info, on_pane=panes.append)
        assert panes == []
        assert ("columnar_fallback" in info) == (feed == "shim")
        # The ordered stream runs, on the same plan shape.
        results, _cluster = execute_plan(replace(plan, source=ListSource(stream)))
        assert len(results) == 4 + (engine != "pipelined")

    def test_pre_start_timestamp_rejected_by_batcher(self):
        with pytest.raises(ValueError):
            list(Batcher(1.0, start=10.0).batches([(5.0, "x")]))

    def test_window_not_multiple_of_batch(self):
        with pytest.raises(ValueError):
            SlidingWindower(10.0, 3.0, 2.0)

    def test_system_slide_not_multiple_of_interval(self):
        stream = [(0.5, ("A", 1.0)), (6.0, ("A", 2.0))]
        system = SparkStreamApproxSystem(
            QUERY, WindowConfig(10.0, 5.0), SystemConfig(batch_interval=0.4)
        )
        with pytest.raises(ValueError):
            system.run(stream)


class TestNumericEdges:
    def test_zero_valued_stream(self):
        stream = [(0.1 * i, ("A", 0.0)) for i in range(1, 300)]
        report = SparkStreamApproxSystem(QUERY, WINDOW, SystemConfig()).run(stream)
        for pane in report.results:
            assert pane.estimate == 0.0
            # accuracy_loss is undefined against an exact 0 (None, not inf).
            assert pane.accuracy_loss is None

    def test_negative_values(self):
        rng = random.Random(2)
        stream = [(0.01 * i, ("A", rng.gauss(-100, 5))) for i in range(1, 2000)]
        report = SparkStreamApproxSystem(QUERY, WINDOW, SystemConfig()).run(stream)
        for pane in report.results:
            assert pane.accuracy_loss < 0.05

    def test_huge_values_no_overflow(self):
        stream = [(0.01 * i, ("A", 1e15)) for i in range(1, 1000)]
        sample = oasrs_sample([it for _ts, it in stream], 50, key_fn=KEY, rng=random.Random(3))
        est = approximate_sum(sample, VAL).value
        assert est == pytest.approx(999 * 1e15, rel=1e-9)
