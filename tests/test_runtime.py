"""Unit tests for the unified execution runtime (plan / strategies / driver)."""

from dataclasses import replace

import pytest

from repro.runtime import (
    ENGINES,
    ListSource,
    PlanError,
    SamplingStrategy,
    available_strategies,
    build_plan,
    execute_plan,
    get_strategy,
)
from repro.system import (
    ALL_SYSTEMS,
    FlinkStreamApproxSystem,
    NativeStreamApproxSystem,
    SparkSRSSystem,
    SparkSTSSystem,
    SparkStreamApproxSystem,
    StreamQuery,
    SystemConfig,
    WindowConfig,
)
from repro.system.spark_base import BatchedSystem, full_weight_sample
from repro.workloads.synthetic import stream_by_rates

KEY = lambda it: it[0]  # noqa: E731
VAL = lambda it: it[1]  # noqa: E731

QUERY = StreamQuery(key_fn=KEY, value_fn=VAL, kind="mean")
WINDOW = WindowConfig(10.0, 5.0)


@pytest.fixture(scope="module")
def stream():
    return stream_by_rates({"A": 1500, "B": 400, "C": 30}, duration=12, seed=11)


class TestPlanner:
    def test_all_seven_systems_declare_valid_plans(self):
        classes = list(ALL_SYSTEMS.values()) + [NativeStreamApproxSystem]
        for cls in classes:
            plan = cls(QUERY, WINDOW, SystemConfig()).plan()
            assert plan.engine in ENGINES
            assert plan.strategy in available_strategies()
            assert plan.name == cls.name

    def test_unknown_engine_rejected(self):
        with pytest.raises(PlanError, match="unknown engine"):
            build_plan(query=QUERY, engine="lambda", strategy="oasrs")

    def test_unknown_strategy_rejected(self):
        with pytest.raises(PlanError, match="unknown sampling strategy"):
            build_plan(query=QUERY, engine="batched", strategy="zipf")

    @pytest.mark.parametrize("strategy", ["srs", "sts"])
    def test_batch_only_strategies_rejected_on_pipelined(self, strategy):
        with pytest.raises(PlanError, match="cannot run on the 'pipelined' engine"):
            build_plan(query=QUERY, engine="pipelined", strategy=strategy)

    @pytest.mark.parametrize(
        "engine,match",
        [
            ("pipelined", "does not sample intervals"),
            ("direct", "requires an interval-sampling"),
        ],
    )
    def test_interval_engines_reject_non_interval_strategies(self, engine, match):
        """A sampling strategy on an interval engine cannot silently fall
        back to the exact pass-through path."""
        from repro.runtime import register_strategy
        from repro.runtime.strategies import _REGISTRY

        @register_strategy
        class BatchOnlyEverywhere(SamplingStrategy):
            name = "batch-only-test"
            engines = frozenset({"batched", "pipelined", "direct"})

            def bind(self, plan):  # pragma: no cover - planner rejects first
                raise AssertionError

        try:
            with pytest.raises(PlanError, match=match):
                build_plan(query=QUERY, engine=engine, strategy="batch-only-test")
        finally:
            _REGISTRY.pop("batch-only-test", None)

    @pytest.mark.parametrize("strategy", ["none", "srs", "sts"])
    def test_parallelism_rejected_for_unshardable_strategies(self, strategy):
        engine = "batched"
        with pytest.raises(PlanError, match="parallelism=4 is not supported"):
            build_plan(
                query=QUERY,
                engine=engine,
                strategy=strategy,
                config=SystemConfig(parallelism=4),
            )

    def test_parallelism_accepted_for_oasrs_on_every_engine(self):
        for engine in ENGINES:
            plan = build_plan(
                query=QUERY,
                engine=engine,
                strategy="oasrs",
                config=SystemConfig(parallelism=4),
            )
            assert plan.config.parallelism == 4

    def test_batched_slide_must_tile_into_batches(self):
        with pytest.raises(PlanError, match="whole multiple of the batch interval"):
            build_plan(
                query=QUERY,
                engine="batched",
                strategy="oasrs",
                window=WindowConfig(5.0, 2.5),
                config=SystemConfig(batch_interval=2.0),
            )

    def test_with_source_rebinds_only_the_source(self, stream):
        plan = build_plan(query=QUERY, engine="direct", strategy="oasrs")
        rebound = plan.with_source(ListSource(stream))
        assert rebound.source.events() is stream
        assert rebound.strategy == plan.strategy and rebound.engine == plan.engine


class TestStrategyRegistry:
    def test_builtin_strategies_registered(self):
        assert available_strategies() == ["none", "oasrs", "srs", "sts"]

    def test_only_oasrs_shards_and_samples_intervals(self):
        for name in available_strategies():
            strat = get_strategy(name)
            assert strat.supports_parallelism == (name == "oasrs")
            assert strat.samples_intervals == (name == "oasrs")

    def test_custom_strategy_registers_and_runs(self, stream):
        from repro.runtime import register_strategy
        from repro.runtime.strategies import _REGISTRY, BoundStrategy

        @register_strategy
        class KeepAllStrategy(SamplingStrategy):
            name = "keep-all-test"
            engines = frozenset({"batched"})

            def bind(self, plan):
                outer = self

                class _Bound(BoundStrategy):
                    def sample_batch(self, ctx, items):
                        ctx.rdd_of(items).process_all()
                        return full_weight_sample(items, plan.query.key_fn)

                return _Bound(outer, plan)

        try:
            plan = build_plan(
                query=QUERY, window=WINDOW, engine="batched",
                strategy="keep-all-test", source=ListSource(stream),
            )
            results, cluster = execute_plan(plan)
            assert results and cluster.elapsed() > 0
            # Full-weight strata: exact estimation, zero-width bounds.
            assert all(r.error.margin == pytest.approx(0.0) for r in results)
        finally:
            _REGISTRY.pop("keep-all-test", None)


    @pytest.mark.parametrize("chunk_size", [0, 256])
    @pytest.mark.parametrize("engine", ["direct", "pipelined"])
    def test_custom_strategy_needs_only_interval_sampler(self, stream, engine, chunk_size):
        """A third-party interval strategy supplies its sampler and nothing
        else: the base class feeds, closes and releases it on every engine."""
        import random

        from repro.core.oasrs import OASRSSampler, WaterFillingAllocation
        from repro.runtime import register_strategy
        from repro.runtime.strategies import _REGISTRY, BoundStrategy

        class Counting:
            def __init__(self, inner):
                self.inner, self.offered, self.closed = inner, 0, 0

            def offer(self, item):
                self.offered += 1
                self.inner.offer(item)

            def offer_many(self, items):
                self.offered += len(items)
                self.inner.offer_many(items)

            def process_chunk(self, items):
                self.offered += len(items)
                return self.inner.process_chunk(items)

            def close_interval(self):
                self.closed += 1
                return self.inner.close_interval()

        built = []

        @register_strategy
        class CountingStrategy(SamplingStrategy):
            name = "counting-test"
            engines = frozenset({"direct", "pipelined"})
            samples_intervals = True

            def bind(self, plan):
                class _Bound(BoundStrategy):
                    def interval_sampler(self, budget, strata_hint):
                        policy = WaterFillingAllocation(budget, expected_strata=strata_hint)
                        built.append(
                            Counting(
                                OASRSSampler(
                                    policy,
                                    key_fn=plan.query.key_fn,
                                    rng=random.Random(plan.config.seed),
                                )
                            )
                        )
                        return built[-1]

                return _Bound(self, plan)

        def run(strategy):
            plan = build_plan(
                query=QUERY, window=WINDOW, engine=engine, strategy=strategy,
                config=SystemConfig(sampling_fraction=0.4, seed=5, chunk_size=chunk_size),
                source=ListSource(stream),
            )
            return execute_plan(plan)[0]

        try:
            results = run("counting-test")
        finally:
            _REGISTRY.pop("counting-test", None)
        (sampler,) = built
        assert sampler.offered == len(stream)
        assert sampler.closed >= len(results) >= 2
        # Same policy, seed and feed as the built-in strategy: same panes.
        assert results == run("oasrs")


class TestChunkedEverywhere:
    """chunk_size now applies to every system (satellite: no silent ignore)."""

    @pytest.mark.parametrize("cls", [SparkSRSSystem, SparkSTSSystem])
    def test_chunked_spark_baselines_stay_accurate(self, stream, cls):
        config = SystemConfig(sampling_fraction=0.5, chunk_size=512)
        report = cls(QUERY, WINDOW, config).run(stream)
        assert report.results
        for pane in report.results:
            assert pane.accuracy_loss is not None and pane.accuracy_loss < 0.25
            # A real sample was taken, not a full pass.
            assert 0 < pane.sampled_items < pane.total_items

    @pytest.mark.parametrize("cls", [SparkSRSSystem, SparkSTSSystem])
    def test_chunked_sample_sizes_match_per_item_sizes(self, stream, cls):
        base = cls(QUERY, WINDOW, SystemConfig(sampling_fraction=0.4)).run(stream)
        chunked = cls(
            QUERY, WINDOW, SystemConfig(sampling_fraction=0.4, chunk_size=256)
        ).run(stream)
        for a, b in zip(base.results, chunked.results):
            assert a.total_items == b.total_items
            # Exact-size samplers: deterministic sample sizes either path.
            assert a.sampled_items == pytest.approx(b.sampled_items, rel=0.02)


    @pytest.mark.parametrize("cls", [SparkSRSSystem, SparkSTSSystem])
    def test_chunk_size_changes_no_srs_or_sts_output(self, stream, cls):
        """``chunk_size`` is honoured structurally by the Spark baselines,
        exactly as by ``none``: no second sampler implementation behind it."""
        config = SystemConfig(sampling_fraction=0.4, seed=9)
        base = cls(QUERY, WINDOW, config).run(stream)
        chunked = cls(QUERY, WINDOW, replace(config, chunk_size=256)).run(stream)
        assert chunked.results == base.results
        assert chunked.throughput == base.throughput


class TestParallelismEverywhere:
    """parallelism shards every OASRS system's interval sampling."""

    @pytest.mark.parametrize(
        "cls",
        [SparkStreamApproxSystem, FlinkStreamApproxSystem, NativeStreamApproxSystem],
    )
    def test_sharded_run_stays_accurate(self, stream, cls):
        config = SystemConfig(sampling_fraction=0.5, parallelism=3)
        report = cls(QUERY, WINDOW, config).run(stream)
        assert report.results
        assert report.mean_accuracy_loss() < 0.1
        for pane in report.results:
            assert 0 < pane.sampled_items < pane.total_items


class TestStrataHint:
    """The interval engines' stratum-count hint scans a bounded prefix.

    Documented behavior (see `repro.runtime.driver._Run.sampler`): the hint
    seeds only the *first* interval's equal budget split; water-filling
    re-derives capacities from real counters at every interval close.  The
    pre-runtime pipelined system scanned the whole stream for this hint —
    the cap is a deliberate O(n)-scan removal, pinned here so the tradeoff
    stays visible.
    """

    @pytest.mark.parametrize("engine", ["direct", "pipelined"])
    def test_prefix_cap_excludes_late_strata(self, monkeypatch, engine):
        from repro.runtime.driver import _STRATA_HINT_PREFIX
        from repro.runtime.strategies import _BoundOASRS

        hints = []
        build = _BoundOASRS.interval_sampler

        def spy(self, budget, strata_hint):
            hints.append(strata_hint)
            return build(self, budget, strata_hint)

        monkeypatch.setattr(_BoundOASRS, "interval_sampler", spy)
        late = [(i / 1000.0, ("A" if i % 2 else "B", 1.0)) for i in range(25_000)]
        late.append((26.0, ("D", 1.0)))  # first appears after the prefix
        early = late[: _STRATA_HINT_PREFIX - 1] + [late[-1]]
        for events in (late, early):
            execute_plan(
                build_plan(
                    query=QUERY, window=WINDOW, engine=engine,
                    strategy="oasrs", source=ListSource(events),
                )
            )
        # One sampler per run, sized from the prefix alone.
        assert hints == [2, 3]

    def test_late_stratum_still_sampled(self):
        """The hint shapes only the first split — a post-prefix stratum is
        still captured by its own reservoir once it arrives."""
        # A fills the first 10 s (past the 20k hint prefix); D then runs
        # 10 s → 16 s so the pane ending at 15 s fires before end-of-stream.
        stream = [(i / 2500.0, ("A", 1.0)) for i in range(25_000)]
        stream += [(10.0 + i / 400.0, ("D", 5.0)) for i in range(2_400)]
        report = FlinkStreamApproxSystem(
            StreamQuery(key_fn=KEY, value_fn=VAL, kind="mean", group_fn=KEY),
            WindowConfig(5.0, 5.0),
            SystemConfig(sampling_fraction=0.3),
        ).run(stream)
        assert any("D" in pane.groups for pane in report.results)


class TestDirectDriver:
    def test_direct_run_reports_sampling_seconds(self, stream):
        plan = build_plan(
            query=QUERY, window=WINDOW, engine="direct", strategy="oasrs",
            config=SystemConfig(sampling_fraction=0.5),
            source=ListSource(stream),
        )
        info = {}
        results, cluster = execute_plan(plan, run_info=info)
        assert results
        assert info["sampling_seconds"] > 0
        assert 0 < info["sampled_total"] <= len(stream)
        assert cluster.elapsed() > 0

    def test_empty_stream(self):
        plan = build_plan(
            query=QUERY, window=WINDOW, engine="direct", strategy="oasrs",
            source=ListSource([]),
        )
        info = {}
        results, _cluster = execute_plan(plan, run_info=info)
        assert results == [] and info["sampling_seconds"] == 0.0


def run_plan(stream, strategy="oasrs", chunk_size=0, engine="pipelined"):
    plan = build_plan(
        query=QUERY, window=WINDOW, engine=engine, strategy=strategy,
        config=SystemConfig(sampling_fraction=0.3, seed=4, chunk_size=chunk_size),
        source=ListSource(stream),
    )
    info = {}
    results, cluster = execute_plan(plan, run_info=info)
    return results, cluster, info


class TestPipelinedDriver:
    """The Flink-style event-time loop: what each run and pane costs."""

    @pytest.mark.parametrize("strategy", ["oasrs", "none"])
    @pytest.mark.parametrize("chunk_size", [0, 256])
    def test_no_batch_overheads(self, stream, strategy, chunk_size):
        """Structural Flink property: no jobs, tasks, RDDs or barriers."""
        _results, cluster, _info = run_plan(stream, strategy, chunk_size)
        s = cluster.stats
        assert (s.jobs_launched, s.tasks_launched, s.rdds_created, s.barriers) == (
            0, 0, 0, 0
        )
        assert s.items_shuffled == 0 and cluster.elapsed() > 0

    @pytest.mark.parametrize("chunk_size", [0, 256])
    def test_every_item_ingested_and_offered(self, stream, chunk_size):
        _results, cluster, _info = run_plan(stream, "oasrs", chunk_size)
        assert cluster.stats.items_ingested == len(stream)
        assert cluster.stats.items_sampled == len(stream)

    def test_processing_covers_kept_items_and_the_unreported_flush(self, stream):
        """Only kept items reach the window, the last partial interval's
        too — though its flush pane is never reported (12 s at slide 5:
        the direct engine reports the pane at 15, this loop does not)."""
        results, cluster, info = run_plan(stream)
        direct, _cluster, direct_info = run_plan(stream, engine="direct")
        assert [r.end for r in direct] == [5.0, 10.0, 15.0]
        assert [r.end for r in results] == [5.0, 10.0]
        assert cluster.stats.items_processed == info["sampled_total"]
        # Same budget, same draws: the flush interval was sampled and charged.
        assert info["sampled_total"] == direct_info["sampled_total"]
        assert info["sampled_total"] > results[-1].sampled_items

    @pytest.mark.parametrize("strategy", ["oasrs", "none"])
    @pytest.mark.parametrize("chunk_size", [0, 1, 7, 256])
    def test_pane_ends_fall_on_slide_multiples(self, strategy, chunk_size):
        late = [(12.5 + 0.01 * i, ("A", float(i % 5))) for i in range(2000)]
        results, _cluster, _info = run_plan(late, strategy, chunk_size)
        # The stream starts inside the third interval and ends at 32.49.
        assert [r.end for r in results] == [5.0, 10.0, 15.0, 20.0, 25.0, 30.0]

    @pytest.mark.parametrize("chunk_size", [0, 256])
    def test_exact_panes_hold_exactly_their_window(self, stream, chunk_size):
        results, cluster, info = run_plan(stream, "none", chunk_size)
        assert cluster.stats.items_processed == len(stream) == info["sampled_total"]
        for pane in results:
            inside = [v for ts, (_k, v) in stream if pane.end - 10.0 <= ts < pane.end]
            assert pane.total_items == pane.sampled_items == len(inside)
            assert pane.estimate == pytest.approx(sum(inside) / len(inside), rel=1e-12)

    @pytest.mark.parametrize("strategy", ["oasrs", "none"])
    @pytest.mark.parametrize("chunk_size", [0, 256])
    def test_empty_stream(self, strategy, chunk_size):
        results, cluster, info = run_plan([], strategy, chunk_size)
        assert results == [] and info["sampled_total"] == 0
        assert cluster.elapsed() == 0.0


class TestBatchedHook:
    def test_handle_batch_subclass_runs_through_runtime(self, stream):
        class EchoSystem(BatchedSystem):
            name = "echo"

            def _handle_batch(self, ctx, items):
                ctx.rdd_of(items).process_all()
                return full_weight_sample(items, self.query.key_fn)

        report = EchoSystem(QUERY, WINDOW, SystemConfig()).run(stream)
        assert report.results
        for pane in report.results:
            assert pane.accuracy_loss == pytest.approx(0.0, abs=1e-9)

    def test_handle_batch_rejected_off_engine(self, stream):
        plan = build_plan(
            query=QUERY, window=WINDOW, engine="pipelined", strategy="none",
            source=ListSource(stream),
        )
        with pytest.raises(PlanError, match="batched engine"):
            execute_plan(plan, handle_batch=lambda ctx, items: None)


class TestConfigValidation:
    """Constructor-time validation with clear messages (satellite task)."""

    def test_window_length_must_tile(self):
        with pytest.raises(ValueError, match="whole multiple of the slide"):
            WindowConfig(length=12.0, slide=5.0)

    def test_confidence_bounds(self):
        with pytest.raises(ValueError, match="confidence"):
            SystemConfig(confidence=1.0)
        with pytest.raises(ValueError, match="confidence"):
            SystemConfig(confidence=0.0)

    def test_chunk_and_parallelism_bounds(self):
        with pytest.raises(ValueError, match="chunk_size"):
            SystemConfig(chunk_size=-1)
        with pytest.raises(ValueError, match="parallelism"):
            SystemConfig(parallelism=0)

    def test_parallelism_bounded_by_the_simulated_cluster(self):
        """The paper's ``w`` workers run on the configured cores."""
        assert SystemConfig(parallelism=8).parallelism == 8  # 1 node x 8 cores
        assert SystemConfig(nodes=2, cores_per_node=3, parallelism=6).parallelism == 6
        with pytest.raises(ValueError, match="parallelism 9 exceeds"):
            SystemConfig(parallelism=9)
        with pytest.raises(ValueError, match="parallelism 7 exceeds"):
            SystemConfig(nodes=2, cores_per_node=3, parallelism=7)

    def test_query_callables(self):
        with pytest.raises(ValueError, match="key_fn"):
            StreamQuery(key_fn="source", value_fn=VAL)
        with pytest.raises(ValueError, match="value_fn"):
            StreamQuery(key_fn=KEY, value_fn=3.0)
        with pytest.raises(ValueError, match="group_fn"):
            StreamQuery(key_fn=KEY, value_fn=VAL, group_fn="borough")
