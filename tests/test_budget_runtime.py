"""Budget-driven adaptive execution through the unified runtime.

Covers the §4.2 control loop end to end — ``SystemConfig(budget=…)`` on
every engine/strategy combination, the planner's budget validation, the
adaptation trajectory surfaced on `SystemReport`, and the two regression
fixes that ride along (the `_interval_budget` fencepost and the
empty-micro-batch budget collapse in the OASRS batched role).
"""

import math

import pytest

from repro.core.budget import AccuracyBudget, LatencyBudget, ResourceBudget
from repro.core.strata import WeightedSample
from repro.engine.batched.context import StreamingContext
from repro.metrics.adaptation import (
    budget_series,
    convergence_interval,
    format_trajectory,
    margin_series,
)
from repro.runtime import PlanError, build_plan
from repro.runtime.driver import _interval_budget, _per_slide_items
from repro.runtime.strategies import get_strategy
from repro.system import (
    FlinkStreamApproxSystem,
    NativeFlinkSystem,
    NativeSparkSystem,
    NativeStreamApproxSystem,
    SparkSRSSystem,
    SparkSTSSystem,
    SparkStreamApproxSystem,
    StreamQuery,
    SystemConfig,
    WindowConfig,
)
from repro.workloads.drift import drifting_stream, rate_swap_schedule

QUERY = StreamQuery(
    key_fn=lambda it: it[0], value_fn=lambda it: it[1], kind="mean", name="t"
)
WINDOW = WindowConfig(length=10.0, slide=5.0)

SAMPLED = [
    SparkStreamApproxSystem,
    FlinkStreamApproxSystem,
    NativeStreamApproxSystem,
    SparkSRSSystem,
    SparkSTSSystem,
]


def drift_stream(seed=3, high=2000, low=40, phase=15.0):
    return drifting_stream(rate_swap_schedule(high, low, phase), seed=seed)


# ---------------------------------------------------------------------------
# Satellite: the _interval_budget fencepost
# ---------------------------------------------------------------------------


class TestIntervalBudgetFencepost:
    def test_exactly_tiling_stream_budget_is_exact(self):
        """Regression: a stream of regular arrivals over a whole number of
        slides used to have its per-slide rate inflated by n/(n−1) — the
        observed span misses one inter-arrival gap — which inflated every
        derived sample budget.  10 items/s over [0, 10) with slide 5 is
        exactly 50 items per slide; at fraction 0.9 the budget must be
        int(0.9 · 50) = 45, not int(0.9 · 50.505…) = 45.45 → 45 … the
        effect shows at 10 items over [0, 10): 5 per slide, budget
        int(0.9 · 5) = 4, where the uncorrected estimate gave
        int(0.9 · 10·5/9) = 5."""
        stream = [(float(i), ("a", 1.0)) for i in range(10)]  # ts 0..9, span 9
        config = SystemConfig(sampling_fraction=0.9)
        assert _per_slide_items(stream, WINDOW) == pytest.approx(5.0)
        assert _interval_budget(stream, WINDOW, config) == 4

    def test_dense_tiling_stream(self):
        # 100 items at exact 0.1 steps over [0, 10): 50 per slide exactly.
        stream = [(i * 0.1, ("a", 1.0)) for i in range(100)]
        assert _per_slide_items(stream, WINDOW) == pytest.approx(50.0)
        config = SystemConfig(sampling_fraction=0.9)
        assert _interval_budget(stream, WINDOW, config) == 45

    def test_degenerate_streams_keep_legacy_semantics(self):
        config = SystemConfig(sampling_fraction=0.5)
        assert _interval_budget([], WINDOW, config) == 1
        assert _interval_budget([(3.0, ("a", 1.0))], WINDOW, config) == 1
        # All items at one timestamp: one interval's worth.
        burst = [(2.0, ("a", 1.0))] * 40
        assert _per_slide_items(burst, WINDOW) == 40.0

    def test_sub_slide_stream_clamped_to_population(self):
        # A stream shorter than one slide never claims more than n per slide.
        stream = [(i * 0.01, ("a", 1.0)) for i in range(20)]
        assert _per_slide_items(stream, WINDOW) == 20.0


# ---------------------------------------------------------------------------
# Satellite: empty micro-batches must not collapse the OASRS batch budget
# ---------------------------------------------------------------------------


class TestEmptyBatchGuard:
    def _bound(self, fraction=0.5):
        plan = build_plan(
            query=QUERY,
            window=WINDOW,
            config=SystemConfig(sampling_fraction=fraction),
            engine="batched",
            strategy="oasrs",
        )
        ctx = StreamingContext(batch_interval=1.0)
        return get_strategy("oasrs").bind(plan), ctx

    @staticmethod
    def _batch(n, offset=0):
        return [("a", float(i + offset)) for i in range(n)]

    def test_empty_batch_returns_empty_sample(self):
        bound, ctx = self._bound()
        sample = bound.sample_batch(ctx, [])
        assert isinstance(sample, WeightedSample)
        assert sample.total_count == 0 and sample.total_items == 0

    def test_empty_batch_does_not_starve_the_next_batch(self):
        """Regression: an empty batch set ``policy.total = 1``; the
        close-interval rebalance then rebuilt every reservoir at ~1 slot,
        so the next batch sampled ~1 item per stratum no matter its size."""
        bound, ctx = self._bound(fraction=0.5)
        first = bound.sample_batch(ctx, self._batch(1000))
        assert first.total_items >= 400  # sanity: ~fraction · batch
        bound.sample_batch(ctx, [])  # the quiet batch
        after = bound.sample_batch(ctx, self._batch(1000, offset=1000))
        assert after.total_items >= 400, (
            f"budget collapsed after an empty batch: kept {after.total_items}"
        )

    def test_empty_batch_charges_nothing(self):
        bound, ctx = self._bound()
        elapsed_before = ctx.cluster.elapsed()
        bound.sample_batch(ctx, [])
        assert ctx.cluster.elapsed() == elapsed_before


# ---------------------------------------------------------------------------
# Planner validation
# ---------------------------------------------------------------------------


class TestBudgetPlanValidation:
    def test_budget_requires_a_sampling_strategy(self):
        with pytest.raises(PlanError, match="requires a sampling strategy"):
            build_plan(
                query=QUERY,
                config=SystemConfig(budget=AccuracyBudget(target_margin=0.1)),
                engine="batched",
                strategy="none",
            )

    def test_confidence_mismatch_rejected(self):
        with pytest.raises(PlanError, match="confidence"):
            build_plan(
                query=QUERY,
                config=SystemConfig(
                    budget=AccuracyBudget(target_margin=0.1, confidence=0.99),
                    confidence=0.95,
                ),
                engine="batched",
                strategy="oasrs",
            )

    @pytest.mark.parametrize("budget", [
        AccuracyBudget(target_margin=0.1),
        LatencyBudget(max_seconds=0.5),
        ResourceBudget(workers=2),
    ])
    @pytest.mark.parametrize("engine,strategy", [
        ("batched", "srs"),
        ("batched", "sts"),
        ("batched", "oasrs"),
        ("pipelined", "oasrs"),
        ("direct", "oasrs"),
    ])
    def test_valid_budget_combinations_build(self, budget, engine, strategy):
        plan = build_plan(
            query=QUERY,
            config=SystemConfig(budget=budget),
            engine=engine,
            strategy=strategy,
        )
        assert plan.config.budget is budget

    def test_budget_type_validated_at_config_construction(self):
        with pytest.raises(ValueError, match="budget must be"):
            SystemConfig(budget=0.5)  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# The control loop end to end
# ---------------------------------------------------------------------------


class TestBudgetDrivenExecution:
    @pytest.mark.parametrize("cls", SAMPLED, ids=lambda c: c.name)
    def test_accuracy_budget_adapts_and_records_trajectory(self, cls):
        stream = drift_stream()
        target = 0.5
        config = SystemConfig(
            sampling_fraction=0.05,  # deliberately starved seed
            budget=AccuracyBudget(target_margin=target),
        )
        report = cls(QUERY, WINDOW, config).run(stream)
        assert report.results, "no panes produced"
        assert len(report.adaptation) == len(report.results)
        # The loop grows from the starved seed: some later interval's budget
        # exceeds the first chosen one.
        budgets = [p.sample_budget for p in report.adaptation]
        assert max(budgets) > budgets[0]
        # …and the run ends meeting the target (reaches AND holds).
        assert convergence_interval(report, target) is not None

    def test_fixed_fraction_records_no_trajectory(self):
        report = NativeStreamApproxSystem(
            QUERY, WINDOW, SystemConfig(sampling_fraction=0.4)
        ).run(drift_stream())
        assert report.adaptation == []

    def test_latency_budget_caps_the_sample(self):
        stream = drift_stream()
        config = SystemConfig(budget=LatencyBudget(max_seconds=0.001))
        report = NativeStreamApproxSystem(QUERY, WINDOW, config).run(stream)
        # capacity = 0.001 s × 8 cores × 100 000 tokens/s = 800 items.
        for point in report.adaptation:
            assert point.sample_budget <= 800 * point.strata
        kept = [r.sampled_items for r in report.results[1:]]
        assert kept and max(kept) <= 2 * 800 * 3  # panes pool 2 intervals

    def test_resource_budget_scales_with_cores(self):
        stream = drift_stream()
        small = NativeStreamApproxSystem(
            QUERY, WINDOW,
            SystemConfig(budget=ResourceBudget(workers=1, cores_per_worker=1)),
        ).run(stream)
        # Budgets derive from capacity; more cores ⇒ at least as many samples.
        big = NativeStreamApproxSystem(
            QUERY, WINDOW,
            SystemConfig(budget=ResourceBudget(workers=4, cores_per_worker=2)),
        ).run(stream)
        assert sum(p.sample_budget for p in big.adaptation) >= sum(
            p.sample_budget for p in small.adaptation
        )

    def test_sharded_path_adapts_too(self):
        """parallelism > 1 routes the re-derived budget through the shared
        water-filling policy into the shard samplers."""
        stream = drift_stream()
        target = 0.5
        config = SystemConfig(
            sampling_fraction=0.05,
            budget=AccuracyBudget(target_margin=target),
            parallelism=2,
        )
        report = NativeStreamApproxSystem(QUERY, WINDOW, config).run(stream)
        budgets = [p.sample_budget for p in report.adaptation]
        assert max(budgets) > budgets[0]
        assert convergence_interval(report, target) is not None

    def test_budget_via_execute_plan_log(self):
        from repro.runtime import ListSource, execute_plan

        stream = drift_stream()
        plan = build_plan(
            query=QUERY,
            window=WINDOW,
            config=SystemConfig(budget=AccuracyBudget(target_margin=0.5)),
            engine="direct",
            strategy="oasrs",
            source=ListSource(stream),
        )
        log = []
        results, _cluster = execute_plan(plan, adaptation_log=log)
        assert len(log) == len(results)
        assert all(p.sample_budget >= 1 for p in log)


# ---------------------------------------------------------------------------
# Trajectory helpers
# ---------------------------------------------------------------------------


class TestAdaptationMetrics:
    def _report(self):
        config = SystemConfig(
            sampling_fraction=0.05, budget=AccuracyBudget(target_margin=0.5)
        )
        return NativeStreamApproxSystem(QUERY, WINDOW, config).run(drift_stream())

    def test_series_shapes(self):
        report = self._report()
        budgets = budget_series(report)
        margins = margin_series(report)
        assert len(budgets) == len(margins) == len(report.adaptation)
        assert all(b >= 1 for _ts, b in budgets)
        assert all(not math.isnan(m) for _ts, m in margins)

    def test_convergence_interval_semantics(self):
        from repro.runtime.control import AdaptationPoint

        def pt(margin):
            return AdaptationPoint(
                interval_end=0.0, sample_budget=1, measured_margin=margin,
                relative_margin=0.0, observed_items=1, strata=1,
            )

        held = [pt(1.0), pt(0.4), pt(0.3)]
        assert convergence_interval(held, 0.5) == 2
        broken = [pt(0.4), pt(1.0), pt(0.3)]
        assert convergence_interval(broken, 0.5) == 3
        never = [pt(1.0), pt(0.9)]
        assert convergence_interval(never, 0.5) is None

    def test_format_trajectory_renders(self):
        report = self._report()
        text = format_trajectory(report, target_margin=0.5)
        assert "interval" in text and "budget" in text
        assert "target margin" in text


# ---------------------------------------------------------------------------
# Unsampled systems reject budgets (completing the seven-system sweep)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("cls", [NativeSparkSystem, NativeFlinkSystem],
                         ids=lambda c: c.name)
def test_native_systems_reject_budgets(cls):
    config = SystemConfig(budget=AccuracyBudget(target_margin=0.1))
    with pytest.raises(PlanError, match="requires a sampling strategy"):
        cls(QUERY, WINDOW, config).run(drift_stream())
