"""StreamApprox reproduction — approximate computing for stream analytics.

A from-scratch Python implementation of *StreamApprox: Approximate
Computing for Stream Analytics* (Quoc et al., Middleware 2017): the OASRS
online adaptive stratified reservoir sampling algorithm, its error-bound
machinery, the batched (Spark-Streaming-like) and pipelined (Flink-like)
stream-processing substrates it runs on, the Spark sampling baselines it
is evaluated against, and the full benchmark harness regenerating every
figure of the paper's evaluation.

Quickstart::

    from repro import (
        FlinkStreamApproxSystem, StreamQuery, SystemConfig, WindowConfig,
    )
    from repro.workloads import stream_by_rates

    stream = stream_by_rates({"A": 800, "B": 200, "C": 10}, duration=60)
    query = StreamQuery(key_fn=lambda it: it[0], value_fn=lambda it: it[1],
                        kind="mean")
    system = FlinkStreamApproxSystem(
        query, WindowConfig(length=10, slide=5),
        SystemConfig(sampling_fraction=0.6),
    )
    report = system.run(stream)
    for pane in report.results:
        print(pane.end, pane.estimate, "±", pane.error.margin)

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
paper-vs-measured record.
"""

from .core import (
    AccuracyBudget,
    AdaptiveSampleSizeController,
    ShardedExecutor,
    ErrorBound,
    FixedPerStratum,
    LatencyBudget,
    OASRSSampler,
    ResourceBudget,
    VirtualCostFunction,
    WaterFillingAllocation,
    WeightedSample,
    approximate_mean,
    approximate_sum,
    estimate_error,
    oasrs_sample,
)
from .runtime import (
    AdaptationPoint,
    BudgetController,
    ExecutionPlan,
    ListSource,
    PlanError,
    PlanSource,
    RunTelemetry,
    SamplingStrategy,
    TelemetryConfig,
    TopicSource,
    available_strategies,
    build_plan,
    execute_plan,
    register_strategy,
)
from .system import (
    ALL_SYSTEMS,
    FlinkStreamApproxSystem,
    NativeFlinkSystem,
    NativeSparkSystem,
    NativeStreamApproxSystem,
    SparkSRSSystem,
    SparkSTSSystem,
    SparkStreamApproxSystem,
    StreamQuery,
    SystemConfig,
    SystemReport,
    WindowConfig,
)

__version__ = "1.0.0"

__all__ = [
    "ALL_SYSTEMS",
    "AccuracyBudget",
    "AdaptationPoint",
    "AdaptiveSampleSizeController",
    "BudgetController",
    "ErrorBound",
    "ExecutionPlan",
    "FixedPerStratum",
    "FlinkStreamApproxSystem",
    "LatencyBudget",
    "ListSource",
    "NativeFlinkSystem",
    "NativeSparkSystem",
    "NativeStreamApproxSystem",
    "OASRSSampler",
    "PlanError",
    "PlanSource",
    "ResourceBudget",
    "RunTelemetry",
    "SamplingStrategy",
    "ShardedExecutor",
    "TelemetryConfig",
    "SparkSRSSystem",
    "SparkSTSSystem",
    "SparkStreamApproxSystem",
    "StreamQuery",
    "SystemConfig",
    "SystemReport",
    "TopicSource",
    "VirtualCostFunction",
    "WaterFillingAllocation",
    "WeightedSample",
    "WindowConfig",
    "approximate_mean",
    "approximate_sum",
    "available_strategies",
    "build_plan",
    "estimate_error",
    "execute_plan",
    "oasrs_sample",
    "register_strategy",
    "__version__",
]
