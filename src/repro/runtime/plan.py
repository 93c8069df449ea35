"""`ExecutionPlan` and the planner — the declarative half of the runtime.

A plan is the full description of one run: *source* → *windower* →
*sampling stage* → *estimator* → *report*, plus the engine that executes
it.  `build_plan` assembles and validates one from the same three
configuration objects every system has always taken (`StreamQuery`,
`WindowConfig`, `SystemConfig`), a `PlanSource`, an engine name, and a
sampling-strategy name:

* ``engine = "batched"``   — micro-batch panes on the Spark-style engine
  (`repro.engine.batched`),
* ``engine = "pipelined"`` — the Flink-style event-time loop of
  `repro.runtime.driver`: items (or ``chunk_size`` runs) pushed through
  the sampler, intervals and panes closed by watermarks,
* ``engine = "direct"``    — this repo's own executor: the sampling stack
  straight over slide intervals, no engine simulation in the hot loop.

Validation happens *here*, at plan-build time, with messages naming the
offending combination — not deep inside a run loop.  Genuinely
unsupported combinations (a batch-only strategy on the pipelined engine,
``parallelism`` with a strategy that cannot shard) raise `PlanError`
instead of being silently ignored.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from .config import StreamQuery, SystemConfig, WindowConfig
from .source import ListSource, PlanSource

__all__ = ["ENGINES", "PlanError", "ExecutionPlan", "build_plan"]

#: The execution engines the driver knows how to run a plan on.
ENGINES = ("batched", "pipelined", "direct")


class PlanError(ValueError):
    """An invalid or unsupported `ExecutionPlan` combination."""


@dataclass(frozen=True)
class ExecutionPlan:
    """One validated, executable run description.

    Built by `build_plan`; executed by `repro.runtime.driver.execute_plan`.
    The seven ``repro.system`` classes are thin declarative configs that
    produce exactly one of these per run.

    Example
    -------
    >>> from repro.runtime.config import StreamQuery
    >>> plan = build_plan(
    ...     query=StreamQuery(key_fn=lambda it: it[0], value_fn=lambda it: it[1]),
    ...     engine="pipelined", strategy="oasrs", name="demo")
    >>> plan.engine, plan.strategy
    ('pipelined', 'oasrs')
    """

    query: StreamQuery
    window: WindowConfig
    config: SystemConfig
    engine: str
    strategy: str
    source: PlanSource = field(default_factory=lambda: ListSource([]))
    name: str = ""

    def with_source(self, source: PlanSource) -> "ExecutionPlan":
        """The same plan reading from a different source."""
        return replace(self, source=source)


def build_plan(
    query: StreamQuery,
    window: Optional[WindowConfig] = None,
    config: Optional[SystemConfig] = None,
    engine: str = "batched",
    strategy: str = "none",
    source: Optional[PlanSource] = None,
    name: str = "",
) -> ExecutionPlan:
    """Assemble and validate an `ExecutionPlan`.

    Raises `PlanError` — with a message naming the offending combination —
    for unknown engines/strategies, a strategy the engine cannot drive,
    ``parallelism > 1`` with a strategy that cannot shard, a query
    ``budget`` with the ``none`` strategy (nothing samples, so nothing can
    adapt) or with a confidence level different from the run's, and batched
    windowing parameters that do not tile into micro-batches.
    """
    from .strategies import get_strategy  # deferred: strategies import this module

    window = window if window is not None else WindowConfig()
    config = config if config is not None else SystemConfig()
    if engine not in ENGINES:
        raise PlanError(
            f"unknown engine {engine!r}; available: {', '.join(ENGINES)}"
        )
    strat = get_strategy(strategy)
    if engine not in strat.engines:
        raise PlanError(
            f"sampling strategy {strategy!r} cannot run on the {engine!r} engine "
            f"(supported: {', '.join(sorted(strat.engines))}); "
            "batch-only strategies need the whole micro-batch materialised "
            "before sampling"
        )
    # Interval engines drive strategies through interval_sampler; a sampling
    # strategy that cannot provide one must not silently fall back to the
    # exact pass-through path.
    if engine == "direct" and not strat.samples_intervals:
        raise PlanError(
            f"the 'direct' engine requires an interval-sampling strategy; "
            f"{strategy!r} does not set samples_intervals"
        )
    if engine == "pipelined" and strategy != "none" and not strat.samples_intervals:
        raise PlanError(
            f"sampling strategy {strategy!r} declares the pipelined engine but "
            "does not sample intervals; set samples_intervals = True and "
            "implement interval_sampler"
        )
    if config.budget is not None:
        from ..core.budget import AccuracyBudget  # local: keep plan deps narrow

        if strategy == "none":
            raise PlanError(
                f"a query budget ({type(config.budget).__name__}) requires a "
                "sampling strategy; strategy 'none' processes every item and "
                "has no sample size to adapt (use 'srs', 'sts', or 'oasrs')"
            )
        if (
            isinstance(config.budget, AccuracyBudget)
            and abs(config.budget.confidence - config.confidence) > 1e-9
        ):
            raise PlanError(
                f"AccuracyBudget confidence ({config.budget.confidence}) must "
                f"match the run's confidence ({config.confidence}); the §4.2 "
                "feedback loop compares the budget's target margin against "
                "the margins measured at the run's confidence level"
            )
    if config.parallelism > 1 and not strat.supports_parallelism:
        raise PlanError(
            f"parallelism={config.parallelism} is not supported with the "
            f"{strategy!r} strategy: only reservoir-based strategies shard "
            "without synchronization (use strategy 'oasrs', or parallelism=1)"
        )
    if config.checkpoint is not None:
        plan_source = source if source is not None else ListSource([])
        if not plan_source.replayable:
            raise PlanError(
                "checkpointing requires a replayable source: resume replays "
                "the stream from the checkpointed offset, which a "
                f"{type(plan_source).__name__} cannot reproduce (use a "
                "ListSource, or a TopicSource with rewind=True so the "
                "broker's topic-global seq restores the production order)"
            )
    if config.faults is not None and (
        config.parallelism <= 1 or not strat.supports_parallelism
    ):
        raise PlanError(
            "fault injection (SystemConfig.faults) kills shard workers, so it "
            f"requires parallelism >= 2 with a shardable strategy; got "
            f"parallelism={config.parallelism} with strategy {strategy!r}"
        )
    if engine == "batched":
        ratio = window.slide / config.batch_interval
        if abs(ratio - round(ratio)) > 1e-9:
            raise PlanError(
                f"window slide ({window.slide}) must be a whole multiple of "
                f"the batch interval ({config.batch_interval}) on the batched "
                "engine, so panes fire on micro-batch boundaries"
            )
    return ExecutionPlan(
        query=query,
        window=window,
        config=config,
        engine=engine,
        strategy=strategy,
        source=source if source is not None else ListSource([]),
        name=name,
    )
