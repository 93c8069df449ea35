"""The unified driver — one run loop per engine, shared by every system.

`execute_plan` takes a validated `ExecutionPlan` and runs it end to end:
drain the plan's source, window the stream, drive the bound sampling
strategy, estimate each pane, and return ``(results, cluster)``.  Before
the runtime existed, each of the seven ``repro.system`` classes carried
its own copy of this loop; they are now thin declarative configs and the
three loops below are the only ones in the codebase:

* `run_batched` — micro-batch skeleton (§5.5): chop the stream into
  ``batch_interval`` batches, call the strategy's ``sample_batch`` for
  each, fire a sliding-window pane every ``slide`` seconds by merging the
  in-window batch samples.
* `run_pipelined` — push-based dataflow: items flow through operators one
  at a time (or in ``chunk_size`` runs); interval-sampling strategies
  insert the OASRS operator (§4.2.2), ``none`` aggregates exact panes.
* `run_direct` — this repo's own executor: the sampling stack straight
  over slide-sized intervals with no engine simulation in the hot loop,
  pooling per-interval sufficient statistics into pane estimates.

``chunk_size`` and ``parallelism`` are honoured uniformly: the planner
has already rejected combinations the strategy cannot support, so every
loop here can assume its plan is runnable.

**Fault tolerance as a runtime service.**  With
``SystemConfig(checkpoint=CheckpointPolicy(...))`` every loop snapshots
its full state (bound strategy, interval sampler, budget controller,
window history) into a `repro.runtime.checkpoint.CheckpointStore` at pane
boundaries — the only points where the sampling stack is quiescent.
``execute_plan(resume_from=a_checkpoint)`` restores that state and
replays the source from the checkpointed offset (exact re-ordering
guaranteed by the source's replayability contract — the broker's
topic-global ``seq`` for `TopicSource`), producing remaining panes
bitwise identical to an uninterrupted run.  Worker-loss events injected
by ``SystemConfig(faults=...)`` are drained from the sharded executors at
every pane close and attached to the pane's `WindowResult.recovery`.
"""

from __future__ import annotations

import math
import os
import time
from bisect import bisect_left
from collections import deque
from dataclasses import replace
from operator import itemgetter
from typing import Callable, List, Optional, Sequence, Tuple

from ..core._vector import np as _np
from ..core.error import estimate_error
from ..core.query import QueryResult, StratumStats
from ..core.records import RecordBatch, item_key, item_value
from ..core.strata import WeightedSample, combine_worker_samples, stratum_weight
from ..engine.batched.context import StreamingContext
from ..engine.batched.dstream import Batcher
from ..engine.cluster import SimulatedCluster
from ..engine.pipelined.dataflow import Pipeline
from ..obs import NULL_METRICS, NULL_PANE_TIMER, NULL_TRACER, run_telemetry
from .checkpoint import (
    CheckpointStore,
    PaneCheckpoint,
    controller_state,
    interval_sampler_state,
    restore_controller,
    restore_interval_sampler,
)
from .control import AdaptationPoint, BudgetController
from .plan import ExecutionPlan, PlanError
from .report import WindowResult, estimate_pane, estimate_pane_stats
from .strategies import full_weight_sample, get_strategy

__all__ = ["execute_plan", "run_batched", "run_pipelined", "run_direct"]

HandleBatch = Callable[[StreamingContext, Sequence[object]], WeightedSample]

#: Items scanned to estimate the stratum count for the first interval's
#: budget split — a prefix only, because scanning every item of a large
#: stream just to count sources would dominate the hot loop.
_STRATA_HINT_PREFIX = 20_000


def _per_slide_items(stream, window) -> float:
    """Expected items per slide interval, from the stream's arrival rate.

    The observed timestamp span ``last_ts − first_ts`` covers only
    ``n − 1`` inter-arrival gaps, so dividing ``n`` items by it
    overestimates the rate by ``n/(n−1)`` — for a stream that tiles its
    slides exactly (regular arrivals over a whole number of slides) that
    fencepost inflates the per-slide estimate, and with it every sample
    budget derived from it.  Scaling the span by ``n/(n−1)`` (equivalently:
    ``n − 1`` items over the span) restores the exact rate for regular
    streams and is an O(1/n) correction for irregular ones.
    """
    n = len(stream)
    if n == 0:
        return 1.0
    span = stream[-1][0] - stream[0][0]
    if n == 1 or span <= 0.0:
        # One item, or all items share a timestamp: one interval's worth.
        return float(n)
    # min(n, ·) mirrors the old ``max(span, slide)`` clamp: a stream shorter
    # than one slide contributes all its items to a single interval.
    return min(float(n), (n - 1) * window.slide / span)


def _interval_budget(stream, window, config) -> int:
    """Per-slide-interval sample budget for the interval engines.

    fraction × expected items per slide, estimated from the stream's
    average arrival rate — shared by the pipelined and direct engines so
    the same `SystemConfig` always samples at the same fraction.
    """
    return max(1, int(config.sampling_fraction * _per_slide_items(stream, window)))


def _make_controller(plan: ExecutionPlan, telemetry=None) -> Optional[BudgetController]:
    """The run's budget controller, or None for fixed-fraction plans."""
    if plan.config.budget is None:
        return None
    controller = BudgetController(plan.config.budget, plan.config, plan.window)
    if telemetry is not None:
        controller.attach_telemetry(telemetry)
    return controller


def _telemetry_setup(plan: ExecutionPlan, run_info: Optional[dict]):
    """Resolve the plan's telemetry into ``(collector, pane timer, tracer)``.

    Returns ``(None, NULL_PANE_TIMER, NULL_TRACER)`` when telemetry is off,
    so the run loops instrument unconditionally: every timer/tracer call on
    the disabled path is a no-op method on a shared singleton — no branches
    and no dict lookups inside the loops, per-interval granularity only.
    The live collector is surfaced through ``run_info["telemetry"]``, the
    same channel as ``parallel_fallback``/``columnar_fallback``, and lands
    on ``SystemReport.telemetry``.
    """
    telemetry = run_telemetry(plan.config.telemetry)
    if telemetry is None:
        return None, NULL_PANE_TIMER, NULL_TRACER
    if run_info is not None:
        run_info["telemetry"] = telemetry
    return telemetry, telemetry.pane_timer(), telemetry.tracer


def _strata_hint(stream, key_fn) -> int:
    """Stratum-count hint from a bounded prefix of the stream.

    Only seeds the *first* interval's equal split (§2.3: the sub-stream
    sources are declared at the aggregator); water-filling re-derives
    capacities from real counters at every interval close, so a stratum
    first appearing after the prefix merely shares the first interval's
    budget one way rather than another.  (The pre-runtime pipelined system
    scanned the whole stream for this hint; the cap trades that O(n) pass
    for first-interval-only hint noise on >20k-item streams.)

    Column-backed streams with the canonical key projection count distinct
    interned codes over the prefix instead of hashing items one by one —
    same count, one vectorized pass.
    """
    if (
        _np is not None
        and key_fn is item_key
        and isinstance(stream, RecordBatch)
        and stream.has_columns
    ):
        codes = stream.codes[:_STRATA_HINT_PREFIX]
        return max(1, int(_np.unique(codes).size)) if codes.size else 1
    return max(
        1, len({key_fn(item) for _ts, item in stream[:_STRATA_HINT_PREFIX]})
    )


def _record_stream(source) -> RecordBatch:
    """Drain a plan source as one `RecordBatch` (the drivers' native form).

    Sources deliver the stream as column-backed batches (``batches()``);
    most produce exactly one, which passes through untouched — for a
    `repro.runtime.source.ListSource` this is the *same object* every run,
    so cached columns are shared.  Multi-batch sources are concatenated in
    order (the columns rebuild lazily over the union).
    """
    batches = source.batches()
    if len(batches) == 1:
        return batches[0]
    merged = RecordBatch()
    for batch in batches:
        merged.extend(batch)
    return merged


def _columnar_reason(stream, query) -> Optional[str]:
    """Why this run cannot take the columnar record path (None when it can).

    The columnar path is on by default and engages when NumPy is present,
    the stream's item columns built (plain ``(hashable key, float)``
    2-tuples), and the query's projections are the canonical
    `repro.core.records.item_key` / `repro.core.records.item_value`
    (identity comparison — a custom callable could observe anything about
    the item object, so it forces the per-item shim).  The returned reason
    is surfaced as ``SystemReport.columnar_fallback``, mirroring
    ``parallel_fallback``: the run still completes, identically, via the
    per-item shim.
    """
    if os.environ.get("REPRO_NO_COLUMNAR"):
        return "columnar path disabled via REPRO_NO_COLUMNAR"
    if _np is None:
        return "numpy unavailable"
    if not isinstance(stream, RecordBatch):
        return "stream is not a RecordBatch"
    if not (query.key_fn is item_key and query.value_fn is item_value):
        return "custom key/value projections (per-item shim)"
    return stream.columnar_reason


def _note_columnar(run_info: Optional[dict], reason: Optional[str]) -> None:
    """Record the columnar-fallback reason in the run diagnostics."""
    if run_info is not None and reason:
        run_info["columnar_fallback"] = reason


def _intern_projections(stream, plan: ExecutionPlan):
    """Intern custom query projections so the run takes the columnar path.

    Custom ``key_fn``/``value_fn`` callables (the Spark/Flink baselines'
    ``flow_protocol``-style accessors) historically forced the per-item
    shim.  When the stream is a `RecordBatch`, this applies both
    projections once up front (`RecordBatch.project`, cached on the batch)
    and rewrites the plan to the canonical projections over the projected
    events — after which every driver, sampler, and estimator sees a plain
    ``(hashable, float)`` columnar stream.  Sampling decisions and
    estimates are bitwise identical: the RNG stream depends only on
    stratum membership order and counts, both unchanged, and the floats
    aggregated are the very objects the shim's per-item calls would have
    produced.

    Returns ``(stream, plan)`` untouched whenever interning cannot apply:
    canonical projections already (nothing to do), the columnar path is
    off (``REPRO_NO_COLUMNAR`` / no NumPy), a ``group_fn`` other than the
    key projection is set (a third independent projection the two interned
    columns cannot express), or the projections themselves are not
    columnar-representable (`RecordBatch.project` returned None) — in
    which case the per-item shim proceeds exactly as before, with
    ``columnar_fallback`` surfacing the reason.
    """
    query = plan.query
    if query.key_fn is item_key and query.value_fn is item_value:
        return stream, plan
    if _np is None or os.environ.get("REPRO_NO_COLUMNAR"):
        return stream, plan
    if not isinstance(stream, RecordBatch):
        return stream, plan
    if query.group_fn is not None and query.group_fn is not query.key_fn:
        return stream, plan
    projected = stream.project(query.key_fn, query.value_fn)
    if projected is None:
        return stream, plan
    interned = replace(
        query,
        key_fn=item_key,
        value_fn=item_value,
        group_fn=item_key if query.group_fn is not None else None,
    )
    return projected, replace(plan, query=interned)


def _checkpoint_setup(
    plan: ExecutionPlan, checkpoint_store: Optional[CheckpointStore]
) -> Tuple[Optional[CheckpointStore], int]:
    """Resolve the run's checkpoint store and cadence from the plan.

    Returns ``(None, 1)`` when checkpointing is off.  Re-validates source
    replayability here as a backstop: `ExecutionPlan.with_source` swaps
    sources through ``dataclasses.replace`` without re-running the
    planner's checks.
    """
    policy = plan.config.checkpoint
    if policy is None:
        return None, 1
    if not plan.source.replayable:
        raise PlanError(
            "checkpointing requires a replayable source: resume replays the "
            "stream from the checkpointed offset, which a "
            f"{type(plan.source).__name__} cannot reproduce"
        )
    store = checkpoint_store if checkpoint_store is not None else CheckpointStore()
    return store, policy.every


def _validate_resume(
    plan: ExecutionPlan, checkpoint: PaneCheckpoint, n_events: int
) -> None:
    """Reject checkpoints that cannot have come from this plan's run."""
    if checkpoint.engine != plan.engine or checkpoint.strategy != plan.strategy:
        raise PlanError(
            f"checkpoint was taken by a {checkpoint.engine!r}/"
            f"{checkpoint.strategy!r} run and cannot resume a "
            f"{plan.engine!r}/{plan.strategy!r} plan"
        )
    if checkpoint.stream_position > n_events:
        raise PlanError(
            f"checkpoint stream position {checkpoint.stream_position} lies "
            f"beyond the source's {n_events} events; the replayed source must "
            "cover at least the checkpointed prefix"
        )


def execute_plan(
    plan: ExecutionPlan,
    handle_batch: Optional[HandleBatch] = None,
    adaptation_log: Optional[List[AdaptationPoint]] = None,
    checkpoint_store: Optional[CheckpointStore] = None,
    resume_from: Optional[PaneCheckpoint] = None,
    run_info: Optional[dict] = None,
    on_pane: Optional[Callable[[WindowResult], None]] = None,
) -> Tuple[List[WindowResult], SimulatedCluster]:
    """Run a plan on its engine; returns (pane results, charged cluster).

    ``handle_batch`` overrides the batched engine's per-batch sampling
    hook — the extension point `repro.system.spark_base.BatchedSystem`
    uses for ad-hoc experimental systems.  ``adaptation_log``, when given,
    receives the budget controller's per-interval `AdaptationPoint`s for
    budget-driven plans (it stays empty for fixed-fraction plans).

    ``checkpoint_store`` receives pane-boundary `PaneCheckpoint`s when the
    plan's config sets a `CheckpointPolicy`; ``resume_from`` restores one
    such checkpoint and continues mid-stream — the remaining panes are
    bitwise identical to the uninterrupted run's.

    ``run_info``, when given, collects run diagnostics the result tuple
    has no room for — currently ``"parallel_fallback"``, the reason a
    ``parallelism > 1`` plan degraded to in-process sampling (absent when
    the worker pool stayed healthy), ``"columnar_fallback"``,
    ``"telemetry"`` (the live `repro.obs.RunTelemetry` when the config
    enables it), and ``"sampled_total"`` — the items the sampling stage
    actually kept across the run's intervals, the measured actual the
    serving layer's settle-up reconciles against its pre-run cost
    estimate.

    ``on_pane``, when given, is called with each `WindowResult` the moment
    its pane closes — the streaming hook the serving layer
    (`repro.service`) uses to push per-pane answers to tenants while the
    run is still in flight.  Resumed runs do not re-deliver panes restored
    from the checkpoint.  The callback runs inline on the driver's thread;
    it must not block.
    """
    if plan.engine == "batched":
        return run_batched(
            plan,
            handle_batch=handle_batch,
            adaptation_log=adaptation_log,
            checkpoint_store=checkpoint_store,
            resume_from=resume_from,
            run_info=run_info,
            on_pane=on_pane,
        )
    if handle_batch is not None:
        raise PlanError("handle_batch overrides only apply to the batched engine")
    if plan.engine == "pipelined":
        return run_pipelined(
            plan,
            adaptation_log=adaptation_log,
            checkpoint_store=checkpoint_store,
            resume_from=resume_from,
            run_info=run_info,
            on_pane=on_pane,
        )
    if plan.engine == "direct":
        results, cluster, _sampling_seconds = run_direct(
            plan,
            adaptation_log=adaptation_log,
            checkpoint_store=checkpoint_store,
            resume_from=resume_from,
            run_info=run_info,
            on_pane=on_pane,
        )
        return results, cluster
    raise PlanError(f"unknown engine {plan.engine!r}")


def _finish_run(bound_strategy, run_info: Optional[dict]) -> None:
    """Shared driver epilogue: report diagnostics, drain worker pools.

    Runs in each loop's ``finally`` so the persistent shard pool is
    released on success *and* on error/crash paths; the fallback reason is
    read first because ``close`` is allowed to forget it.
    """
    if bound_strategy is None:
        return
    if run_info is not None:
        reason = bound_strategy.parallel_fallback()
        if reason:
            run_info["parallel_fallback"] = reason
    bound_strategy.close()


# ---------------------------------------------------------------------------
# Batched engine (Spark-Streaming-style micro-batches)
# ---------------------------------------------------------------------------


def run_batched(
    plan: ExecutionPlan,
    handle_batch: Optional[HandleBatch] = None,
    adaptation_log: Optional[List[AdaptationPoint]] = None,
    checkpoint_store: Optional[CheckpointStore] = None,
    resume_from: Optional[PaneCheckpoint] = None,
    run_info: Optional[dict] = None,
    on_pane: Optional[Callable[[WindowResult], None]] = None,
) -> Tuple[List[WindowResult], SimulatedCluster]:
    """Micro-batch loop: per-batch sampling, per-slide pane estimation.

    Budget-driven plans add a control step at every pane close: the pane's
    stratum statistics and measured margin go through the
    `BudgetController`, and the resulting per-interval sample budget is
    re-expressed as the sampling fraction the strategy applies to the
    following micro-batches.

    Checkpoints capture the bound strategy (RNG + policy + sampler), the
    controller, and the in-window batch-sample history; resume replays
    micro-batches from the checkpointed pane boundary (``Batcher`` started
    at ``pane_end`` over the unconsumed stream suffix).
    """
    stream = _record_stream(plan.source)
    if handle_batch is None:
        # An ad-hoc handle_batch observes raw items; only strategy-driven
        # runs may substitute the projected stream.
        stream, plan = _intern_projections(stream, plan)
    config, window, query = plan.config, plan.window, plan.query
    ctx = StreamingContext(
        batch_interval=config.batch_interval,
        nodes=config.nodes,
        cores_per_node=config.cores_per_node,
        costs=config.costs,
    )
    bound_strategy = None
    columnar_reason = _columnar_reason(stream, query)
    if handle_batch is None:
        bound_strategy = get_strategy(plan.strategy).bind(plan)
        handle_batch = bound_strategy.sample_batch
    elif columnar_reason is None:
        # An ad-hoc sampling hook can observe anything about its items, so
        # it gets the classic tuple-of-items micro-batches.
        columnar_reason = "ad-hoc handle_batch override (per-item shim)"
    _note_columnar(run_info, columnar_reason)
    telemetry, timer, trace = _telemetry_setup(plan, run_info)
    if bound_strategy is not None:
        bound_strategy.attach_telemetry(telemetry)
    metrics = telemetry.metrics if telemetry is not None else NULL_METRICS
    observed_counter = metrics.counter("items.observed")
    kept_counter = metrics.counter("items.sampled")
    pane_counter = metrics.counter("panes")
    store, every = _checkpoint_setup(plan, checkpoint_store)
    if (store is not None or resume_from is not None) and bound_strategy is None:
        raise PlanError(
            "checkpoint/resume requires a registered sampling strategy; an "
            "ad-hoc handle_batch override carries state the runtime cannot "
            "snapshot"
        )
    controller = _make_controller(plan, telemetry)
    if controller is not None and bound_strategy is not None:
        # Seed the first interval's fraction from the budget (latency and
        # resource budgets bind before any pane has been observed).
        per_slide_est = _per_slide_items(stream, window)
        initial_total = controller.initial_total(int(per_slide_est))
        bound_strategy.set_sampling_fraction(initial_total / max(1.0, per_slide_est))
    per_slide = int(round(window.slide / config.batch_interval))
    per_window = int(round(window.length / config.batch_interval))

    history: List[WeightedSample] = []
    results: List[WindowResult] = []
    consumed = 0
    pane_index = 0
    if resume_from is not None:
        _validate_resume(plan, resume_from, len(stream))
        state = resume_from.state
        bound_strategy.restore(state["strategy"])
        if controller is not None and state["controller"] is not None:
            restore_controller(controller, state["controller"])
        history = list(state["history"])
        results = list(resume_from.results)
        consumed = resume_from.stream_position
        pane_index = resume_from.pane_index
        # Micro-batches restart at the checkpointed pane boundary: batch
        # ends stay absolute (Batcher's start offsets them) and the pane
        # fires every per_slide batches exactly as the uninterrupted run's
        # global batch indexing would.
        batcher = Batcher(config.batch_interval, start=resume_from.pane_end)
        feed = stream[consumed:]
    else:
        batcher = ctx.batcher()
        feed = stream
    # Columnar micro-batching: boundaries via searchsorted on the cached
    # timestamp column, micro-batch items as zero-copy column views —
    # bitwise-identical batch tiling (see `Batcher.batches_columnar`).
    # Resume replays the stream suffix (a plain list) through the classic
    # per-item batcher; results are identical either way.
    if columnar_reason is None and resume_from is None:
        batch_iter = batcher.batches_columnar(feed)
    else:
        batch_iter = batcher.batches(feed)
    sampled_total = 0
    try:
        trace.begin(
            "run", system=plan.name, engine="batched", strategy=plan.strategy
        )
        timer.open()
        for batch in batch_iter:
            timer.lap("ingest")
            batch_sample = handle_batch(ctx, batch.items)
            history.append(batch_sample)
            timer.lap("offer")
            sampled_total += batch_sample.total_items
            observed_counter.inc(len(batch.items))
            kept_counter.inc(batch_sample.total_items)
            consumed += len(batch.items)
            if len(history) > per_window:
                del history[: len(history) - per_window]
            if (batch.index + 1) % per_slide == 0:
                pane_sample = combine_worker_samples(history[-per_window:])
                estimate, bound, groups, strata = estimate_pane_stats(
                    pane_sample, query, config.confidence
                )
                if controller is not None:
                    next_total = controller.on_pane(
                        strata, bound, pane_sample.total_count
                    )
                    if bound_strategy is not None:
                        observed = controller.last_point.observed_items
                        bound_strategy.set_sampling_fraction(
                            min(1.0, next_total / max(1, observed))
                        )
                recovery = (
                    tuple(bound_strategy.drain_recovery_events())
                    if bound_strategy is not None
                    else ()
                )
                results.append(
                    WindowResult(
                        end=batch.end,
                        estimate=estimate,
                        exact=None,
                        error=bound,
                        groups=groups,
                        sampled_items=pane_sample.total_items,
                        total_items=pane_sample.total_count,
                        recovery=recovery,
                    )
                )
                # Released before the next micro-batch is sampled; the batch
                # samples it was merged from live on in history.
                del pane_sample
                if on_pane is not None:
                    on_pane(results[-1])
                pane_index += 1
                pane_counter.inc()
                timer.lap("estimate")
                if store is not None and pane_index % every == 0:
                    # ``consumed`` counts only items in yielded batches; the
                    # boundary-crossing trigger item sits in the batcher's
                    # buffer, so the position is exactly the first event with
                    # ts >= this pane's end.
                    store.save(
                        PaneCheckpoint(
                            plan_name=plan.name,
                            engine=plan.engine,
                            strategy=plan.strategy,
                            pane_index=pane_index,
                            pane_end=batch.end,
                            stream_position=consumed,
                            results=tuple(results),
                            state={
                                "strategy": bound_strategy.state(),
                                "controller": (
                                    controller_state(controller)
                                    if controller is not None
                                    else None
                                ),
                                "history": tuple(history),
                            },
                        )
                    )
                    timer.lap("checkpoint")
                timer.close(pane_index, end=batch.end)
                timer.open()
    finally:
        _finish_run(bound_strategy, run_info)
        trace.close()
    if run_info is not None:
        run_info["sampled_total"] = sampled_total
    if controller is not None and adaptation_log is not None:
        adaptation_log.extend(controller.trajectory)
    return results, ctx.cluster


# ---------------------------------------------------------------------------
# Pipelined engine (Flink-style push-based operators)
# ---------------------------------------------------------------------------


def run_pipelined(
    plan: ExecutionPlan,
    adaptation_log: Optional[List[AdaptationPoint]] = None,
    checkpoint_store: Optional[CheckpointStore] = None,
    resume_from: Optional[PaneCheckpoint] = None,
    run_info: Optional[dict] = None,
    on_pane: Optional[Callable[[WindowResult], None]] = None,
) -> Tuple[List[WindowResult], SimulatedCluster]:
    """Operator pipeline: per-item (or chunked) flow, panes at watermarks.

    Budget-driven plans run the control step inside the pane aggregation:
    each fired pane's statistics re-derive the shared water-filling
    policy's budget before the sampling operator opens the next interval.

    Checkpoints are taken in the window operator's pane hook (sampled
    path) or the pane aggregation itself (exact path); resume preloads the
    operator's window state and restarts the dataflow at the checkpointed
    pane boundary over the unconsumed stream suffix.
    """
    stream = _record_stream(plan.source)
    stream, plan = _intern_projections(stream, plan)
    config, window, query = plan.config, plan.window, plan.query
    cluster = SimulatedCluster(
        nodes=config.nodes, cores_per_node=config.cores_per_node, costs=config.costs
    )
    confidence = config.confidence
    columnar_reason = _columnar_reason(stream, query)
    _note_columnar(run_info, columnar_reason)
    use_columns = columnar_reason is None
    telemetry, timer, trace = _telemetry_setup(plan, run_info)
    metrics = telemetry.metrics if telemetry is not None else NULL_METRICS
    observed_counter = metrics.counter("items.observed")
    kept_counter = metrics.counter("items.sampled")
    pane_counter = metrics.counter("panes")
    bound_strategy = get_strategy(plan.strategy).bind(plan)
    bound_strategy.attach_telemetry(telemetry)
    controller = _make_controller(plan, telemetry)
    store, every = _checkpoint_setup(plan, checkpoint_store)
    if resume_from is not None:
        _validate_resume(plan, resume_from, len(stream))
    last_ts = stream[-1][0] if stream else 0.0
    timestamp_of = itemgetter(0)
    prior_results: List[WindowResult] = (
        list(resume_from.results) if resume_from is not None else []
    )
    # Pane bookkeeping shared by the operator hooks (closures cannot rebind
    # locals of this frame).
    pane_meta = {
        "index": resume_from.pane_index if resume_from is not None else 0,
        "emitted": list(prior_results),
        "value": None,
    }
    # Telemetry cells shared by the operator hooks: pane ordinal for the
    # pane timer, kept-count accumulator for the settle-up ledger.
    tel_pane = [0]
    kept_cell = [0]

    try:
        trace.begin(
            "run", system=plan.name, engine="pipelined", strategy=plan.strategy
        )
        if bound_strategy.samples_intervals:
            if controller is not None:
                initial = controller.initial_total(int(_per_slide_items(stream, window)))
            else:
                initial = _interval_budget(stream, window, config)
            # §2.3: sub-stream sources are declared at the aggregator; give the
            # allocator the stratum count so the first interval splits fairly.
            sampler = bound_strategy.interval_sampler(
                initial,
                _strata_hint(stream, query.key_fn) if stream else 1,
            )
            op_start = 0.0
            preload = None
            feed = stream
            if resume_from is not None:
                state = resume_from.state
                bound_strategy.restore(state["strategy"])
                restore_interval_sampler(sampler, state["sampler"])
                if controller is not None and state["controller"] is not None:
                    restore_controller(controller, state["controller"])
                preload = list(state["recent"])
                op_start = resume_from.pane_end
                feed = stream[resume_from.stream_position :]

            def count_kept(sample):
                kept = sample.total_items
                kept_cell[0] += kept
                kept_counter.inc(kept)
                return kept

            def aggregate_samples(merged):
                timer.open()
                estimate, bound, groups, strata = estimate_pane_stats(
                    merged, query, confidence
                )
                if controller is not None:
                    bound_strategy.set_interval_budget(
                        controller.on_pane(strata, bound, merged.total_count)
                    )
                recovery = tuple(bound_strategy.drain_recovery_events())
                timer.lap("estimate")
                tel_pane[0] += 1
                pane_counter.inc()
                timer.close(tel_pane[0])
                value = (
                    estimate, bound, groups, merged.total_items, merged.total_count,
                    recovery,
                )
                pane_meta["value"] = value
                return value

            state_hook = None
            if store is not None or on_pane is not None:

                def state_hook(ts, recent):
                    if ts > last_ts:
                        return  # end-of-stream flush pane: dropped below too
                    estimate, bound, groups, kept, total, recovery = pane_meta["value"]
                    pane_meta["index"] += 1
                    pane_meta["emitted"].append(
                        WindowResult(
                            end=ts,
                            estimate=estimate,
                            exact=None,
                            error=bound,
                            groups=groups,
                            sampled_items=kept,
                            total_items=total,
                            recovery=recovery,
                        )
                    )
                    if on_pane is not None:
                        on_pane(pane_meta["emitted"][-1])
                    if store is None or pane_meta["index"] % every:
                        return
                    save_started = (
                        time.perf_counter() if telemetry is not None else 0.0
                    )
                    store.save(
                        PaneCheckpoint(
                            plan_name=plan.name,
                            engine=plan.engine,
                            strategy=plan.strategy,
                            pane_index=pane_meta["index"],
                            pane_end=ts,
                            stream_position=bisect_left(stream, ts, key=timestamp_of),
                            results=tuple(pane_meta["emitted"]),
                            state={
                                "strategy": bound_strategy.state(),
                                "sampler": interval_sampler_state(sampler),
                                "controller": (
                                    controller_state(controller)
                                    if controller is not None
                                    else None
                                ),
                                "recent": tuple(recent),
                            },
                        )
                    )
                    if telemetry is not None:
                        telemetry.note_stage(
                            "checkpoint", save_started, time.perf_counter()
                        )

            observed_counter.inc(len(feed))
            raw = (
                Pipeline(cluster)
                .sample_oasrs(sampler, slide=window.slide, start=op_start)
                .charge(count_fn=count_kept)
                .window_samples(
                    intervals_per_window=window.intervals_per_window,
                    aggregate=aggregate_samples,
                    charge_processing=False,
                    preload=preload,
                    state_hook=state_hook,
                )
                .sink_collect()
                .run(feed, chunk_size=config.chunk_size, columnar=use_columns)
            )
            records = [
                (ts, estimate, bound, groups, kept, total, recovery)
                for ts, (estimate, bound, groups, kept, total, recovery) in raw
            ]
        else:
            op_start = 0.0
            preload = None
            feed = stream
            if resume_from is not None:
                state = resume_from.state
                bound_strategy.restore(state["strategy"])
                preload = list(state["pane_items"])
                op_start = resume_from.pane_end
                feed = stream[resume_from.stream_position :]

            def aggregate_exact(pane_items):
                timer.open()
                sample = full_weight_sample([item for _ts, item in pane_items], query.key_fn)
                estimate, bound, groups = estimate_pane(sample, query, confidence)
                timer.lap("estimate")
                if store is not None or on_pane is not None:
                    # Sliding-window panes fire at consecutive slide multiples
                    # from the operator's start, so the pane count recovers the
                    # absolute fire time the aggregate callback never sees.
                    pane_meta["index"] += 1
                    end = op_start + (pane_meta["index"] - pane_meta["base"]) * window.slide
                    if end <= last_ts:
                        pane_meta["emitted"].append(
                            WindowResult(
                                end=end,
                                estimate=estimate,
                                exact=None,
                                error=bound,
                                groups=groups,
                                sampled_items=sample.total_items,
                                total_items=sample.total_items,
                            )
                        )
                        if on_pane is not None:
                            on_pane(pane_meta["emitted"][-1])
                        if store is not None and pane_meta["index"] % every == 0:
                            store.save(
                                PaneCheckpoint(
                                    plan_name=plan.name,
                                    engine=plan.engine,
                                    strategy=plan.strategy,
                                    pane_index=pane_meta["index"],
                                    pane_end=end,
                                    stream_position=bisect_left(
                                        stream, end, key=timestamp_of
                                    ),
                                    results=tuple(pane_meta["emitted"]),
                                    state={
                                        "strategy": bound_strategy.state(),
                                        "pane_items": tuple(pane_items),
                                    },
                                )
                            )
                            timer.lap("checkpoint")
                tel_pane[0] += 1
                pane_counter.inc()
                timer.close(tel_pane[0])
                return estimate, bound, groups, sample.total_items

            pane_meta["base"] = pane_meta["index"]
            # The exact path consumes every item at full weight: its sample
            # cost *is* the stream.
            kept_cell[0] = len(feed)
            observed_counter.inc(len(feed))
            kept_counter.inc(len(feed))
            raw = (
                Pipeline(cluster)
                .charge()  # per-item query processing, charged exactly once
                .window(
                    length=window.length,
                    slide=window.slide,
                    aggregate=aggregate_exact,
                    start=op_start,
                    charge_processing=False,
                    preload=preload,
                )
                .sink_collect()
                .run(feed, chunk_size=config.chunk_size, columnar=use_columns)
            )
            records = [
                (ts, estimate, bound, groups, n, n, ())
                for ts, (estimate, bound, groups, n) in raw
            ]

    finally:
        _finish_run(bound_strategy, run_info)
        trace.close()
    if run_info is not None:
        run_info["sampled_total"] = kept_cell[0]

    # Drop the end-of-stream flush pane (it covers a partial interval beyond
    # the last watermark); the batched engine emits no such pane, so keeping
    # it would skew cross-system accuracy comparisons.
    results: List[WindowResult] = list(prior_results)
    for ts, estimate, bound, groups, kept, total, recovery in records:
        if ts > last_ts:
            continue
        results.append(
            WindowResult(
                end=ts,
                estimate=estimate,
                exact=None,
                error=bound,
                groups=groups,
                sampled_items=kept,
                total_items=total,
                recovery=recovery,
            )
        )
    if controller is not None and adaptation_log is not None:
        adaptation_log.extend(controller.trajectory[: len(results)])
    return results, cluster


# ---------------------------------------------------------------------------
# Direct engine (the repo's own chunked/sharded executor)
# ---------------------------------------------------------------------------


def _interval_moments(sample, value_fn):
    """Per-stratum sufficient statistics (y, c, Σv, Σv²) of one interval.

    Computed once when the interval closes; panes pool these instead of
    re-scanning every sampled item per pane — batch-level accounting in the
    estimation layer, matching the chunk-level accounting in the samplers.

    Members that carry their value column (`StratumSample.value_array`)
    are read as that array, with no detour through Python floats; item
    tuples under the canonical projection are pulled out in one C-level
    pass (``fromiter`` over the second tuple slot).  The array holds the
    identical doubles either way, so sums and squares are bitwise
    unchanged.
    """
    moments = []
    value_of = itemgetter(1)
    for stratum in sample:
        items = stratum.items
        y = len(items)
        if y == 0:
            continue
        if _np is not None and y >= 1024:
            array = stratum.value_array(value_fn)
            if array is None and value_fn is item_value:
                array = _np.fromiter(
                    map(value_of, items), dtype=_np.float64, count=y
                )
            elif array is None:
                array = _np.asarray([value_fn(x) for x in items], dtype=_np.float64)
            total = float(array.sum())
            sumsq = float(_np.dot(array, array))
        else:
            raw = getattr(items, "value_list", None)
            if raw is not None and value_fn is item_value:
                values = raw()
            else:
                values = [value_fn(x) for x in items]
            total = math.fsum(values)
            sumsq = math.fsum(v * v for v in values)
        moments.append((stratum.key, y, stratum.count, total, sumsq))
    return moments


def _pane_stats(moment_sets) -> List[StratumStats]:
    """Pool interval moments into the pane's per-stratum `StratumStats`.

    Counts and sums add across intervals; the pooled unbiased variance
    comes from the summed squares (Equation 7 on the concatenated sample),
    and the pooled Equation-1 weight re-derives as ΣC / ΣY — algebraically
    identical to merging the samples and recomputing.
    """
    pooled = {}
    for moments in moment_sets:
        for key, y, c, total, sumsq in moments:
            if key in pooled:
                py, pc, pt, ps = pooled[key]
                pooled[key] = (py + y, pc + c, pt + total, ps + sumsq)
            else:
                pooled[key] = (y, c, total, sumsq)
    strata = []
    for key, (y, c, total, sumsq) in pooled.items():
        mean = total / y if y else 0.0
        variance = (
            max(0.0, (sumsq - y * mean * mean) / (y - 1)) if y > 1 else 0.0
        )
        strata.append(
            StratumStats(
                key=key, y=y, c=c, weight=stratum_weight(c, y),
                total=total, mean=mean, variance=variance,
            )
        )
    return strata


def run_direct(
    plan: ExecutionPlan,
    adaptation_log: Optional[List[AdaptationPoint]] = None,
    checkpoint_store: Optional[CheckpointStore] = None,
    resume_from: Optional[PaneCheckpoint] = None,
    run_info: Optional[dict] = None,
    on_pane: Optional[Callable[[WindowResult], None]] = None,
) -> Tuple[List[WindowResult], SimulatedCluster, float]:
    """Interval loop over the raw sampling stack; no engine in the hot path.

    Returns ``(results, cluster, sampling_seconds)`` where the last element
    is the wall time spent inside the sampling path itself (the
    offer/process_chunk/shard section) — the number the chunked and sharded
    fast paths improve, reported by
    `repro.system.native.NativeStreamApproxSystem.timed_execute`.

    Sharded samplers get the stream pinned up front (``pin_source``), so
    the persistent worker pool forks with the stream already in memory and
    each interval crosses the process boundary as a ``[lo, hi)`` index
    span; the pool spawns on the first parallel interval and is drained in
    the loop's ``finally``.

    Checkpoints capture the interval sampler (in-process or sharded), the
    bound strategy, the controller, and the in-window interval history;
    resume restarts the interval loop at the checkpointed boundary.
    """
    stream = _record_stream(plan.source)
    stream, plan = _intern_projections(stream, plan)
    config, window, query = plan.config, plan.window, plan.query
    cluster = SimulatedCluster(
        nodes=config.nodes, cores_per_node=config.cores_per_node, costs=config.costs
    )
    results: List[WindowResult] = []
    if not stream:
        if resume_from is not None:
            results = list(resume_from.results)
        return results, cluster, 0.0
    columnar_reason = _columnar_reason(stream, query)
    _note_columnar(run_info, columnar_reason)
    # Columnar hot loop: interval boundaries from searchsorted on the
    # timestamp column, chunk feeding through zero-copy column views.
    ts_col = stream.ts if columnar_reason is None else None
    telemetry, timer, trace = _telemetry_setup(plan, run_info)
    metrics = telemetry.metrics if telemetry is not None else NULL_METRICS
    observed_counter = metrics.counter("items.observed")
    kept_counter = metrics.counter("items.sampled")
    pane_counter = metrics.counter("panes")
    controller = _make_controller(plan, telemetry)
    if controller is not None:
        initial = controller.initial_total(int(_per_slide_items(stream, window)))
    else:
        initial = _interval_budget(stream, window, config)
    # Per-interval budget shared with the pipelined engine, with the
    # declared strata splitting the first interval's allocation.
    bound_strategy = get_strategy(plan.strategy).bind(plan)
    bound_strategy.attach_telemetry(telemetry)
    sampler = bound_strategy.interval_sampler(
        initial, _strata_hint(stream, query.key_fn)
    )
    # Sharded samplers expose whole-interval entry points; use them to skip
    # the per-item offer buffering (the executor chunks internally).  With
    # the stream pinned before the pool spawns, forked workers inherit it
    # and an interval is addressed by its index span alone.
    run_interval = getattr(sampler, "run_interval", None)
    run_span = getattr(sampler, "run_interval_span", None)
    if run_span is not None:
        sampler.pin_source(stream)
    # Stage label for the sampling section: the sharded entry points cross
    # the worker-pool transport; the in-process paths are plain offers.
    sampling_stage = "transport" if run_interval is not None else "offer"
    store, every = _checkpoint_setup(plan, checkpoint_store)

    chunk = config.chunk_size
    history = deque(maxlen=window.intervals_per_window)
    sampling_seconds = 0.0
    # Slide-interval boundaries via bisection on the (ordered) timestamps
    # instead of a per-item batching loop; pane ends match `Batcher`'s
    # (every slide multiple, items with ts == boundary go to the next
    # interval, final partial interval keeps its nominal end).
    n = len(stream)
    slide = window.slide
    timestamp_of = itemgetter(0)
    start_idx = 0
    boundary = slide
    pane_index = 0
    if resume_from is not None:
        _validate_resume(plan, resume_from, n)
        state = resume_from.state
        bound_strategy.restore(state["strategy"])
        restore_interval_sampler(sampler, state["sampler"])
        if controller is not None and state["controller"] is not None:
            restore_controller(controller, state["controller"])
        history.extend(state["history"])
        results = list(resume_from.results)
        start_idx = resume_from.stream_position
        boundary = resume_from.pane_end + slide
        pane_index = resume_from.pane_index
    sampled_total = 0
    try:
        trace.begin(
            "run", system=plan.name, engine="direct", strategy=plan.strategy
        )
        while start_idx < n:
            timer.open()
            if ts_col is not None:
                # Equivalent to the bisect below: the column holds the very
                # same float timestamps, "left" matches bisect_left.
                end_idx = int(_np.searchsorted(ts_col, boundary, side="left"))
            else:
                end_idx = bisect_left(
                    stream, boundary, lo=start_idx, key=timestamp_of
                )
            lo = start_idx
            start_idx = end_idx
            pane_end = boundary
            boundary += slide
            cluster.sample_items(end_idx - lo, "oasrs")
            timer.lap("ingest")
            sampling_started = time.perf_counter()
            if run_span is not None:
                # Span-addressed sharding: no item materialization here at all;
                # pooled workers slice their shard from the pinned stream.
                sample = run_span(lo, end_idx)
            elif run_interval is not None:
                if ts_col is not None:
                    sample = run_interval(stream.item_slice(lo, end_idx))
                else:
                    sample = run_interval([item for _ts, item in stream[lo:end_idx]])
            elif chunk > 1 and end_idx - lo > 1:
                process_chunk = sampler.process_chunk
                if ts_col is not None:
                    # Column hand-off: each chunk is a zero-copy view; the
                    # sampler's columnar kernel groups strata by interned
                    # code with the same first-appearance order (and RNG
                    # stream) as the per-item dict grouping.
                    view = stream.item_slice(lo, end_idx)
                    for start in range(0, end_idx - lo, chunk):
                        process_chunk(view[start : start + chunk])
                else:
                    items = [item for _ts, item in stream[lo:end_idx]]
                    for start in range(0, len(items), chunk):
                        process_chunk(items[start : start + chunk])
                sample = sampler.close_interval()
            else:
                offer = sampler.offer
                for _ts, item in stream[lo:end_idx]:
                    offer(item)
                sample = sampler.close_interval()
            sampling_seconds += time.perf_counter() - sampling_started
            timer.lap(sampling_stage)
            sampled_total += sample.total_items
            observed_counter.inc(end_idx - lo)
            kept_counter.inc(sample.total_items)
            cluster.process_items(sample.total_items)
            if query.group_fn is None and query.kind != "quantile":
                # Moment path: pool per-interval sufficient statistics — no
                # per-pane re-scan of the sampled items.  Quantiles need the
                # kept values themselves (an order statistic has no pooled
                # sufficient statistics), so they take the merge path below.
                history.append(_interval_moments(sample, query.value_fn))
                strata = _pane_stats(history)
                population = sum(s.c for s in strata)
                weighted_total = math.fsum(s.total * s.weight for s in strata)
                if query.kind == "sum":
                    value = weighted_total
                else:
                    value = weighted_total / population if population else 0.0
                bound = estimate_error(
                    QueryResult(value=value, strata=strata, kind=query.kind),
                    confidence=config.confidence,
                )
                groups = {}
                sampled = sum(s.y for s in strata)
            else:
                # Grouped queries need the items themselves: merge samples
                # and evaluate through the shared estimation path.
                history.append(sample)
                merged = combine_worker_samples(list(history))
                value, bound, groups, strata = estimate_pane_stats(
                    merged, query, config.confidence
                )
                population = merged.total_count
                sampled = merged.total_items
                # The pane's merged arrays are dead weight while the next
                # interval is sampled; the interval runs live on in history.
                del merged
            if controller is not None:
                # §4.2 feedback: re-derive the next interval's budget from this
                # pane's statistics; the shared water-filling policy propagates
                # it to the in-process and sharded samplers alike.
                bound_strategy.set_interval_budget(
                    controller.on_pane(strata, bound, population)
                )
            recovery = tuple(bound_strategy.drain_recovery_events())
            timer.lap("estimate")
            results.append(
                WindowResult(
                    end=pane_end,
                    estimate=value,
                    exact=None,
                    error=bound,
                    groups=groups,
                    sampled_items=sampled,
                    total_items=population,
                    recovery=recovery,
                )
            )
            if on_pane is not None:
                on_pane(results[-1])
            pane_index += 1
            pane_counter.inc()
            if store is not None and pane_index % every == 0:
                store.save(
                    PaneCheckpoint(
                        plan_name=plan.name,
                        engine=plan.engine,
                        strategy=plan.strategy,
                        pane_index=pane_index,
                        pane_end=pane_end,
                        stream_position=start_idx,
                        results=tuple(results),
                        state={
                            "strategy": bound_strategy.state(),
                            "sampler": interval_sampler_state(sampler),
                            "controller": (
                                controller_state(controller)
                                if controller is not None
                                else None
                            ),
                            "history": tuple(history),
                        },
                    )
                )
                timer.lap("checkpoint")
            timer.close(pane_index, end=pane_end)
    finally:
        _finish_run(bound_strategy, run_info)
        trace.close()
    if run_info is not None:
        run_info["sampled_total"] = sampled_total
    if controller is not None and adaptation_log is not None:
        adaptation_log.extend(controller.trajectory)
    return results, cluster, sampling_seconds
