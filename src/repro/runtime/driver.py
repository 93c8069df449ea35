"""The unified driver — one run context, one pane close, three ingest loops.

`execute_plan` takes a validated `ExecutionPlan` and runs it end to end:
drain the plan's source, window the stream, drive the bound sampling
strategy, estimate each pane, and return ``(results, cluster)``.  The
paper's claim (§4.2, §5) is that one step — sample the slide interval,
estimate the pane, feed the error back into the next budget — drops
unchanged into a micro-batch engine and a pipelined engine; here that
step is written once:

* `_Run` — the run's state, with one owner and one lifecycle:
  `execute_plan` builds it (everything the engines share, resume state
  restored), hands it to the plan's engine, and releases it in its
  ``finally``.
* `_Run.close_pane` — how *every* engine ends a pane: control step →
  result and ``on_pane`` → checkpoint when due → pane-timer row; sampled
  panes get there through `_Run.close_sampled_pane`, the one pane estimate.

What remains per engine is "ingest the next interval" and "what is in
this pane":

* `_ingest_batched` — micro-batches (§5.5, Spark-Streaming-style),
* `_ingest_pipelined` — one event-time loop (§4.2.2, Flink-style): the
  stream charged in ``chunk_size`` runs, intervals and panes closed by
  watermarks,
* `_ingest_direct` — this repo's own executor: the sampling stack straight
  over slide-sized intervals, no engine simulation in the hot loop.

Every engine relies on the stream being time-ordered (boundaries are
binary searches over its timestamps); `_Run` refuses one that is not
before any pane closes.

Every engine hands the sampler each interval (a micro-batch on the
batched engine) in one feed; ``chunk_size`` shapes only the pipelined
engine's charging grid.  ``parallelism`` is honoured uniformly: the
planner has already rejected combinations the strategy cannot support, so
every engine can assume its plan is runnable.

**Fault tolerance as a runtime service.**  With
``SystemConfig(checkpoint=CheckpointPolicy(...))`` `_Run.close_pane`
snapshots the run's full state (the bound strategy with its sampler, the
budget controller, plus the engine's own window history) into a
`repro.runtime.checkpoint.CheckpointStore` at pane boundaries — the only
points where the sampling stack is quiescent.
``execute_plan(resume_from=a_checkpoint)`` restores that state and
replays the source from the checkpointed offset (exact re-ordering
guaranteed by the source's replayability contract — the broker's
topic-global ``seq`` for `TopicSource`), producing remaining panes
bitwise identical to an uninterrupted run.  Worker-loss events injected
by ``SystemConfig(faults=...)`` are drained from the sharded executors at
every pane close and attached to the pane's `WindowResult.recovery`.
"""

from __future__ import annotations

import os
import time
from bisect import bisect_left
from collections import deque
from dataclasses import replace
from functools import partial
from itertools import tee
from operator import gt, itemgetter
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as _np

from ..core.error import estimate_error
from ..core.query import StratumStats, interval_moments, pooled_result
from ..core.records import RecordBatch, item_key, item_value
from ..core.strata import WeightedSample, combine_worker_samples
from ..engine.batched.context import StreamingContext
from ..engine.cluster import SimulatedCluster
from ..obs import NULL_METRICS, NULL_PANE_TIMER, NULL_TRACER, run_telemetry
from .checkpoint import (
    CHECKPOINT_FORMAT,
    CheckpointStore,
    PaneCheckpoint,
    controller_state,
    restore_controller,
)
from .control import AdaptationPoint, BudgetController
from .plan import ExecutionPlan, PlanError
from .report import WindowResult, estimate_pane, estimate_pane_stats
from .strategies import (
    BoundStrategy,
    count_strata,
    full_weight_sample,
    get_strategy,
)

__all__ = ["execute_plan"]

HandleBatch = Callable[[StreamingContext, Sequence[object]], WeightedSample]
_timestamp_of = itemgetter(0)

#: Items scanned to estimate the stratum count for the first interval's
#: budget split — a prefix only, because scanning every item of a large
#: stream just to count sources would dominate the hot loop.  A stratum
#: first appearing after the prefix merely shares the first interval's
#: budget one way rather than another.
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


def _check_order(stream, columnar: bool) -> None:
    """Refuse a stream whose timestamps go backwards (`PlanError`): the
    batch's cached verdict on the column path, else one C-level pass."""
    if columnar:
        ordered = stream.time_ordered
    else:
        earlier, later = tee(map(_timestamp_of, stream))
        next(later, None)
        ordered = not any(map(gt, earlier, later))
    if ordered:
        return
    i = next(i for i in range(1, len(stream)) if stream[i][0] < stream[i - 1][0])
    raise PlanError(
        f"stream is not time-ordered: event {i} at {stream[i][0]} follows "
        f"{stream[i - 1][0]}"
    )


def _first_at(stream, ts_col, t: float, lo: int = 0) -> int:
    """Index of the first event with timestamp ``>= t``; ``ts_col`` holds
    the very same floats, so ``searchsorted``'s "left" is ``bisect_left``."""
    if ts_col is not None:
        return int(_np.searchsorted(ts_col, t, side="left"))
    return bisect_left(stream, t, lo=lo, key=_timestamp_of)


def _items(stream, ts_col, lo: int, hi: int):
    """The items of events ``[lo, hi)``: on the column path a zero-copy
    located view, whose strata the sampler's kernel groups by interned code
    in the per-item path's first-appearance order (and RNG stream)."""
    if ts_col is not None:
        return stream.item_slice(lo, hi)
    return [item for _ts, item in stream[lo:hi]]


def _columnar_gate(stream, plan: ExecutionPlan, intern: bool):
    """The run's one columnar decision: ``(stream, plan, fallback reason)``.

    The columnar path is on by default and engages when the stream's item
    columns are built (plain ``(hashable key, float)``
    2-tuples), and the query's projections are the canonical
    `repro.core.records.item_key` / `repro.core.records.item_value`
    (identity comparison — a custom callable could observe anything about
    the item object, so it forces the per-item shim).  A non-None reason
    is surfaced as ``SystemReport.columnar_fallback``: the run still
    completes, identically, via the per-item shim.

    **Interning.**  Custom ``key_fn``/``value_fn`` callables (the
    Spark/Flink baselines' ``flow_protocol``-style accessors) historically
    forced the shim.  With ``intern`` set this applies both projections
    once up front (`RecordBatch.project`, cached on the batch) and
    rewrites the plan to the canonical projections over the projected
    events — after which every engine, sampler, and estimator sees a plain
    ``(hashable, float)`` columnar stream.  Sampling decisions and
    estimates are bitwise identical: the RNG stream depends only on
    stratum membership order and counts, both unchanged, and the floats
    aggregated are the very objects the shim's per-item calls would have
    produced.  Interning cannot apply when a ``group_fn`` other than the
    key projection is set (a third independent projection the two interned
    columns cannot express) or the projections themselves are not
    columnar-representable (`RecordBatch.project` returned None) — the
    per-item shim then proceeds exactly as before.
    """
    query = plan.query
    if os.environ.get("REPRO_NO_COLUMNAR"):
        return stream, plan, "columnar path disabled via REPRO_NO_COLUMNAR"
    if not isinstance(stream, RecordBatch):
        return stream, plan, "stream is not a RecordBatch"
    canonical = query.key_fn is item_key and query.value_fn is item_value
    if (
        intern
        and not canonical
        and (query.group_fn is None or query.group_fn is query.key_fn)
    ):
        projected = stream.project(query.key_fn, query.value_fn)
        if projected is not None:
            interned = replace(
                query,
                key_fn=item_key,
                value_fn=item_value,
                group_fn=item_key if query.group_fn is not None else None,
            )
            stream, plan, canonical = projected, replace(plan, query=interned), True
    if not canonical:
        return stream, plan, "custom key/value projections (per-item shim)"
    return stream, plan, stream.columnar_reason


def _validate_resume(
    plan: ExecutionPlan, checkpoint: PaneCheckpoint, n_events: int
) -> None:
    """Reject checkpoints that cannot have come from this plan's run."""
    if checkpoint.format != CHECKPOINT_FORMAT:
        raise PlanError(
            f"checkpoint has state format {checkpoint.format}, this runtime "
            f"reads format {CHECKPOINT_FORMAT}; re-run the plan from its start"
        )
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


class _AdHocBatchStrategy(BoundStrategy):
    """A ``handle_batch`` override standing in as the run's bound strategy.

    The hook samples the micro-batches; the rest is the inert base
    behaviour — except snapshots: the hook carries state the runtime cannot
    see, so checkpoint and resume are refused.
    """

    def __init__(self, plan: ExecutionPlan, handle_batch: HandleBatch) -> None:
        super().__init__(get_strategy(plan.strategy), plan)
        self.sample_batch = handle_batch

    def state(self) -> dict:
        raise PlanError(
            "checkpoint/resume requires a registered sampling strategy; an "
            "ad-hoc handle_batch override carries state the runtime cannot "
            "snapshot"
        )

    def restore(self, state: dict) -> None:
        self.state()


class _Run:
    """One run's state: built by `execute_plan`, handed to the engine.

    What the three engines used to set up separately lives here once.
    They read ``stream`` / ``plan`` (after projection interning),
    ``columnar`` (the gate's verdict) and ``ts_col`` (the timestamp column
    on the column path, else None), ``strategy``, ``timer`` (a no-op
    singleton when telemetry is off, so loops instrument unconditionally —
    no branches and no dict lookups per interval), ``resume`` (the
    checkpoint being resumed; its common part — strategy, controller,
    emitted panes, pane index — is already restored) and ``info`` (the
    caller's ``run_info``).
    """

    def __init__(
        self, plan, handle_batch, checkpoint_store, resume_from, run_info, on_pane
    ) -> None:
        self.info = run_info if run_info is not None else {}
        self.on_pane = on_pane
        telemetry = run_telemetry(plan.config.telemetry)
        if telemetry is None:
            self.timer, self.trace, metrics = NULL_PANE_TIMER, NULL_TRACER, NULL_METRICS
        else:
            # Beside the columnar fallback reason; → SystemReport.telemetry.
            self.info["telemetry"] = telemetry
            self.timer, self.trace = telemetry.pane_timer(), telemetry.tracer
            metrics = telemetry.metrics
        self._observed = metrics.counter("items.observed")
        self._kept = metrics.counter("items.sampled")
        self._panes = metrics.counter("panes")
        #: Items the sampling stage kept so far (``run_info["sampled_total"]``).
        self.sampled_total = 0
        # Opened before the source is drained: the column build is a stage too.
        self.trace.begin(
            "run", system=plan.name, engine=plan.engine, strategy=plan.strategy
        )
        self.timer.open()
        try:
            self._bind(plan, telemetry, handle_batch, checkpoint_store, resume_from)
        except BaseException:
            self.trace.close()  # a refused run still leaves a well-formed tree
            raise

    def _bind(self, plan, telemetry, handle_batch, checkpoint_store, resume_from):
        """Drain the source, settle the columnar question, bind the strategy."""
        stream = _record_stream(plan.source)
        # An ad-hoc handle_batch observes raw items — anything about them —
        # so only strategy-driven runs may substitute the projected stream,
        # and the hook gets the classic tuple-of-items micro-batches.
        stream, plan, reason = _columnar_gate(stream, plan, handle_batch is None)
        self.timer.lap("columns")
        if handle_batch is not None and reason is None:
            reason = "ad-hoc handle_batch override (per-item shim)"
        self.stream, self.plan, self.columnar = stream, plan, reason is None
        if reason:
            self.info["columnar_fallback"] = reason
        self.ts_col = stream.ts if self.columnar else None
        _check_order(stream, self.columnar)
        # Decided once: an ungrouped SUM / MEAN pane pools its intervals'
        # moments, grouped and quantile panes need the kept values.
        query = plan.query
        self.pools_moments = query.group_fn is None and query.kind != "quantile"

        if handle_batch is None:
            self.strategy = get_strategy(plan.strategy).bind(plan)
        else:
            self.strategy = _AdHocBatchStrategy(plan, handle_batch)
        self.controller: Optional[BudgetController] = None
        if plan.config.budget is None:
            self.first_budget = _interval_budget(stream, plan.window, plan.config)
        else:
            self.controller = BudgetController(
                plan.config.budget, plan.config, plan.window
            )
            if telemetry is not None:
                self.controller.attach_telemetry(telemetry)
            # Latency and resource budgets bind before any pane has been
            # observed.  Micro-batches take the seed as a fraction now; the
            # interval engines' sampler is built from ``first_budget`` later.
            per_slide = _per_slide_items(stream, plan.window)
            self.first_budget = self.controller.initial_total(int(per_slide))
            self.strategy.set_budget(self.first_budget, per_slide)

        self.store, self._every = None, 1
        policy = plan.config.checkpoint
        if policy is not None:
            # Replayability is re-validated here as a backstop:
            # `ExecutionPlan.with_source` swaps sources through
            # ``dataclasses.replace`` without re-running the planner's checks.
            if not plan.source.replayable:
                raise PlanError(
                    "checkpointing requires a replayable source: resume replays "
                    "the stream from the checkpointed offset, which a "
                    f"{type(plan.source).__name__} cannot reproduce"
                )
            self.store, self._every = checkpoint_store, policy.every
            if checkpoint_store is None:
                self.store = CheckpointStore()
        self.results: List[WindowResult] = []
        self.pane_index = 0
        self.resume: Optional[PaneCheckpoint] = resume_from
        if resume_from is not None:
            _validate_resume(plan, resume_from, len(stream))
            state = resume_from.state
            self.strategy.restore(state["strategy"])
            if self.controller is not None and state["controller"] is not None:
                restore_controller(self.controller, state["controller"])
            self.results = list(resume_from.results)
            self.pane_index = resume_from.pane_index

    def sampler(self):
        """The run's one sampler — already restored when the run is resumed
        (the budget and hint it would ignore are then placeholders).

        §2.3: sub-stream sources are declared at the aggregator; the
        allocator gets the stratum count (over a bounded prefix) so the
        first interval splits its budget fairly.
        """
        if self.resume is not None:
            return self.strategy.sampler(1, 1)
        if self.columnar:
            prefix = self.stream.item_slice(0, _STRATA_HINT_PREFIX)
        else:
            prefix = [item for _ts, item in self.stream[:_STRATA_HINT_PREFIX]]
        return self.strategy.sampler(
            self.first_budget, count_strata(prefix, self.plan.query.key_fn)
        )

    def count(self, observed: int, kept: int) -> None:
        """Account items the sampling stage saw and kept."""
        self._observed.inc(observed)
        self._kept.inc(kept)
        self.sampled_total += kept

    def close_pane(
        self,
        end: float,
        estimate,
        bound,
        groups,
        strata: Sequence[StratumStats],
        sampled: int,
        population: int,
        stream_position: int,
        engine_state: Callable[[], dict],
    ) -> None:
        """End the pane that fires at ``end`` — the same way on every engine.

        In order: the §4.2 control step (the pane's stratum statistics and
        measured margin re-derive the next interval's budget, actuated
        through the strategy's one hook whatever the engine), the
        worker-loss drain, the pane's `WindowResult`, ``on_pane``, and — when
        the cadence says so — a checkpoint of the strategy, the controller
        and whatever ``engine_state()`` adds (called only then) at
        ``stream_position``, the first event with ``ts >= end``.  Closes
        the pane's timer row and opens the next.
        """
        strategy, controller, timer = self.strategy, self.controller, self.timer
        if controller is not None:
            total = controller.on_pane(strata, bound, population)
            strategy.set_budget(total, controller.last_point.observed_items)
        result = WindowResult(
            end=end,
            estimate=estimate,
            exact=None,
            error=bound,
            groups=groups,
            sampled_items=sampled,
            total_items=population,
            recovery=tuple(strategy.drain_recovery_events()),
        )
        self.results.append(result)
        if self.on_pane is not None:
            self.on_pane(result)
        self.pane_index += 1
        self._panes.inc()
        timer.lap("estimate")
        if self.store is not None and self.pane_index % self._every == 0:
            state = engine_state()
            state["strategy"] = strategy.state()
            state["controller"] = (
                controller_state(controller) if controller is not None else None
            )
            self.store.save(
                PaneCheckpoint(
                    plan_name=self.plan.name,
                    engine=self.plan.engine,
                    strategy=self.plan.strategy,
                    pane_index=self.pane_index,
                    pane_end=end,
                    stream_position=stream_position,
                    results=tuple(self.results),
                    state=state,
                )
            )
            timer.lap("checkpoint")
        timer.close(self.pane_index, end=end)
        timer.open()

    def close_sampled_pane(
        self,
        end: float,
        samples: Sequence[WeightedSample],
        stream_position: int,
        engine_state: Callable[[], dict],
    ) -> None:
        """Estimate the pane from the window's interval samples, close it.

        The one pane estimate of every engine: an ungrouped SUM or MEAN
        pools the intervals' memoised moments, never merging the pane; a
        grouped or quantile pane needs the kept values and merges them.
        """
        query, confidence = self.plan.query, self.plan.config.confidence
        if self.pools_moments:
            moments = [interval_moments(sample, query.value_fn) for sample in samples]
            result = pooled_result(moments, query.kind)
            estimate, groups, columns = result.value, {}, result.columns
            # Stratum objects only for the budget controller, the one reader.
            strata = result.strata if self.controller is not None else ()
            bound = estimate_error(result, confidence=confidence)
            sampled, population = sum(columns.y), sum(columns.c)
        else:
            pane = combine_worker_samples(samples)
            args = (pane, query, confidence)
            if self.controller is None:  # Eq.-9 stratum stats only for a reader
                (estimate, bound, groups), strata = estimate_pane(*args), ()
            else:
                estimate, bound, groups, strata = estimate_pane_stats(*args)
            sampled, population = pane.total_items, pane.total_count
            # The merged arrays are dead weight while the next interval is
            # sampled; the interval samples they came from live on in the
            # engine's history.
            del pane
        self.close_pane(
            end, estimate, bound, groups, strata, sampled, population,
            stream_position, engine_state,
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
    has no room for — ``"columnar_fallback"``,
    ``"telemetry"`` (the live `repro.obs.RunTelemetry` when the config
    enables it), ``"sampled_total"`` — the items the sampling stage
    actually kept across the run's intervals, the measured actual the
    serving layer's settle-up reconciles against its pre-run cost
    estimate — and, on the direct engine, ``"sampling_seconds"``: the wall
    time spent inside the sampling path itself (the offer/shard section).

    ``on_pane``, when given, is called with each `WindowResult` the moment
    its pane closes — the streaming hook the serving layer
    (`repro.service`) uses to push per-pane answers to tenants while the
    run is still in flight.  Resumed runs do not re-deliver panes restored
    from the checkpoint.  The callback runs inline on the driver's thread;
    it must not block.
    """
    ingest = _INGEST.get(plan.engine)
    if ingest is None:
        raise PlanError(f"unknown engine {plan.engine!r}")
    if handle_batch is not None and plan.engine != "batched":
        raise PlanError("handle_batch overrides only apply to the batched engine")
    run = _Run(plan, handle_batch, checkpoint_store, resume_from, run_info, on_pane)
    try:
        cluster = ingest(run)
    finally:
        run.trace.close()
    run.info["sampled_total"] = run.sampled_total
    if run.controller is not None and adaptation_log is not None:
        adaptation_log.extend(run.controller.trajectory)
    return run.results, cluster


def _ingest_batched(run: _Run) -> SimulatedCluster:
    """Micro-batch skeleton (§5.5): chop the stream into ``batch_interval``
    batches, call the strategy's ``sample_batch`` for each, and close a
    sliding-window pane every ``slide`` seconds over the merged in-window
    batch samples.

    Its checkpoints add the in-window batch-sample history; resume replays
    micro-batches from the checkpointed pane boundary (``Batcher`` started
    at ``pane_end`` over the unconsumed stream suffix — still as located
    column views when the run is columnar).
    """
    stream, plan, timer = run.stream, run.plan, run.timer
    config, window = plan.config, plan.window
    ctx = StreamingContext(
        batch_interval=config.batch_interval,
        nodes=config.nodes,
        cores_per_node=config.cores_per_node,
        costs=config.costs,
    )
    per_slide = int(round(window.slide / config.batch_interval))
    per_window = int(round(window.length / config.batch_interval))
    history: List[WeightedSample] = []
    consumed, start = 0, 0.0
    if run.resume is not None:
        history = list(run.resume.state["history"])
        # Micro-batches restart at the checkpointed pane boundary: batch
        # ends stay absolute (Batcher's start offsets them) and the pane
        # fires every per_slide batches exactly as the uninterrupted run's
        # global batch indexing would.
        consumed, start = run.resume.stream_position, run.resume.pane_end
    if run.columnar:
        # Boundaries via searchsorted on the cached timestamp column,
        # micro-batch items as zero-copy column views — bitwise-identical
        # batch tiling (see `Batcher.batches_columnar`).
        batches = ctx.batcher(start).batches_columnar(stream, consumed)
    else:
        batches = ctx.batcher(start).batches(stream[consumed:] if consumed else stream)
    for batch in batches:
        timer.lap("ingest")
        sample = run.strategy.sample_batch(ctx, batch.items)
        history.append(sample)
        timer.lap("offer")
        run.count(len(batch.items), sample.total_items)
        consumed += len(batch.items)
        if len(history) > per_window:
            del history[: len(history) - per_window]
        if (batch.index + 1) % per_slide == 0:
            # ``consumed`` counts only items in yielded batches; the
            # boundary-crossing trigger item sits in the batcher's buffer,
            # so the position is exactly the first event with
            # ts >= this pane's end.
            run.close_sampled_pane(
                batch.end, history[-per_window:], consumed,
                lambda: {"history": tuple(history)},
            )
    return ctx.cluster


def _ingest_pipelined(run: _Run) -> SimulatedCluster:
    """Flink-style event-time loop (§4.2.2): the stream in runs, intervals
    and panes closed by watermarks, no micro-batch and no barrier.

    Runs sit on the stream-global ``[i, i + chunk_size)`` grid (one item
    each when ``chunk_size <= 1``), also after a resume.  Per run, in this
    order (virtual seconds are float sums, so the order is output):

    1. the watermark of the run's first timestamp closes every interval
       ending at or before it;
    2. the run is charged ``ingest_items(n)``, then ``sample_items(n)``
       (the exact ``none`` path: ``process_items(n)``, every item is kept);
       one-item runs are charged item by item, in one
       `SimulatedCluster.ingest_each`;
    3. the sampler is fed up to the run's end, closing the intervals that
       end inside it.  Each feed is one ``offer_many`` of the rows up to
       the next watermark, which may reach past the run: a ``fed``
       position keeps later runs from feeding a row twice.

    So the sampler takes every interval in one feed whatever the run
    length: ``chunk_size`` shapes only the virtual-seconds grid, and its
    decisions do not depend on how the rows are grouped anyway.

    A closed interval is charged ``process_items(kept)`` — the items that
    reach the window, the pipelined saving — and joins the window's
    history; its pane fires unless its end lies beyond the last event.
    After the stream, the watermark ``last_ts + 1e-9`` fires and the open
    interval closes (charged only if it saw an item): the batched engine
    emits no such flush pane, so it would skew cross-system comparisons.
    An exact pane is the stream's rows in ``[end − length, end)``.

    Checkpoints add the window history (empty on the exact path, whose
    resumed run re-reads its panes from the replayed stream).
    """
    stream, plan, ts_col = run.stream, run.plan, run.ts_col
    config, window, query, timer = plan.config, plan.window, plan.query, run.timer
    cluster = SimulatedCluster(
        nodes=config.nodes, cores_per_node=config.cores_per_node, costs=config.costs
    )
    n, chunk = len(stream), max(config.chunk_size, 1)
    last_ts = stream[-1][0] if stream else 0.0
    sampled = run.strategy.samples_intervals
    sampler = run.sampler() if sampled else None
    history = deque(maxlen=window.intervals_per_window)
    next_fire, position = window.slide, 0
    if run.resume is not None:
        history.extend(run.resume.state["history"])
        next_fire = run.resume.pane_end + window.slide
        position = run.resume.stream_position
    run.count(n - position, 0 if sampled else n - position)

    def engine_state():
        return {"history": tuple(history)}

    def close(final: bool = False) -> None:
        """Close the interval ending at ``next_fire``; fire its pane."""
        nonlocal next_fire
        end = next_fire
        next_fire += window.slide
        if sampled:
            sample = sampler.close_interval()
            if final and not sample.total_count:
                return
            kept = sample.total_items
            run.count(0, kept)
            cluster.process_items(kept)
            history.append(sample)
        if end > last_ts:  # the end-of-stream flush interval: no pane
            return
        at = _first_at(stream, ts_col, end)
        if sampled:
            timer.lap("offer")
            run.close_sampled_pane(end, list(history), at, engine_state)
            return
        timer.lap("ingest")
        lo = _first_at(stream, ts_col, end - window.length)
        sample = full_weight_sample(_items(stream, ts_col, lo, at), query.key_fn)
        estimate, bound, groups = estimate_pane(sample, query, config.confidence)
        kept = sample.total_items
        run.close_pane(end, estimate, bound, groups, (), kept, kept, at, engine_state)

    kind = "oasrs" if sampled else None
    charge = (
        partial(cluster.sample_items, kind=kind) if sampled else cluster.process_items
    )
    i = fed = position
    while i < n:
        while stream[i][0] >= next_fire:  # 1. the run's watermark
            close()
        if chunk == 1:  # the one-item runs up to the next watermark
            j = _first_at(stream, ts_col, next_fire, i)
            cluster.ingest_each(j - i, kind)  # 2.
        else:
            j = min(i - i % chunk + chunk, n)
            cluster.ingest_items(j - i)  # 2.
            charge(j - i)
        while sampled and fed < j:  # 3.
            hi = _first_at(stream, ts_col, next_fire, fed)
            if hi <= fed:
                close()
                continue
            sampler.offer_many(_items(stream, ts_col, fed, hi))
            fed = hi
        i = j
    if n > position:  # the end-of-stream watermark, then the open interval
        while last_ts + 1e-9 >= next_fire:
            close()
    close(final=True)
    return cluster


def _ingest_direct(run: _Run) -> SimulatedCluster:
    """Interval loop over the raw sampling stack; no engine in the hot path.

    Leaves ``run_info["sampling_seconds"]`` (see `execute_plan`), reported by
    `repro.system.native.NativeStreamApproxSystem.last_sampling_seconds`.

    Each interval goes to the strategy's one feed as a located column
    view (or, off the column path, the list of its items); a sharded
    sampler cuts its shards as strided views of it.

    Checkpoints add the in-window interval history; resume restarts the
    interval loop at the checkpointed boundary.
    """
    stream, plan, timer = run.stream, run.plan, run.timer
    config, window = plan.config, plan.window
    cluster = SimulatedCluster(
        nodes=config.nodes, cores_per_node=config.cores_per_node, costs=config.costs
    )
    ts_col = run.ts_col
    run.sampler()  # built (or restored) before the first feed
    sample_interval = run.strategy.sample_interval
    history = deque(maxlen=window.intervals_per_window)
    sampling_seconds = 0.0
    # Slide-interval boundaries via bisection on the (ordered) timestamps
    # instead of a per-item batching loop; pane ends match `Batcher`'s
    # (every slide multiple, items with ts == boundary go to the next
    # interval, final partial interval keeps its nominal end).
    n = len(stream)
    slide = window.slide
    start_idx = 0
    boundary = slide
    if run.resume is not None:
        history.extend(run.resume.state["history"])
        start_idx = run.resume.stream_position
        boundary = run.resume.pane_end + slide

    def engine_state():
        return {"history": tuple(history)}

    while start_idx < n:
        end_idx = _first_at(stream, ts_col, boundary, start_idx)
        lo = start_idx
        start_idx = end_idx
        pane_end = boundary
        boundary += slide
        cluster.sample_items(end_idx - lo, "oasrs")
        timer.lap("ingest")
        sampling_started = time.perf_counter()
        sample = sample_interval(_items(stream, ts_col, lo, end_idx))
        sampling_seconds += time.perf_counter() - sampling_started
        timer.lap("offer")
        kept = sample.total_items
        run.count(end_idx - lo, kept)
        cluster.process_items(kept)
        history.append(sample)
        run.close_sampled_pane(pane_end, list(history), start_idx, engine_state)
    run.info["sampling_seconds"] = sampling_seconds
    return cluster


#: The per-engine part of a run: ingest intervals, say what is in each pane.
_INGEST = {
    "batched": _ingest_batched,
    "pipelined": _ingest_pipelined,
    "direct": _ingest_direct,
}
