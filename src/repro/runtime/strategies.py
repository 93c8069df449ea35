"""Pluggable sampling strategies — the runtime's sampling stage registry.

A `SamplingStrategy` packages one of the paper's sampling designs behind a
single chunk-first interface so any engine can drive it:

* ``none``  — no sampling; every item is processed (the native baselines),
* ``srs``   — Spark's ``sample``: pruned random sort per micro-batch
  (`repro.sampling.srs`),
* ``sts``   — Spark's ``sampleByKeyExact``: groupBy shuffle + per-stratum
  random sort (`repro.sampling.sts`),
* ``oasrs`` — the paper's online adaptive stratified reservoir sampling
  (`repro.core.oasrs`), the only strategy that also supports interval
  sampling for the pipelined/direct engines and real multi-process
  sharding (`repro.core.distributed.ShardedExecutor`).

Strategy classes are *stateless descriptors*; ``bind(plan)`` creates the
per-run `BoundStrategy` carrying the RNG, samplers, and adaptive policies.
A bound strategy serves two engine roles:

* ``sample_batch(ctx, items)`` — the batched engine calls this once per
  micro-batch; it charges the strategy's system-specific costs on the
  context's cluster and returns the batch's ``WeightedSample``
  (full-weight strata for ``none``, so exact systems flow through the
  same estimator).
* ``interval_sampler(budget, strata_hint)`` — the pipelined and direct
  engines request a per-slide-interval sampler (``offer`` /
  ``process_chunk`` / ``close_interval``); only interval-capable
  strategies (``samples_intervals = True``) provide one.

``SystemConfig.chunk_size`` routes every strategy through its vectorized
chunk path; ``SystemConfig.parallelism`` shards interval sampling over
real worker processes where the strategy supports it.  New strategies
register with `register_strategy` and immediately work in every system
that names them — no new run loop required.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Sequence, Type

from ..core._vector import np as _np
from ..core.distributed import ShardedExecutor, ShardedIntervalSampler
from ..core.oasrs import OASRSSampler, WaterFillingAllocation
from ..core.records import ColumnSlice, _StratumMembers, item_key
from ..core.recovery import (
    restore_attrs,
    restore_sampler,
    sampler_state,
    snapshot_attrs,
)
from ..core.strata import StratumSample, WeightedSample, stratum_weight
from ..engine.batched.context import StreamingContext
from .plan import ExecutionPlan, PlanError

__all__ = [
    "SamplingStrategy",
    "BoundStrategy",
    "register_strategy",
    "get_strategy",
    "available_strategies",
    "full_weight_sample",
    "NoSamplingStrategy",
    "SRSStrategy",
    "STSStrategy",
    "OASRSStrategy",
]

BATCHED, PIPELINED, DIRECT = "batched", "pipelined", "direct"

_REGISTRY: Dict[str, "SamplingStrategy"] = {}


def register_strategy(cls: Type["SamplingStrategy"]) -> Type["SamplingStrategy"]:
    """Class decorator: make a strategy addressable by ``cls.name``."""
    _REGISTRY[cls.name] = cls()
    return cls


def get_strategy(name: str) -> "SamplingStrategy":
    """Look up a registered strategy; unknown names are a `PlanError`."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise PlanError(
            f"unknown sampling strategy {name!r}; "
            f"available: {', '.join(available_strategies())}"
        ) from None


def available_strategies() -> List[str]:
    return sorted(_REGISTRY)


def full_weight_sample(items: Sequence[object], key_fn) -> WeightedSample:
    """Wrap a fully-kept batch as weight-1 strata (exact representation).

    Column chunks with the canonical key projection group by interned code
    in one vectorized pass; stratum order (first appearance) and member
    tuples are identical to the per-item dict grouping.
    """
    if _np is not None and isinstance(items, ColumnSlice) and key_fn is item_key:
        sample = WeightedSample()
        codes, values, table = items.codes, items.values, items.key_table
        if codes.size == 0:
            return sample
        uniq, first = _np.unique(codes, return_index=True)
        order = (
            _np.argsort(first, kind="stable").tolist() if uniq.size > 1 else (0,)
        )
        for gi in order:
            key = table[uniq[gi]]
            member_values = values if uniq.size == 1 else values[codes == uniq[gi]]
            # Lazy members: estimators read the raw value column; tuples
            # materialize only if a consumer actually indexes the stratum.
            members = _StratumMembers(key, member_values)
            sample.add(StratumSample(key, members, len(members), 1.0))
        return sample
    groups: Dict[object, List[object]] = {}
    for item in items:
        groups.setdefault(key_fn(item), []).append(item)
    sample = WeightedSample()
    for key, members in groups.items():
        sample.add(StratumSample(key, tuple(members), len(members), 1.0))
    return sample


class SamplingStrategy:
    """Descriptor for one sampling design: capabilities + bind()."""

    name = "abstract"
    #: Engines this strategy can run on.
    engines: frozenset = frozenset()
    #: True when ``parallelism > 1`` can shard this strategy's sampling.
    supports_parallelism = False
    #: True when the strategy provides per-interval samplers (pipelined /
    #: direct engines); batch-only strategies leave this False.
    samples_intervals = False

    def bind(self, plan: ExecutionPlan) -> "BoundStrategy":
        """Create the per-run state (RNG, samplers, adaptive policies)."""
        raise NotImplementedError


class BoundStrategy:
    """Per-run strategy state; engine drivers call the role methods.

    Besides the two engine roles, a bound strategy is the *actuation
    surface* of the budget control loop (`repro.runtime.control`): between
    panes the drivers call ``set_sampling_fraction`` (batched role) or
    ``set_interval_budget`` (interval role) to re-derive the next
    interval's sample size from the controller's decision.  Fixed-fraction
    runs never call either, so their execution is bit-for-bit unchanged.
    """

    def __init__(self, strategy: SamplingStrategy, plan: ExecutionPlan) -> None:
        self.strategy = strategy
        self.plan = plan
        self._fraction_override: float = None  # type: ignore[assignment]
        self.telemetry = None
        self.source = None

    def attach_run(self, telemetry, source) -> None:
        """Give the run's `repro.obs.RunTelemetry` and stream to the strategy.

        The run context calls this right after ``bind`` (before any sampler
        or executor is built) so sharded strategies can hand both to their
        worker pools: the metrics registry attributes cross-process costs
        (spawn, policy-snapshot ship, pickled intervals) per transport kind,
        and the pool forks with ``source`` inherited, so intervals cross the
        process boundary as index spans.  ``telemetry`` None means
        telemetry is off.
        """
        self.telemetry = telemetry
        self.source = source

    @property
    def samples_intervals(self) -> bool:
        return self.strategy.samples_intervals

    @property
    def sampling_fraction(self) -> float:
        """The fraction batched-role sampling uses this batch.

        ``plan.config.sampling_fraction`` unless the budget controller has
        overridden it via ``set_sampling_fraction``.
        """
        if self._fraction_override is not None:
            return self._fraction_override
        return self.plan.config.sampling_fraction

    def set_sampling_fraction(self, fraction: float) -> None:
        """Budget-loop actuation (batched role): next batches sample at this rate."""
        self._fraction_override = min(1.0, max(0.0, fraction))

    def sample_batch(self, ctx: StreamingContext, items: Sequence[object]) -> WeightedSample:
        """Sample one micro-batch, charging costs on ``ctx.cluster``."""
        raise PlanError(
            f"strategy {self.strategy.name!r} cannot run on the batched engine"
        )

    def interval_sampler(self, budget: int, strata_hint: int):
        """Return a per-interval sampler (offer/process_chunk/close_interval)."""
        raise PlanError(
            f"strategy {self.strategy.name!r} does not sample per interval"
        )

    def set_interval_budget(self, total: int) -> None:
        """Budget-loop actuation (interval role): re-target the next interval.

        Only meaningful after ``interval_sampler``; strategies without an
        interval role ignore it.
        """

    # -- checkpoint / recovery role -----------------------------------------

    def state(self) -> dict:
        """Plain-data snapshot of the batched-role per-run state.

        Taken at pane boundaries by `repro.runtime.checkpoint`; subclasses
        extend the dict with their RNGs/samplers.  Interval-role sampler
        state is captured separately through the sampler the driver holds.
        """
        return {"fraction_override": self._fraction_override}

    def restore(self, state: dict) -> None:
        """Restore a `state` snapshot exactly (RNG streams included)."""
        self._fraction_override = state["fraction_override"]

    def drain_recovery_events(self) -> list:
        """Return and clear worker-loss events since the last pane.

        Non-sharded strategies never lose workers; the base returns an
        empty list so drivers can call this unconditionally.
        """
        return []

    def close(self) -> None:
        """Release per-run resources (worker pools); idempotent.

        Drivers call this when the run reports, so sharded strategies can
        drain their persistent worker pools; strategies without external
        resources inherit this no-op.
        """

    def parallel_fallback(self) -> Optional[str]:
        """Why parallel execution degraded to in-process, or None.

        Surfaced as ``SystemReport.parallel_fallback`` so "N workers
        requested, 1 used" is visible instead of silently swallowed.
        Strategies that never shard return None.
        """
        return None


class _SeededBound(BoundStrategy):
    """A bound strategy drawing from one ``config.seed``-seeded RNG, which
    checkpoints and restores with it."""

    def __init__(self, strategy: SamplingStrategy, plan: ExecutionPlan) -> None:
        super().__init__(strategy, plan)
        self._rng = random.Random(plan.config.seed)

    def state(self) -> dict:
        state = super().state()
        state["rng"] = self._rng.getstate()
        return state

    def restore(self, state: dict) -> None:
        super().restore(state)
        self._rng.setstate(state["rng"])


@register_strategy
class NoSamplingStrategy(SamplingStrategy):
    """Process everything: the exact, full-cost baseline stage.

    On the batched engine every item pays RDD formation, task scheduling,
    and query processing; the batch is represented as weight-1 strata so
    the shared estimator yields exact results with zero-width error
    bounds.  On the pipelined engine the driver aggregates exact panes
    directly (`ExecutionPlan` with strategy ``none`` inserts no sampling
    operator).  ``chunk_size`` is honoured structurally — RDD partitions
    and pipelined chunk delivery are the chunks — and changes no output.
    """

    name = "none"
    engines = frozenset({BATCHED, PIPELINED})

    def bind(self, plan: ExecutionPlan) -> "BoundStrategy":
        return _BoundNoSampling(self, plan)


class _BoundNoSampling(BoundStrategy):
    def sample_batch(self, ctx: StreamingContext, items: Sequence[object]) -> WeightedSample:
        rdd = ctx.rdd_of(items)
        rdd.process_all()
        return full_weight_sample(items, self.plan.query.key_fn)


@register_strategy
class SRSStrategy(SamplingStrategy):
    """Spark ``sample``: uniform pruned-random-sort SRS per micro-batch.

    The whole batch is materialised as an RDD first (all items pay the
    copy), then the ScaSRS random sort keeps ``sampling_fraction`` of it
    as a single unstratified pseudo-stratum — rare sub-streams can vanish,
    the accuracy weakness of Figures 4b/6c/7a.  With ``chunk_size > 1``
    the per-partition sampling runs through the vectorized
    `repro.sampling.srs.ScaSRSSampler.sample_chunk` path (one NumPy draw
    per partition instead of one RNG call per item).
    """

    name = "srs"
    engines = frozenset({BATCHED})

    _SRS_KEY = "__srs__"

    def bind(self, plan: ExecutionPlan) -> "BoundStrategy":
        return _BoundSRS(self, plan)


class _BoundSRS(_SeededBound):
    def sample_batch(self, ctx: StreamingContext, items: Sequence[object]) -> WeightedSample:
        config = self.plan.config
        rdd = ctx.rdd_of(items)
        sampled_rdd = rdd.sample(
            self.sampling_fraction, rng=self._rng, chunked=config.chunk_size > 1
        )
        kept = sampled_rdd.collect()
        ctx.cluster.process_items(len(kept))

        sample = WeightedSample()
        if items:
            weight = stratum_weight(len(items), len(kept))
            sample.add(StratumSample(SRSStrategy._SRS_KEY, tuple(kept), len(items), weight))
        return sample


@register_strategy
class STSStrategy(SamplingStrategy):
    """Spark ``sampleByKeyExact``: groupBy shuffle + per-stratum SRS.

    Statistically strong (proportional allocation, no stratum overlooked)
    but structurally the slowest: the shuffle, per-stratum waitlist sorts,
    and barriers are all charged.  With ``chunk_size > 1`` the grouping
    and per-stratum sampling consume the batch partition-by-partition
    through `repro.sampling.sts.StratifiedSampler.sample_by_key_chunked`.
    """

    name = "sts"
    engines = frozenset({BATCHED})

    def bind(self, plan: ExecutionPlan) -> "BoundStrategy":
        return _BoundSTS(self, plan)


class _BoundSTS(_SeededBound):
    def sample_batch(self, ctx: StreamingContext, items: Sequence[object]) -> WeightedSample:
        config = self.plan.config
        key_fn = self.plan.query.key_fn
        rdd = ctx.rdd_of(items)
        sampled_rdd = rdd.sample_by_key(
            self.sampling_fraction,
            key_fn=key_fn,
            exact=True,
            rng=self._rng,
            chunked=config.chunk_size > 1,
        )
        kept = sampled_rdd.collect()
        ctx.cluster.process_items(len(kept))

        # Reconstruct per-stratum counts/weights (bookkeeping, clock-free).
        counts: Dict[object, int] = {}
        for item in items:
            key = key_fn(item)
            counts[key] = counts.get(key, 0) + 1
        kept_by_key: Dict[object, List[object]] = {}
        for item in kept:
            kept_by_key.setdefault(key_fn(item), []).append(item)

        sample = WeightedSample()
        for key, count in counts.items():
            members = tuple(kept_by_key.get(key, ()))
            if not members:
                continue
            sample.add(
                StratumSample(key, members, count, stratum_weight(count, len(members)))
            )
        return sample


@register_strategy
class OASRSStrategy(SamplingStrategy):
    """The paper's OASRS (§3, Algorithm 3) behind both engine roles.

    * Batched role (§4.2.1): items are sampled on the fly *before* RDD
      formation; only kept items pay the RDD copy and query processing.
      The per-batch budget is ``sampling_fraction × batch size``, spread
      by the adaptive water-filling policy.
    * Interval role (§4.2.2 and the direct executor): a per-slide-interval
      sampler whose budget the engine derives from the stream rate.

    The only strategy with ``supports_parallelism``: interval sampling
    shards over ``parallelism`` real worker processes through
    `repro.core.distributed.ShardedExecutor` (batched role shards each
    micro-batch the same way).
    """

    name = "oasrs"
    engines = frozenset({BATCHED, PIPELINED, DIRECT})
    supports_parallelism = True
    samples_intervals = True

    def bind(self, plan: ExecutionPlan) -> "BoundStrategy":
        return _BoundOASRS(self, plan)


class _BoundOASRS(_SeededBound):
    def __init__(self, strategy: SamplingStrategy, plan: ExecutionPlan) -> None:
        super().__init__(strategy, plan)
        self._sampler: OASRSSampler = None  # type: ignore[assignment]
        self._executor: ShardedExecutor = None  # type: ignore[assignment]
        self._policy: WaterFillingAllocation = None  # type: ignore[assignment]
        self._interval_policy: WaterFillingAllocation = None  # type: ignore[assignment]
        self._interval_sampler = None

    # -- checkpoint / recovery role ------------------------------------------

    def state(self) -> dict:
        state = super().state()
        state["policy"] = (
            snapshot_attrs(self._policy) if self._policy is not None else None
        )
        state["sampler"] = (
            sampler_state(self._sampler) if self._sampler is not None else None
        )
        state["executor"] = (
            self._executor.state() if self._executor is not None else None
        )
        return state

    def restore(self, state: dict) -> None:
        super().restore(state)
        if state["policy"] is not None and self._policy is None:
            # The batched-role objects are built lazily on the first batch;
            # construct them (placeholder budget/strata — overwritten just
            # below) so there is something to restore onto.
            self._ensure_batch_sampler(1, 1)
        if state["policy"] is not None:
            restore_attrs(self._policy, state["policy"])
        if state["sampler"] is not None and self._sampler is not None:
            # Rewinds the shared RNG once more, to the same snapshot.
            restore_sampler(self._sampler, state["sampler"])
        if state["executor"] is not None and self._executor is not None:
            self._executor.restore(state["executor"])

    def drain_recovery_events(self) -> list:
        events: list = []
        if self._executor is not None:
            events.extend(self._executor.drain_recovery_events())
        drain = getattr(self._interval_sampler, "drain_recovery_events", None)
        if drain is not None:
            events.extend(drain())
        return events

    def close(self) -> None:
        """Drain the persistent worker pools (batched and interval roles)."""
        if self._executor is not None:
            self._executor.close()
        close = getattr(self._interval_sampler, "close", None)
        if close is not None:
            close()

    def parallel_fallback(self) -> Optional[str]:
        if self._executor is not None and self._executor.fallback_reason:
            return self._executor.fallback_reason
        return getattr(self._interval_sampler, "fallback_reason", None)

    # -- batched role -----------------------------------------------------------

    def _ensure_batch_sampler(self, batch_size: int, strata_hint: int) -> None:
        config = self.plan.config
        budget = max(1, int(self.sampling_fraction * batch_size))
        if self._policy is None:
            # §2.3: the sub-stream sources are declared at the aggregator, so
            # the first interval can already split its budget across them.
            self._policy = WaterFillingAllocation(budget, expected_strata=strata_hint)
            if config.parallelism > 1:
                self._executor = self._sharded_executor(self._policy)
            else:
                self._sampler = OASRSSampler(
                    self._policy, key_fn=self.plan.query.key_fn, rng=self._rng
                )
        elif self._fraction_override is not None:
            # Budget-driven runs: re-derive the water-filling capacities for
            # the new budget *now* — ``close_interval`` already rebalanced
            # the reservoirs with the previous budget, so without this the
            # adaptation would always lag one batch behind.
            self._policy.set_total(budget)
            if self._sampler is not None:
                self._sampler.rebalance()
        else:
            self._policy.total = budget

    def sample_batch(self, ctx: StreamingContext, items: Sequence[object]) -> WeightedSample:
        config = self.plan.config
        if not items:
            # An empty micro-batch must not collapse the policy's budget to
            # ``max(1, fraction·0) == 1``: the close-interval rebalance would
            # then rebuild every reservoir at ~1 slot and the *next* batch
            # would sample through the starved capacities before its own
            # budget re-set takes effect.  Nothing arrived, so there is
            # nothing to sample or charge — emit an empty pane contribution.
            return WeightedSample()
        key_fn = self.plan.query.key_fn
        if _np is not None and isinstance(items, ColumnSlice) and key_fn is item_key:
            # Distinct interned codes in the batch == distinct keys.
            strata_hint = max(1, int(_np.unique(items.codes).size))
        else:
            strata_hint = max(1, len({key_fn(x) for x in items}))
        self._ensure_batch_sampler(len(items), strata_hint)
        # On-the-fly sampling: every arriving item is offered (O(1) each)...
        ctx.cluster.sample_items(len(items), "oasrs")
        if self._executor is not None:
            sample = self._executor.run(items)
        elif config.chunk_size > 1:
            # Chunked mode: the batch's RDD partitions become sampler chunks
            # (or explicit chunk_size-item runs) through the vectorized path.
            for chunk in ctx.chunks_of(items, config.chunk_size):
                self._sampler.process_chunk(chunk)
            sample = self._sampler.close_interval()
        else:
            self._sampler.offer_many(items)
            sample = self._sampler.close_interval()
        kept = sample.all_items()
        # ...but only the kept items are turned into an RDD and processed.
        rdd = ctx.rdd_of_presampled(kept, skipped=len(items) - len(kept))
        rdd.process_all()
        return sample

    # -- interval role (pipelined / direct) -------------------------------------

    def interval_sampler(self, budget: int, strata_hint: int):
        config = self.plan.config
        policy = WaterFillingAllocation(budget, expected_strata=strata_hint)
        self._interval_policy = policy
        if config.parallelism > 1:
            sampler = ShardedIntervalSampler(self._sharded_executor(policy))
        else:
            sampler = OASRSSampler(
                policy, key_fn=self.plan.query.key_fn, rng=random.Random(config.seed)
            )
        self._interval_sampler = sampler
        return sampler

    def set_interval_budget(self, total: int) -> None:
        """Re-target the per-interval water-filling budget (§4.2 feedback).

        Mutates the *coordinator's* policy, which reaches the sharded path
        too: the persistent pool's workers receive the policy's attribute
        snapshot inside every interval message, so a budget re-target is
        just part of the next message — no shared state, no respawn.  The
        in-process sampler additionally rebalances its (empty, start-of-
        interval) reservoirs so the new capacities apply immediately.
        """
        if self._interval_policy is None:
            return
        self._interval_policy.set_total(max(1, int(total)))
        rebalance = getattr(self._interval_sampler, "rebalance", None)
        if rebalance is not None:
            rebalance()

    def _sharded_executor(self, policy: WaterFillingAllocation) -> ShardedExecutor:
        config = self.plan.config
        return ShardedExecutor(
            config.parallelism,
            policy,
            self.plan.query.key_fn,
            seed=config.seed,
            chunk_size=config.chunk_size if config.chunk_size > 1 else 1024,
            faults=config.faults,
            metrics=self.telemetry.metrics if self.telemetry is not None else None,
            source=self.source,
        )
