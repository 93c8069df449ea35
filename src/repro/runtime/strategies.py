"""Pluggable sampling strategies — the runtime's sampling stage registry.

A `SamplingStrategy` packages one of the paper's sampling designs behind a
single chunk-first interface so any engine can drive it:

* ``none``  — no sampling; every item is processed (the native baselines),
* ``srs``   — Spark's ``sample``: pruned random sort per micro-batch
  (`repro.sampling.srs`),
* ``sts``   — Spark's ``sampleByKeyExact``: groupBy shuffle + per-stratum
  random sort (`repro.sampling.sts`),
* ``oasrs`` — the paper's online adaptive stratified reservoir sampling
  (`repro.core.oasrs`), the only strategy that samples per interval (so
  the only one the pipelined/direct engines run) and the only one with
  real multi-process sharding (`repro.core.distributed.ShardedExecutor`).

Strategy classes are *stateless descriptors*; ``bind(plan)`` creates the
per-run `BoundStrategy` carrying the RNG and — for interval-sampling
strategies — the run's one sampler.  A bound strategy owns that sampler;
engines only feed it, and ``state()`` snapshots it:

* ``sample_batch(ctx, items)`` — the batched engine calls this once per
  micro-batch; it charges the strategy's system-specific costs on the
  context's cluster and returns the batch's ``WeightedSample``
  (full-weight strata for ``none``, so exact systems flow through the
  same estimator).
* ``sample_interval(rows)`` — the one whole-interval feed (the direct
  engine's slide intervals, OASRS micro-batches): one ``offer_many``,
  then ``close_interval``.
* ``sampler(budget, strata_hint)`` — the run's sampler itself, built
  through the strategy's ``interval_sampler`` the first time anyone asks;
  the pipelined engine's sampling operator feeds it as items stream in.
  Only interval-capable strategies (``samples_intervals = True``)
  provide one.

``SystemConfig.chunk_size`` never reaches a strategy: it shapes only the
pipelined engine's simulated charging grid.
``SystemConfig.parallelism`` shards interval sampling over real worker
processes where the strategy supports it.  New strategies register with
`register_strategy` and immediately work in every system that names
them — no new run loop required.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Type

import numpy as _np

from ..core.distributed import ShardedExecutor, ShardedIntervalSampler
from ..core.oasrs import OASRSSampler, WaterFillingAllocation
from ..core.records import ColumnSlice, _StratumMembers, item_key
from ..core.strata import StratumSample, WeightedSample, stratum_weight
from ..engine.batched.context import StreamingContext
from .checkpoint import interval_sampler_state, restore_interval_sampler
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


def count_strata(items: Sequence[object], key_fn) -> int:
    """Distinct strata among ``items`` — the allocator's first-interval hint.

    Only seeds the *first* interval's equal split (§2.3: the sub-stream
    sources are declared at the aggregator); water-filling re-derives
    capacities from real counters at every interval close.  Column views
    with the canonical key projection count distinct interned codes
    instead of hashing items one by one — same count, one ``bincount``.
    """
    if isinstance(items, ColumnSlice) and key_fn is item_key:
        return max(1, int(_np.count_nonzero(_np.bincount(items.codes))))
    return max(1, len({key_fn(item) for item in items}))


def full_weight_sample(items: Sequence[object], key_fn) -> WeightedSample:
    """Wrap a fully-kept batch as weight-1 strata (exact representation).

    Column chunks with the canonical key projection group by interned code
    in one vectorized pass; stratum order (first appearance) and member
    tuples are identical to the per-item dict grouping.
    """
    if isinstance(items, ColumnSlice) and key_fn is item_key:
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
    """Per-run strategy state; engine drivers call its methods.

    A bound strategy owns the run's one sampler: ``sampler`` builds it
    through ``interval_sampler`` on the first ask, ``sample_interval``
    feeds it a whole interval, ``state`` / ``restore`` snapshot it, and
    ``close`` releases it.  It is also the *actuation surface* of the
    budget control loop (`repro.runtime.control`): between panes the
    driver calls ``set_budget`` with the controller's decision.
    Fixed-fraction runs never do, so their execution is bit-for-bit
    unchanged.
    """

    def __init__(self, strategy: SamplingStrategy, plan: ExecutionPlan) -> None:
        self.strategy = strategy
        self.plan = plan
        self._fraction_override: float = None  # type: ignore[assignment]
        self._sampler = None
        self.telemetry = None
        self.source = None

    def attach_run(self, telemetry, source) -> None:
        """Give the run's `repro.obs.RunTelemetry` and stream to the strategy.

        The run context calls this right after ``bind`` (before any sampler
        is built) so sharded strategies can hand both to their worker
        pools: the metrics registry attributes cross-process costs
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
        """The fraction a micro-batch samples at.

        ``plan.config.sampling_fraction`` unless the budget controller has
        re-targeted it via ``set_budget``.
        """
        if self._fraction_override is not None:
            return self._fraction_override
        return self.plan.config.sampling_fraction

    def set_budget(self, total: int, interval_items: float) -> None:
        """Budget-loop actuation: the next slide interval keeps ``total``
        of its expected ``interval_items``.

        The base records it as the fraction the following micro-batches
        sample at; strategies holding a sampler also re-target it.
        """
        self._fraction_override = min(1.0, max(0.0, total / max(1, interval_items)))

    def sample_batch(self, ctx: StreamingContext, items: Sequence[object]) -> WeightedSample:
        """Sample one micro-batch, charging costs on ``ctx.cluster``."""
        raise PlanError(
            f"strategy {self.strategy.name!r} cannot run on the batched engine"
        )

    def interval_sampler(self, budget: int, strata_hint: int):
        """Build the run's sampler (``offer`` / ``offer_many`` /
        ``process_chunk`` / ``close_interval``); called once, by `sampler`."""
        raise PlanError(
            f"strategy {self.strategy.name!r} does not sample per interval"
        )

    def sampler(self, budget: int, strata_hint: int):
        """The run's one sampler, built on the first ask.

        ``budget`` and ``strata_hint`` size the first interval only; a
        sampler that already exists (an earlier interval, or ``restore``)
        is returned as it is.
        """
        if self._sampler is None:
            self._sampler = self.interval_sampler(budget, strata_hint)
        return self._sampler

    def sample_interval(self, rows: Sequence[object]) -> WeightedSample:
        """Feed one whole interval to the run's sampler and close it.

        ``rows`` is a located `repro.core.records.ColumnSlice` or a plain
        item list, taken by one ``offer_many``; the sampler slices it at
        `repro.core.records.L2_SLICE` rows itself.
        """
        sampler = self._sampler
        sampler.offer_many(rows)
        return sampler.close_interval()

    # -- checkpoint / recovery role -----------------------------------------

    def state(self) -> dict:
        """Plain-data snapshot of the per-run state, sampler included.

        Taken at pane boundaries by `repro.runtime.checkpoint`; subclasses
        extend the dict with their RNGs.
        """
        sampler = self._sampler
        return {
            "fraction_override": self._fraction_override,
            "sampler": None if sampler is None else interval_sampler_state(sampler),
        }

    def restore(self, state: dict) -> None:
        """Restore a `state` snapshot exactly (RNG streams included)."""
        self._fraction_override = state["fraction_override"]
        if state["sampler"] is not None:
            # Built with a placeholder budget and hint: the snapshot
            # overwrites the policy it sized.
            restore_interval_sampler(self.sampler(1, 1), state["sampler"])

    def drain_recovery_events(self) -> list:
        """Return and clear worker-loss events since the last pane (none
        unless the sampler is sharded)."""
        drain = getattr(self._sampler, "drain_recovery_events", None)
        return drain() if drain is not None else []

    def close(self) -> None:
        """Release per-run resources (a sharded sampler's worker pool);
        idempotent.  Drivers call this when the run reports."""
        close = getattr(self._sampler, "close", None)
        if close is not None:
            close()

    def parallel_fallback(self) -> Optional[str]:
        """Why parallel execution degraded to in-process, or None.

        Surfaced as ``SystemReport.parallel_fallback`` so "N workers
        requested, 1 used" is visible instead of silently swallowed.
        """
        return getattr(self._sampler, "fallback_reason", None)


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
    operator).  ``chunk_size`` shapes only the pipelined engine's charging
    grid and changes no output.
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
    the accuracy weakness of Figures 4b/6c/7a.
    """

    name = "srs"
    engines = frozenset({BATCHED})

    _SRS_KEY = "__srs__"

    def bind(self, plan: ExecutionPlan) -> "BoundStrategy":
        return _BoundSRS(self, plan)


class _BoundSRS(_SeededBound):
    def sample_batch(self, ctx: StreamingContext, items: Sequence[object]) -> WeightedSample:
        rdd = ctx.rdd_of(items)
        sampled_rdd = rdd.sample(self.sampling_fraction, rng=self._rng)
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
    and barriers are all charged.
    """

    name = "sts"
    engines = frozenset({BATCHED})

    def bind(self, plan: ExecutionPlan) -> "BoundStrategy":
        return _BoundSTS(self, plan)


class _BoundSTS(_SeededBound):
    def sample_batch(self, ctx: StreamingContext, items: Sequence[object]) -> WeightedSample:
        key_fn = self.plan.query.key_fn
        rdd = ctx.rdd_of(items)
        sampled_rdd = rdd.sample_by_key(
            self.sampling_fraction, key_fn=key_fn, exact=True, rng=self._rng
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
    """The paper's OASRS (§3, Algorithm 3): one sampler, fed by every engine.

    * Batched engine (§4.2.1): items are sampled on the fly *before* RDD
      formation; only kept items pay the RDD copy and query processing.
      Each micro-batch's budget is ``sampling_fraction × batch size``,
      spread by the adaptive water-filling policy.
    * Pipelined (§4.2.2) and direct engines: the same sampler closes once
      per slide interval, with a budget the driver derives from the
      stream rate.

    The only strategy with ``supports_parallelism``: the sampler shards
    every interval over ``parallelism`` real worker processes through
    `repro.core.distributed.ShardedExecutor`.
    """

    name = "oasrs"
    engines = frozenset({BATCHED, PIPELINED, DIRECT})
    supports_parallelism = True
    samples_intervals = True

    def bind(self, plan: ExecutionPlan) -> "BoundStrategy":
        return _BoundOASRS(self, plan)


class _BoundOASRS(_SeededBound):
    def interval_sampler(self, budget: int, strata_hint: int):
        config = self.plan.config
        key_fn = self.plan.query.key_fn
        # §2.3: the sub-stream sources are declared at the aggregator, so
        # the first interval can already split its budget across them.
        policy = self._policy = WaterFillingAllocation(
            budget, expected_strata=strata_hint
        )
        if config.parallelism == 1:
            return OASRSSampler(policy, key_fn=key_fn, rng=self._rng)
        return ShardedIntervalSampler(
            ShardedExecutor(
                config.parallelism,
                policy,
                key_fn,
                seed=config.seed,
                faults=config.faults,
                metrics=self.telemetry.metrics if self.telemetry is not None else None,
                source=self.source,
            )
        )

    def _retarget(self, total: int) -> None:
        """Re-target the water-filling budget now (§4.2 feedback).

        ``close_interval`` already rebalanced the reservoirs with the
        previous budget, so the in-process sampler re-derives its (empty,
        start-of-interval) capacities — without this the adaptation would
        always lag one interval behind.  The sharded sampler needs nothing
        more: its workers receive the coordinator policy's attribute
        snapshot inside every interval message, so a re-target is just
        part of the next message — no shared state, no respawn.
        """
        self._policy.set_total(total)
        rebalance = getattr(self._sampler, "rebalance", None)
        if rebalance is not None:
            rebalance()

    def set_budget(self, total: int, interval_items: float) -> None:
        super().set_budget(total, interval_items)
        if self._sampler is not None:
            self._retarget(max(1, int(total)))

    def sample_batch(self, ctx: StreamingContext, items: Sequence[object]) -> WeightedSample:
        if not items:
            # An empty micro-batch must not collapse the policy's budget to
            # ``max(1, fraction·0) == 1``: the close-interval rebalance would
            # then rebuild every reservoir at ~1 slot and the *next* batch
            # would sample through the starved capacities before its own
            # budget re-set takes effect.  Nothing arrived, so there is
            # nothing to sample or charge — emit an empty pane contribution.
            return WeightedSample()
        budget = max(1, int(self.sampling_fraction * len(items)))
        if self._sampler is None:
            self.sampler(budget, count_strata(items, self.plan.query.key_fn))
        elif self._fraction_override is not None:
            self._retarget(budget)
        else:
            # Fixed fraction: takes effect at the close's ``observe``.
            self._policy.total = budget
        # On-the-fly sampling: every arriving item is offered (O(1) each)...
        ctx.cluster.sample_items(len(items), "oasrs")
        sample = self.sample_interval(items)
        # ...but only the kept items are turned into an RDD and processed — a
        # value-mode sample's as a column view, so no item tuple is built.
        kept = sample.all_items()
        rdd = ctx.rdd_of_presampled(kept, skipped=len(items) - len(kept))
        rdd.process_all()
        return sample
