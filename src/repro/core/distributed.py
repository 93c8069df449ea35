"""Distributed OASRS (§3.2) — the synchronization-free sharding scheme.

The paper's distribution scheme: a sub-stream handled by ``w`` workers is
split so each worker keeps a *local* reservoir of capacity ``⌈N_i / w⌉``
plus a local counter, and at interval close the coordinator concatenates
the local reservoirs, sums the local counters per stratum, and re-derives
the Equation-1 weight — no barrier, no shuffle, just one O(sample-size)
merge:

* `ShardedExecutor` — the scheme for ``workers`` shards, run in one
  process: each interval is cut round-robin into strided views, each
  shard is sampled by its own sampler, and the shard samples merge.  This
  is the executor behind ``SystemConfig(parallelism=N)``.  The shards run
  in turn: a forked process per shard never beat one process
  (``docs/architecture.md``, "§3.2 in one process").
* `ShardedIntervalSampler` — adapts the executor to the sampler duck
  type the runtime feeds (the sharded form of a run's one sampler).

The merge is `repro.core.strata.combine_worker_samples`, which the tests
verify is statistically indistinguishable from a single global reservoir.

Determinism contract: the coordinator draws one seed per *configured*
worker per interval and each live shard's sampler is rebuilt from its
seed, so a fresh run and a resumed run produce bitwise-identical samples,
and a kill changes nothing but the killed worker's shard.
"""

from __future__ import annotations

import math
import random
from typing import Generic, List, Optional, Sequence, TypeVar

from .oasrs import AllocationPolicy, KeyFn, OASRSSampler
from .recovery import FaultSchedule, RecoveryEvent, restore_attrs, snapshot_attrs
from .strata import WeightedSample, combine_worker_samples

T = TypeVar("T")

__all__ = ["ShardedExecutor", "ShardedIntervalSampler"]


class _ScaledPolicy(AllocationPolicy):
    """Wrap a policy so each worker gets a 1/w share of every reservoir."""

    def __init__(self, inner: AllocationPolicy, workers: int) -> None:
        self._inner = inner
        self._workers = workers

    def capacity_for(self, key, known_strata: int) -> int:
        full = self._inner.capacity_for(key, known_strata)
        return max(1, math.ceil(full / self._workers))


def _run_shard(
    shard: Sequence[T],
    policy: AllocationPolicy,
    key_fn: KeyFn,
    n_live: int,
    seed: int,
) -> WeightedSample[T]:
    """Sample one shard for one interval.

    The sampler is rebuilt from ``seed`` every interval — that is what
    keeps fresh and resumed executions bitwise identical: no RNG state
    survives inside a shard, only in the coordinator.
    """
    sampler: OASRSSampler = OASRSSampler(
        _ScaledPolicy(policy, n_live), key_fn=key_fn, rng=random.Random(seed)
    )
    sampler.offer_many(shard)
    return sampler.close_interval()


class ShardedExecutor(Generic[T]):
    """OASRS over ``workers`` shards: local reservoirs, one merge.

    Each interval the coordinator draws the shard seeds, cuts the interval
    round-robin into one strided view per live worker, samples every shard
    with a ``1/w`` share of each reservoir, and merges the shard samples
    by summing counters and re-deriving Equation-1 weights.

    Adaptive policies stay adaptive: after each merge the coordinator's
    policy observes the merged per-stratum counters, so the next interval's
    shards are sized from the whole interval, not from one shard.

    Example
    -------
    >>> from repro.core.oasrs import FixedPerStratum
    >>> ex = ShardedExecutor(4, FixedPerStratum(8), key_fn=lambda it: it[0],
    ...                      seed=1)
    >>> sample = ex.run([("a", i) for i in range(1000)])
    >>> sample["a"].count, sample["a"].sample_size
    (1000, 8)
    """

    def __init__(
        self,
        workers: int,
        policy: AllocationPolicy,
        key_fn: KeyFn,
        seed: Optional[int] = None,
        faults: Optional[FaultSchedule] = None,
    ) -> None:
        if workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        self.workers = workers
        self._policy = policy
        self._key_fn = key_fn
        self._rng = random.Random(seed)
        self._faults = faults
        self._live: List[int] = list(range(workers))
        self._intervals_run = 0
        self._recovery_log: List[RecoveryEvent] = []

    @property
    def live_workers(self) -> List[int]:
        """Worker ids still alive (permanent kills remove entries)."""
        return list(self._live)

    def drain_recovery_events(self) -> List[RecoveryEvent]:
        """Return and clear the worker-loss events since the last drain."""
        events, self._recovery_log = self._recovery_log, []
        return events

    # -- checkpoint / recovery --------------------------------------------

    def state(self) -> dict:
        """Plain-data snapshot of the executor's cross-interval state.

        Shard contents are per-interval, and shard samplers are rebuilt
        from coordinator-drawn seeds every interval, so what persists
        across intervals — and therefore checkpoints — is the seed RNG,
        the live-worker set, the interval counter the fault schedule
        indexes, and the adaptive policy's attributes.
        """
        return {
            "rng": self._rng.getstate(),
            "live": list(self._live),
            "intervals_run": self._intervals_run,
            "policy": snapshot_attrs(self._policy),
        }

    def restore(self, state: dict) -> None:
        """Restore a `state` snapshot exactly (RNG stream included)."""
        self._rng.setstate(state["rng"])
        self._live = list(state["live"])
        self._intervals_run = state["intervals_run"]
        restore_attrs(self._policy, state["policy"])
        self._recovery_log = []

    # -- fault injection ---------------------------------------------------

    def _inject_faults(
        self, kills, interval: int, live: List[int], shards: List[List[T]]
    ) -> List[int]:
        """Apply this interval's scheduled ``kills`` to the partitioned shards.

        Discard-and-rewiden (§3.2): the doomed worker's already-processed
        prefix is lost outright — its reservoir and counter die with it —
        and the unprocessed suffix is re-routed round-robin to surviving
        shards.  Counters stay exact for every item that survived, so the
        merged Equation-1 weights remain unbiased over the surviving
        sub-population; the pane simply covers fewer items and its CI
        widens.  Returns worker ids to remove from the live set after the
        interval (permanent kills).
        """
        killed_slots: set = set()
        remove: List[int] = []
        for kill in kills:
            try:
                slot = live.index(kill.worker)
            except ValueError:
                continue  # already dead (or never existed): nothing to kill
            if slot in killed_slots:
                continue
            killed_slots.add(slot)
            doomed = shards[slot]
            cut = int(len(doomed) * kill.after_fraction)
            lost, rerouted = doomed[:cut], doomed[cut:]
            shards[slot] = []
            targets = [s for s in range(len(shards)) if s not in killed_slots]
            if targets:
                for offset, item in enumerate(rerouted):
                    shards[targets[offset % len(targets)]].append(item)
            else:
                # No survivor to take the re-route: the whole shard is lost.
                lost, rerouted = doomed, []
            self._recovery_log.append(
                RecoveryEvent(
                    interval=interval,
                    worker=kill.worker,
                    items_lost=len(lost),
                    items_rerouted=len(rerouted),
                    permanent=kill.permanent,
                )
            )
            if kill.permanent:
                remove.append(kill.worker)
        return remove

    # -- interval execution ------------------------------------------------

    def run(self, items: Sequence[T]) -> WeightedSample[T]:
        """Sample one interval's items across all live shards and merge.

        The only cross-shard step is the final merge (counters add,
        reservoirs concatenate, weights re-derive) — there is no barrier or
        shuffle during the interval itself.  ``items`` may be a located
        column view: the shards are strided views of it, which the
        sampler's kernel takes without building a tuple per item.
        """
        if not hasattr(items, "__len__"):
            items = list(items)
        interval = self._intervals_run
        self._intervals_run += 1
        if not len(items):
            return WeightedSample()
        live = self._live
        if not live:
            raise RuntimeError("all shard workers have failed")
        n_live = len(live)
        # One seed per *configured* worker, drawn unconditionally, so the
        # shard RNG sequence is independent of failure history and the
        # no-fault path is bitwise identical to a fault-free executor.
        seeds = [self._rng.getrandbits(64) for _ in range(self.workers)]
        # Round-robin shards: strided slices, no per-item loop.
        shards = [items[slot::n_live] for slot in range(n_live)]
        remove: List[int] = []
        kills = self._faults.kills_for(interval) if self._faults is not None else []
        if kills:
            # Reroutes move single items between shards: plain lists.
            shards = [list(shard) for shard in shards]
            remove = self._inject_faults(kills, interval, live, shards)
        merged = combine_worker_samples([
            _run_shard(shard, self._policy, self._key_fn, n_live, seeds[worker])
            for shard, worker in zip(shards, live)
        ])
        observe = getattr(self._policy, "observe", None)
        if observe is not None:
            observe(dict(zip(merged.keys, merged.counts)))
        if remove:
            # The survivors re-widen: later intervals split each reservoir
            # over the shrunken live count.
            self._live = [w for w in live if w not in remove]
        return merged


class ShardedIntervalSampler(Generic[T]):
    """Adapt a `ShardedExecutor` to the interval-sampler duck type.

    The runtime feeds samplers through ``offer`` / ``offer_many`` /
    ``process_chunk`` / ``close_interval``.  This adapter buffers the
    interval's chunks *intact* — ``process_chunk`` and ``offer_many`` store
    the sequence they are handed by reference instead of re-buffering its
    items one by one, so an interval fed as one located column view reaches
    the executor still a view — and shards the buffer in one ``run`` at
    interval close.

    Example
    -------
    >>> from repro.core.oasrs import FixedPerStratum
    >>> sharded = ShardedIntervalSampler(
    ...     ShardedExecutor(2, FixedPerStratum(4), key_fn=lambda it: it[0], seed=1))
    >>> sharded.process_chunk([("a", i) for i in range(100)])
    >>> sharded.close_interval()["a"].count
    100
    """

    def __init__(self, executor: ShardedExecutor[T]) -> None:
        self._executor = executor
        self._chunks: List[Sequence[T]] = []
        self._tail: Optional[List[T]] = None

    def state(self) -> dict:
        """Snapshot the executor's cross-interval state plus the buffer.

        The buffer is flattened so checkpoints stay independent of how the
        producer chunked the in-flight interval.
        """
        return {
            "executor": self._executor.state(),
            "buffer": [item for chunk in self._chunks for item in chunk],
        }

    def restore(self, state: dict) -> None:
        self._executor.restore(state["executor"])
        buffered = list(state["buffer"])
        self._chunks = [buffered] if buffered else []
        self._tail = None

    def drain_recovery_events(self):
        return self._executor.drain_recovery_events()

    def offer(self, item: T) -> None:
        if self._tail is None:
            self._tail = []
            self._chunks.append(self._tail)
        self._tail.append(item)

    def process_chunk(self, items: Sequence[T]) -> None:
        """Buffer one chunk intact (by reference — hand over fresh chunks)."""
        self._tail = None
        self._chunks.append(items if hasattr(items, "__len__") else list(items))

    #: A whole run of items is buffered the same way, whoever cut it.
    offer_many = process_chunk

    def close_interval(self) -> WeightedSample[T]:
        chunks, self._chunks, self._tail = self._chunks, [], None
        if len(chunks) == 1:
            return self._executor.run(chunks[0])
        return self._executor.run([item for chunk in chunks for item in chunk])
