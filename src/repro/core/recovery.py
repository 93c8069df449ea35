"""Fault tolerance for distributed OASRS: snapshots, faults, recovery.

§3.2's distributed execution keeps per-worker reservoirs and counters with
no synchronization — which also means a worker crash mid-interval loses
only *its own* reservoir and counter, never global state.  This module
makes that recovery story concrete, and supplies the state-snapshot
primitives the runtime checkpoint layer (`repro.runtime.checkpoint`) is
built on:

* **Snapshot primitives** — `sampler_state` / `snapshot_attrs` capture an
  `OASRSSampler` or allocation policy as plain data (RNG state included,
  down to the NumPy generator the chunk kernel draws from), and their
  ``restore_*`` counterparts rebuild *exactly* that state.  "Exactly"
  is the contract: a restored sampler draws the same random numbers the
  original would have, so post-restore panes are bitwise identical to an
  uninterrupted run.
* **Fault schedules** — `ShardKill` / `FaultSchedule` describe
  deterministic worker-loss injections for `ShardedExecutor`, and
  `RecoveryEvent` is the per-incident record executors surface to pane
  results.
* `ResilientDistributedOASRS` wraps `DistributedOASRS`-style execution
  with per-worker liveness: a failed worker's un-checkpointed state is
  discarded, its routed items are re-routed to survivors from the failure
  point on, and the interval's weights remain *correct for the items that
  survived* (Equation 1 is per-stratum over observed counts, so dropping
  a worker's counts keeps the estimator unbiased over the remaining
  sub-population — the estimate simply covers fewer items, and the error
  bound widens accordingly).
* Optional **checkpointing**: a worker snapshots its full sampler state
  (reservoirs + counters + RNG, via `sampler_state`) at item-count
  boundaries; on failure the last checkpoint is restored, so only the
  items since the checkpoint are lost rather than the interval.  The
  snapshot format is the same one chunked execution runs on — a restored
  worker continues through `OASRSSampler.process_chunk` with no format
  translation, so checkpoints and chunked execution cannot diverge.
"""

from __future__ import annotations

import copy
import random
from array import array
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    Generic,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from ._vector import np as _np
from .oasrs import AllocationPolicy, KeyFn, OASRSSampler
from .strata import WeightedSample, combine_worker_samples

T = TypeVar("T")

__all__ = [
    "WorkerFailure",
    "ResilientDistributedOASRS",
    "RecoveryEvent",
    "ShardKill",
    "FaultSchedule",
    "sampler_state",
    "restore_sampler",
    "snapshot_attrs",
    "restore_attrs",
]


class WorkerFailure(Exception):
    """Raised internally to simulate a worker crash (failure injection)."""


# ---------------------------------------------------------------------------
# State snapshots: plain-data capture/restore of the sampling stack
# ---------------------------------------------------------------------------


def snapshot_attrs(obj: Any) -> Dict[str, Any]:
    """Deep-copy an object's ``__dict__`` — the generic state snapshot.

    Works for every allocation policy (they hold only plain counters and
    dicts) and for any other slot-less stateful helper whose behavior is
    fully determined by its attributes.
    """
    return copy.deepcopy(obj.__dict__)


def restore_attrs(obj: Any, state: Dict[str, Any]) -> None:
    """Restore a `snapshot_attrs` snapshot *in place*.

    In-place restoration matters: the runtime shares policy objects between
    samplers, executors, and bound strategies, and swapping attributes
    (rather than the object) keeps every alias valid.
    """
    obj.__dict__.clear()
    obj.__dict__.update(copy.deepcopy(state))


def sampler_state(sampler: OASRSSampler) -> Dict[str, Any]:
    """Capture an `OASRSSampler` mid-stream as plain data.

    Includes the shared ``random.Random`` state, the chunk kernel's NumPy
    generator (by value — `derive_generator` consumes bits from the parent
    ``random.Random``, so re-deriving on restore would desynchronize every
    later draw), the strata in numbering order with their capacities and
    counters, the interval's store (item lists, or the used part of the
    value buffer with its region offsets), and the allocation policy's
    attributes.  Callables (``key_fn``) are deliberately *not* captured:
    restore targets a sampler built by the same plan, which supplies them.
    """
    gen = sampler._gen
    return {
        "rng": sampler._rng.getstate(),
        "gen": None if gen is None else copy.deepcopy(gen.bit_generator.state),
        "keys": list(sampler._keys),
        "cap": sampler._cap.tolist(),
        "seen": list(sampler._counts()),
        "kept": [list(store) for store in sampler._kept],
        "value_mode": sampler._value_mode,
        "offset": sampler._offset.tolist(),
        "room": sampler._room,
        "values": (
            sampler._values[: sampler._room].copy() if sampler._value_mode else None
        ),
        "policy": snapshot_attrs(sampler._policy),
    }


def restore_sampler(sampler: OASRSSampler, state: Dict[str, Any]) -> OASRSSampler:
    """Restore a `sampler_state` snapshot onto a structurally-equal sampler.

    The target must have been built with the same key function and policy
    type (the plan rebuilds it); this overwrites its RNGs, strata, store,
    and policy attributes with the checkpointed values.
    """
    sampler._rng.setstate(state["rng"])
    sampler._gen = None
    if state["gen"] is not None:
        sampler._gen = _np.random.default_rng(0)
        sampler._gen.bit_generator.state = copy.deepcopy(state["gen"])
    restore_attrs(sampler._policy, state["policy"])
    sampler._keys = list(state["keys"])
    sampler._index = {key: number for number, key in enumerate(sampler._keys)}
    sampler._cap = array("q", state["cap"])
    sampler._seen = list(state["seen"])
    sampler._chunked = False
    sampler._kept = [list(store) for store in state["kept"]]
    sampler._value_mode = state["value_mode"]
    if sampler._value_mode:
        sampler._count_in_array()
    sampler._offset = array("q", state["offset"])
    sampler._room = state["room"]
    if state["values"] is not None:
        sampler._values = state["values"].copy()
    sampler._lut = sampler._lut_table = None
    return sampler


# ---------------------------------------------------------------------------
# Fault injection schedules and recovery records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShardKill:
    """Deterministically kill one shard worker during one interval.

    The worker dies after processing ``after_fraction`` of its shard: that
    prefix is lost (discard-and-rewiden), the remaining items are re-routed
    to the surviving shards.  ``permanent`` removes the worker from the
    live set for all later intervals; otherwise it restarts (empty) at the
    next interval.
    """

    interval: int
    worker: int
    after_fraction: float = 0.5
    permanent: bool = False

    def __post_init__(self) -> None:
        if self.interval < 0:
            raise ValueError(f"interval must be >= 0, got {self.interval}")
        if self.worker < 0:
            raise ValueError(f"worker must be >= 0, got {self.worker}")
        if not 0.0 <= self.after_fraction <= 1.0:
            raise ValueError(
                f"after_fraction must be in [0, 1], got {self.after_fraction}"
            )


@dataclass(frozen=True)
class FaultSchedule:
    """A deterministic set of `ShardKill` injections for one run."""

    kills: Tuple[ShardKill, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "kills", tuple(self.kills))
        for kill in self.kills:
            if not isinstance(kill, ShardKill):
                raise ValueError(f"kills must be ShardKill instances, got {kill!r}")

    def kills_for(self, interval: int) -> List[ShardKill]:
        return [kill for kill in self.kills if kill.interval == interval]


@dataclass(frozen=True)
class RecoveryEvent:
    """One worker-loss incident, as surfaced on the pane it happened in."""

    interval: int
    worker: int
    items_lost: int
    items_rerouted: int
    permanent: bool = False


# ---------------------------------------------------------------------------
# Resilient distributed sampler (in-process liveness model)
# ---------------------------------------------------------------------------


class _Worker(Generic[T]):
    """One sampling worker with full-state snapshot/restore support."""

    def __init__(self, policy: AllocationPolicy, key_fn: KeyFn, seed: int) -> None:
        self._policy = policy
        self._key_fn = key_fn
        self._seed = seed
        self.sampler: OASRSSampler[T] = OASRSSampler(
            policy, key_fn=key_fn, rng=random.Random(seed)
        )
        self.alive = True
        self.items_since_checkpoint = 0
        self._checkpoint: Optional[Dict[str, Any]] = None
        self._checkpoint_count = 0

    def offer(self, item: T) -> None:
        self.sampler.offer(item)
        self.items_since_checkpoint += 1

    def process_chunk(self, items: Sequence[T]) -> None:
        """Absorb a chunk through the vectorized sampler path."""
        self.sampler.process_chunk(items)
        self.items_since_checkpoint += len(items)

    def checkpoint(self) -> None:
        """Snapshot the full sampler state (reservoirs + counters + RNG).

        The snapshot is `sampler_state` plain data — the exact state the
        chunk-first execution path runs on — so a restored worker resumes
        with the same reservoirs, counters, and RNG stream it would have
        had, rather than an approximate peeked sample.
        """
        self._checkpoint = sampler_state(self.sampler)
        self._checkpoint_count = self.sampler.peek().total_count
        self.items_since_checkpoint = 0

    def crash(self) -> None:
        self.alive = False

    def recover(self) -> int:
        """Restart from the last checkpoint (or empty); return items kept.

        Restoration is exact: the checkpointed RNG state is reinstated, so
        the restarted worker is bitwise the worker at checkpoint time —
        there is no reseeding drift between the snapshot and live state.
        """
        restored = 0
        if self._checkpoint is not None:
            restore_sampler(self.sampler, self._checkpoint)
            restored = self._checkpoint_count
        else:
            self.sampler = OASRSSampler(
                self._policy, key_fn=self._key_fn, rng=random.Random(self._seed)
            )
        self.alive = True
        self.items_since_checkpoint = 0
        return restored


class ResilientDistributedOASRS(Generic[T]):
    """Distributed OASRS that tolerates worker crashes mid-interval.

    Parameters mirror `DistributedOASRS`; additionally ``checkpoint_every``
    (items per worker) bounds the loss window when a worker dies.
    """

    def __init__(
        self,
        workers: int,
        policy_factory,
        key_fn: KeyFn,
        rng: Optional[random.Random] = None,
        checkpoint_every: Optional[int] = None,
    ) -> None:
        if workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        if checkpoint_every is not None and checkpoint_every <= 0:
            raise ValueError("checkpoint_every must be positive when given")
        base = rng if rng is not None else random.Random()
        self.workers: List[_Worker[T]] = [
            _Worker(policy_factory(), key_fn, seed=base.getrandbits(32))
            for _ in range(workers)
        ]
        self.checkpoint_every = checkpoint_every
        self._index = 0
        self.items_lost = 0
        self.failures_seen = 0

    # -- routing ----------------------------------------------------------

    def _alive_workers(self) -> List[int]:
        return [i for i, w in enumerate(self.workers) if w.alive]

    def offer(self, item: T) -> int:
        """Route one item to a live worker (round-robin over survivors)."""
        alive = self._alive_workers()
        if not alive:
            raise RuntimeError("all workers have failed")
        worker_id = alive[self._index % len(alive)]
        self._index += 1
        worker = self.workers[worker_id]
        worker.offer(item)
        self._maybe_checkpoint(worker)
        return worker_id

    def offer_many(self, items: Iterable[T]) -> None:
        for item in items:
            self.offer(item)

    def process_chunk(self, items: Sequence[T]) -> None:
        """Route a chunk across live workers through the vectorized path.

        Items are distributed round-robin starting at the current routing
        index (matching per-item ``offer`` order), but each worker absorbs
        its share in one `OASRSSampler.process_chunk` call.
        """
        alive = self._alive_workers()
        if not alive:
            raise RuntimeError("all workers have failed")
        shares: Dict[int, List[T]] = {worker_id: [] for worker_id in alive}
        routed = 0
        for offset, item in enumerate(items):
            worker_id = alive[(self._index + offset) % len(alive)]
            shares[worker_id].append(item)
            routed += 1
        self._index += routed
        for worker_id, share in shares.items():
            if not share:
                continue
            worker = self.workers[worker_id]
            worker.process_chunk(share)
            self._maybe_checkpoint(worker)

    def _maybe_checkpoint(self, worker: _Worker[T]) -> None:
        if (
            self.checkpoint_every is not None
            and worker.items_since_checkpoint >= self.checkpoint_every
        ):
            worker.checkpoint()

    # -- failure injection ---------------------------------------------------

    def fail_worker(self, worker_id: int) -> None:
        """Crash one worker: its un-checkpointed interval state is lost.

        If the worker had a checkpoint, the worker restarts *from* that
        exact state (reservoirs, counters, RNG) and its checkpointed items
        stay in the interval's result; everything it absorbed since the
        checkpoint is gone (counted in ``items_lost``).
        """
        worker = self.workers[worker_id]
        if not worker.alive:
            return
        self.failures_seen += 1
        self.items_lost += worker.items_since_checkpoint
        worker.crash()
        worker.recover()

    # -- interval close ----------------------------------------------------------

    def close_interval(self) -> WeightedSample[T]:
        """Merge survivors' samples for the interval (restored state included)."""
        parts = [w.sampler.close_interval() for w in self.workers if w.alive]
        self._index = 0
        self.items_lost = 0
        for worker in self.workers:
            worker._checkpoint = None
            worker._checkpoint_count = 0
            worker.items_since_checkpoint = 0
        return combine_worker_samples(parts)

    def coverage(self, items_routed: int) -> float:
        """Fraction of routed items still represented after failures."""
        if items_routed == 0:
            return 1.0
        return max(0.0, 1.0 - self.items_lost / items_routed)
