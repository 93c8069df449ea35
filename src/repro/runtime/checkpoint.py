"""Pane checkpoints: capture runtime state at interval boundaries, resume later.

Fault tolerance as a runtime service (ROADMAP item 3).  A checkpoint is
taken at pane boundaries — the only points where the sampling stack is
quiescent: the closing interval's reservoirs have been merged, the
`BudgetController` has issued its next-interval decision, and the next
interval's sampler holds zero items.  The snapshot is therefore small
(reservoir contents + counters + RNG states + controller trajectory) and
exact: resuming from it and replaying the stream from the recorded offset
produces panes bitwise identical to an uninterrupted run.

Three pieces:

* `CheckpointPolicy` — the ``SystemConfig(checkpoint=...)`` knob: how
  often (in panes) to snapshot.
* `PaneCheckpoint` — one immutable snapshot: plan identity, pane index /
  end-timestamp, the stream offset to replay from, the panes emitted so
  far, and the plain-data state dict.  Picklable (``to_bytes`` /
  ``from_bytes``) because the state deliberately contains no callables —
  the plan supplies ``key_fn`` / ``value_fn`` again on restore.
* `CheckpointStore` — an in-memory (optionally file-backed) map from pane
  index to checkpoint.

The replay-offset contract: ``stream_position`` indexes the *merged,
materialized* event list a `PlanSource` yields.  For `ListSource` that is
trivially stable; for `TopicSource` it is stable because the broker
stamps every record with a topic-global ``seq`` and the source merges
partitions by ``(timestamp, seq)`` — re-draining the topic reproduces the
exact production order, so slicing at ``stream_position`` resumes at
precisely the first un-consumed event.  `build_plan` enforces this
(`PlanError` for non-replayable sources).

State-snapshot primitives for the core sampling objects live in
`repro.core.recovery`; this module adds the runtime-side pieces (the
`BudgetController` and the sampler dispatch a bound strategy's
``state()`` / ``restore()`` go through) and the storage layer.  A
checkpoint's ``state`` has three owners: ``"strategy"`` (the bound
strategy, holding the run's one sampler under ``"sampler"``),
``"controller"``, and the engine's window history.  This module must
stay importable from ``runtime/config.py`` — it imports only
``repro.core``.
"""

from __future__ import annotations

import copy
import pickle
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..core.budget import AdaptiveSampleSizeController
from ..core.distributed import ShardedIntervalSampler
from ..core.recovery import (
    restore_attrs,
    restore_sampler,
    sampler_state,
    snapshot_attrs,
)

__all__ = [
    "CheckpointPolicy",
    "PaneCheckpoint",
    "CheckpointStore",
    "controller_state",
    "restore_controller",
    "interval_sampler_state",
    "restore_interval_sampler",
]


@dataclass(frozen=True)
class CheckpointPolicy:
    """How often the runtime snapshots pane state.

    ``every=k`` checkpoints after every k-th pane; 1 (the default)
    checkpoints every pane boundary.
    """

    every: int = 1

    def __post_init__(self) -> None:
        if self.every < 1:
            raise ValueError(f"checkpoint every must be >= 1, got {self.every}")


#: Layout version of `PaneCheckpoint.state`, checked on resume.  Bump it
#: when a change adds, removes or re-homes anything a checkpoint carries —
#: not for a new interval *feed*: an interval closes before a pane boundary.
#: 1 is the one-sampler layout; 2 keeps it, but the direct engine's moment
#: ``history`` holds `repro.core.query.interval_moments` records instead of
#: ``(key, y, c, Σv, Σv²)`` tuples; 3 keeps that, but the direct engine's
#: ``history`` holds interval samples, as the other engines' histories do;
#: 4 keeps that, but the pipelined engine's state is the same ``history``
#: (no ``recent`` pairs) and its exact path carries none (no ``pane_items``:
#: a resumed run re-reads its panes from the replayed stream).
#: An unstamped pickle reads as 0.
CHECKPOINT_FORMAT = 4


@dataclass(frozen=True)
class PaneCheckpoint:
    """One pane-boundary snapshot of a running plan.

    ``stream_position`` is the index into the source's merged event list
    of the first event *not yet consumed*; ``results`` are the panes
    emitted so far (they are part of the run's output, not recomputable
    without replaying from zero); ``state`` is the plain-data snapshot of
    every stateful runtime object (the strategy with its sampler, the
    controller, the engine's window history) in layout ``format``.
    """

    plan_name: str
    engine: str
    strategy: str
    pane_index: int
    pane_end: float
    stream_position: int
    results: Tuple[Any, ...]
    state: Dict[str, Any]
    format: int = CHECKPOINT_FORMAT

    def __setstate__(self, state: Dict[str, Any]) -> None:
        # An unstamped (older) pickle must not pick up the class default.
        self.__dict__.update({"format": 0, **state})

    def to_bytes(self) -> bytes:
        return pickle.dumps(self)

    @staticmethod
    def from_bytes(data: bytes) -> "PaneCheckpoint":
        checkpoint = pickle.loads(data)
        if not isinstance(checkpoint, PaneCheckpoint):
            raise TypeError(
                f"expected a pickled PaneCheckpoint, got {type(checkpoint).__name__}"
            )
        return checkpoint


class CheckpointStore:
    """Pane-indexed checkpoint storage.

    In-memory by default; ``dump`` / ``load`` move the whole store through
    a file for cross-process resume.  The newest checkpoint wins ties on
    pane index (a resumed run re-saves the panes it re-reaches).
    """

    def __init__(self) -> None:
        self._checkpoints: Dict[int, PaneCheckpoint] = {}

    def save(self, checkpoint: PaneCheckpoint) -> None:
        self._checkpoints[checkpoint.pane_index] = checkpoint

    def get(self, pane_index: int) -> Optional[PaneCheckpoint]:
        return self._checkpoints.get(pane_index)

    def latest(self) -> Optional[PaneCheckpoint]:
        if not self._checkpoints:
            return None
        return self._checkpoints[max(self._checkpoints)]

    def indices(self) -> List[int]:
        return sorted(self._checkpoints)

    def __len__(self) -> int:
        return len(self._checkpoints)

    def dump(self, path: str) -> None:
        with open(path, "wb") as fh:
            pickle.dump(list(self._checkpoints.values()), fh)

    @classmethod
    def load(cls, path: str) -> "CheckpointStore":
        store = cls()
        with open(path, "rb") as fh:
            checkpoints = pickle.load(fh)
        for checkpoint in checkpoints:
            if not isinstance(checkpoint, PaneCheckpoint):
                raise TypeError(
                    f"checkpoint file holds {type(checkpoint).__name__}, "
                    "expected PaneCheckpoint entries"
                )
            store.save(checkpoint)
        return store


# ---------------------------------------------------------------------------
# Runtime-object snapshots
# ---------------------------------------------------------------------------


def controller_state(controller) -> Dict[str, Any]:
    """Snapshot a `BudgetController`: cost model, trajectory, feedback loop."""
    feedback = controller._feedback
    return {
        "vcf": snapshot_attrs(controller.vcf),
        "trajectory": list(controller.trajectory),
        "total": controller._total,
        "feedback": None if feedback is None else snapshot_attrs(feedback),
    }


def restore_controller(controller, state: Dict[str, Any]) -> None:
    """Restore a `controller_state` snapshot onto a same-config controller."""
    restore_attrs(controller.vcf, state["vcf"])
    controller.trajectory[:] = state["trajectory"]
    controller._total = state["total"]
    if state["feedback"] is None:
        controller._feedback = None
    else:
        feedback = AdaptiveSampleSizeController.__new__(AdaptiveSampleSizeController)
        feedback.__dict__.update(copy.deepcopy(state["feedback"]))
        controller._feedback = feedback


def interval_sampler_state(sampler) -> Dict[str, Any]:
    """Snapshot a run's sampler, whatever its execution mode.

    Dispatches on the two sampler shapes the runtime builds: the
    `OASRSSampler` and the `ShardedIntervalSampler` wrapper around the
    §3.2 executor.  The sharded snapshot needs nothing from the shards:
    shard samplers are rebuilt from coordinator-drawn seeds every
    interval, so the coordinator's RNG / live-set / policy snapshot (plus
    the flattened in-flight buffer) is the whole resumable state.
    """
    if isinstance(sampler, ShardedIntervalSampler):
        return {"kind": "sharded", "state": sampler.state()}
    return {"kind": "oasrs", "state": sampler_state(sampler)}


def restore_interval_sampler(sampler, payload: Dict[str, Any]) -> None:
    """Restore an `interval_sampler_state` snapshot onto a rebuilt sampler."""
    kind = payload["kind"]
    if kind == "sharded":
        if not isinstance(sampler, ShardedIntervalSampler):
            raise ValueError(
                "checkpoint was taken with parallelism > 1 (sharded sampler); "
                "resume the plan with the same parallelism"
            )
        sampler.restore(payload["state"])
    elif kind == "oasrs":
        if isinstance(sampler, ShardedIntervalSampler):
            raise ValueError(
                "checkpoint was taken without parallelism (unsharded sampler); "
                "resume the plan with the same parallelism"
            )
        restore_sampler(sampler, payload["state"])
    else:  # pragma: no cover - corrupt payloads only
        raise ValueError(f"unknown interval sampler kind {kind!r}")
