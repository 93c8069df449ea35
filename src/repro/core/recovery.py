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
  results.  A killed worker's processed prefix is discarded and the rest
  of its shard re-routed to survivors; the interval's weights remain
  *correct for the items that survived* (Equation 1 is per-stratum over
  observed counts, so dropping a worker's counts keeps the estimator
  unbiased over the remaining sub-population — the estimate simply covers
  fewer items, and the error bound widens accordingly).
"""

from __future__ import annotations

import copy
from array import array
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

import numpy as _np

from .oasrs import OASRSSampler

__all__ = [
    "RecoveryEvent",
    "ShardKill",
    "FaultSchedule",
    "sampler_state",
    "restore_sampler",
    "snapshot_attrs",
    "restore_attrs",
]


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

    Includes the shared ``random.Random`` state, the kernel's NumPy
    generator (by value — deriving it consumed bits from the parent
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
        "seen": sampler._seen.tolist(),
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
    sampler._seen = _np.array(state["seen"], dtype=_np.int64)
    sampler._kept = [list(store) for store in state["kept"]]
    sampler._value_mode = state["value_mode"]
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

