"""Distributed OASRS execution (§3.2) — a persistent multi-process executor.

The paper's synchronization-free distribution scheme: a sub-stream
handled by ``w`` workers is split so each worker keeps a *local* reservoir
of capacity ``⌈N_i / w⌉`` plus a local counter, and at interval close the
coordinator concatenates the local reservoirs, sums the local counters per
stratum, and re-derives the Equation-1 weight — no barrier, no shuffle,
just one O(sample-size) merge:

* `ShardedExecutor` — **real parallel execution**: spawns ``workers``
  operating-system processes *once per run* (fork start method, so
  closure-based key functions and the run's stream reach the children
  without pickling), keeps them alive across intervals, and drives them
  with small per-interval control messages.  The process boundary carries
  one format per direction:

  - **in** — an interval delivered as located column views tiling one
    row range of the run's stream (every interval of a column-backed
    run: direct slide intervals, batched micro-batches, pipelined
    intervals) is named by its ``[lo, hi)`` index span; each forked
    worker slices its own round-robin shard out of the inherited stream
    and feeds it to its sampler in one ``offer_many``.  Anything else —
    fault-injection reroutes, records the columns cannot represent —
    crosses as a pickled item list.
  - **out** — a stratum sampled from column views comes back as its
    ``float64`` value array (no per-item tuple is built on either side);
    only strata that really hold item tuples return them.

  This is the executor behind ``SystemConfig(parallelism=N)``.
* `ShardedIntervalSampler` — adapts the executor to the sampler duck
  type the runtime feeds (the sharded form of a run's one sampler).

The merge is `repro.core.strata.combine_worker_samples`, which the tests
verify is statistically indistinguishable from a single global reservoir.

Determinism contract: the coordinator draws one seed per *configured*
worker per interval and each live worker rebuilds its shard sampler from
its seed, so a pooled run, the in-process fallback (``REPRO_NO_MP``, no
fork support, one live worker, or a mid-run pool failure) and a resumed
run all produce bitwise-identical samples.  When the pool degrades, the
reason is recorded in ``fallback_reason`` and surfaced as
``SystemReport.parallel_fallback`` instead of being swallowed.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import random
from time import perf_counter
from typing import (
    Collection,
    Generic,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from ..obs import NULL_METRICS
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
) -> tuple:
    """Sample one shard for one interval; return a picklable payload.

    The sampler is rebuilt from ``seed`` every interval — that is what
    keeps pooled, in-process, and resumed executions bitwise identical:
    no RNG state survives inside a worker, only in the coordinator.

    The payload is the shard's `WeightedSample` as the arguments of
    `WeightedSample.of_columns`: keys, counts, kept sizes, and the packed
    ``float64`` values when the sampler fed on column views, the per-stratum
    item tuples otherwise.
    """
    sampler: OASRSSampler = OASRSSampler(
        _ScaledPolicy(policy, n_live), key_fn=key_fn, rng=random.Random(seed)
    )
    sampler.offer_many(shard)
    sample = sampler.close_interval()
    members = None if sample.packed is not None else sample.members
    return sample.keys, sample.counts, sample.sizes, sample.packed, members


# ---------------------------------------------------------------------------
# The persistent worker pool
# ---------------------------------------------------------------------------


def _pool_worker_main(conn, policy, key_fn, source) -> None:
    """Long-lived shard worker: serve one interval per control message.

    Runs in a forked child, so ``policy`` (a copy-on-write snapshot),
    ``key_fn`` (closures included), and ``source`` (the run's timestamped
    stream, when the executor was given one) arrive by memory inheritance,
    never by pickle.  Each ``interval`` message carries the seed, the
    live-worker count, the coordinator policy's attribute snapshot (the
    budget re-target channel) and the shard — ``("span", lo, hi, slot)``
    over the inherited stream or ``("items", shard)`` pickled; the reply
    is the shard's `_run_shard` payload plus the worker's locally
    accumulated ``(items_seen, items_kept, shard_seconds)`` stats — the
    telemetry channel for costs the coordinator cannot observe from
    outside the process.
    """
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            if message[0] != "interval":
                break  # "stop"
            _cmd, seed, n_live, policy_state, transport = message
            restore_attrs(policy, policy_state)
            if transport[0] == "span":
                _kind, lo, hi, slot = transport
                # A strided zero-copy view: the columnar kernel consumes it
                # bitwise-identically to per-item grouping.
                shard = source.item_slice(lo, hi)[slot::n_live]
            else:  # "items": fault reroutes, records off the pinned columns
                shard = transport[1]
            started = perf_counter()
            payload = _run_shard(shard, policy, key_fn, n_live, seed)
            kept = sum(payload[2])
            conn.send((payload, (len(shard), kept, perf_counter() - started)))
    except KeyboardInterrupt:
        pass
    finally:
        try:
            conn.close()
        except OSError:
            pass


class _PoolWorker(NamedTuple):
    """Coordinator-side handle for one live worker process."""

    process: object
    conn: object


class ShardedExecutor(Generic[T]):
    """Real multi-core OASRS: a persistent process per shard, one merge.

    The worker pool spawns lazily on the first parallel interval and
    stays up for the whole run — no per-interval ``Pool`` construction.
    Each interval the coordinator draws the shard seeds, snapshots the
    allocation policy (so budget re-targets reach workers without their
    ever re-reading shared state), names each worker's shard (an index
    span over ``source``, or a pickled item list), and merges the returned
    shard samples by summing counters and re-deriving Equation-1 weights —
    the paper's synchronization-free distributed execution, on actual
    cores.

    ``source`` is the run's ``(timestamp, item)`` stream.  Workers fork
    with it inherited, so `run` / `run_chunks` ship two integers instead
    of the items whenever their input is one contiguous run of located
    `repro.core.records.ColumnSlice` views of it.

    Adaptive policies stay adaptive: after each merge the *coordinator's*
    policy observes the merged per-stratum counters, and the next
    interval's messages carry the rebalanced capacities.

    Falls back to in-process execution — bitwise identical, see the module
    docstring — when ``workers == 1``, the platform lacks fork,
    ``REPRO_NO_MP`` is set, or the pool fails mid-run; the reason is
    recorded in ``fallback_reason``.  ``close`` drains the pool (drivers
    call it when the run reports); ``restore`` tears the pool down so a
    resumed run re-spawns workers against the restored live set.

    Example
    -------
    >>> from repro.core.oasrs import FixedPerStratum
    >>> ex = ShardedExecutor(4, FixedPerStratum(8), key_fn=lambda it: it[0],
    ...                      seed=1)
    >>> sample = ex.run([("a", i) for i in range(1000)])
    >>> sample["a"].count, sample["a"].sample_size
    (1000, 8)
    >>> ex.close()
    """

    def __init__(
        self,
        workers: int,
        policy: AllocationPolicy,
        key_fn: KeyFn,
        seed: Optional[int] = None,
        faults: Optional[FaultSchedule] = None,
        metrics=None,
        source: Optional[Sequence] = None,
    ) -> None:
        if workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        self.workers = workers
        self._policy = policy
        self._key_fn = key_fn
        self._rng = random.Random(seed)
        self._faults = faults
        self._source = source
        self._live: List[int] = list(range(workers))
        self._intervals_run = 0
        self._recovery_log: List[RecoveryEvent] = []
        self.last_run_parallel = False
        #: Why parallel execution degraded to in-process, or None while the
        #: pool is healthy.  First cause wins; never cleared mid-run.
        self.fallback_reason: Optional[str] = None
        self._pool: Optional[dict] = None
        # Bound once here so the interval loop never does a registry
        # lookup; with metrics=None every instrument is a shared no-op.
        metrics = metrics if metrics is not None else NULL_METRICS
        self._m_spawned = metrics.counter("pool.workers_spawned")
        self._m_snapshots = metrics.counter("pool.policy_snapshots")
        self._m_failures = metrics.counter("pool.failures")
        self._m_worker_items = metrics.counter("pool.worker_items")
        self._m_worker_kept = metrics.counter("pool.worker_kept")
        self._m_shard_seconds = metrics.histogram("pool.shard_seconds")
        self._m_span = metrics.counter("transport.span_intervals")
        self._m_pickled = metrics.counter("transport.pickle_intervals")
        self._m_inprocess = metrics.counter("transport.inprocess_intervals")

    # -- availability ------------------------------------------------------

    @staticmethod
    def _parallel_blocker() -> Optional[str]:
        if os.environ.get("REPRO_NO_MP"):
            return "REPRO_NO_MP forces in-process execution"
        if "fork" not in multiprocessing.get_all_start_methods():
            return "platform lacks the fork start method"
        return None

    def _note_fallback(self, reason: str) -> None:
        if self.fallback_reason is None:
            self.fallback_reason = reason

    @property
    def live_workers(self) -> List[int]:
        """Worker ids still alive (permanent kills remove entries)."""
        return list(self._live)

    @property
    def pooled(self) -> bool:
        """True while the persistent worker pool is spawned."""
        return self._pool is not None

    def drain_recovery_events(self) -> List[RecoveryEvent]:
        """Return and clear the worker-loss events since the last drain."""
        events, self._recovery_log = self._recovery_log, []
        return events

    # -- checkpoint / recovery --------------------------------------------

    def state(self) -> dict:
        """Plain-data snapshot of the executor's cross-interval state.

        Shard contents are per-interval, and worker samplers are rebuilt
        from coordinator-drawn seeds every interval, so at a pane boundary
        the pool holds no state of its own; what persists across intervals
        — and therefore checkpoints — is the seed RNG, the live-worker
        set, the interval counter the fault schedule indexes, and the
        adaptive policy's attributes.
        """
        return {
            "rng": self._rng.getstate(),
            "live": list(self._live),
            "intervals_run": self._intervals_run,
            "policy": snapshot_attrs(self._policy),
        }

    def restore(self, state: dict) -> None:
        """Restore a `state` snapshot exactly (RNG stream included).

        Tears the worker pool down: the restored live set may not match
        the spawned processes (a resumed run replays kills itself), so the
        next parallel interval re-spawns workers from the restored state.
        """
        self.close()
        self._rng.setstate(state["rng"])
        self._live = list(state["live"])
        self._intervals_run = state["intervals_run"]
        restore_attrs(self._policy, state["policy"])
        self._recovery_log = []

    # -- pool lifecycle ----------------------------------------------------

    def _ensure_pool(self) -> bool:
        if self._pool is not None:
            return True
        pool: dict = {}
        try:
            ctx = multiprocessing.get_context("fork")
            for worker_id in self._live:
                parent_conn, child_conn = ctx.Pipe()
                process = ctx.Process(
                    target=_pool_worker_main,
                    args=(
                        child_conn,
                        self._policy,
                        self._key_fn,
                        self._source,
                    ),
                    daemon=True,
                )
                process.start()
                child_conn.close()
                pool[worker_id] = _PoolWorker(process, parent_conn)
                self._m_spawned.inc()
        except (OSError, ValueError, RuntimeError) as exc:
            self._stop_workers(pool.values(), graceful=False)
            self._note_fallback(
                f"worker pool spawn failed ({type(exc).__name__}: {exc}); "
                "running in-process"
            )
            return False
        self._pool = pool
        return True

    @staticmethod
    def _stop_workers(workers: Collection[_PoolWorker], graceful: bool = True) -> None:
        """Stop worker processes: ask (``graceful``), join, terminate stragglers.

        Every worker is asked before any is joined, so a pool drains in
        parallel rather than one join timeout after another.
        """
        if graceful:
            for worker in workers:
                try:
                    worker.conn.send(("stop",))
                except (OSError, ValueError):
                    pass
        for worker in workers:
            if graceful:
                worker.process.join(timeout=1.0)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=1.0)
            try:
                worker.conn.close()
            except OSError:
                pass

    def close(self) -> None:
        """Drain the worker pool; idempotent, safe on never-spawned pools."""
        pool, self._pool = self._pool, None
        if pool:
            self._stop_workers(pool.values())

    def __del__(self):  # pragma: no cover - interpreter-shutdown safety net
        try:
            self.close()
        except Exception:
            pass

    def _retire(self, worker_ids: List[int]) -> None:
        """Remove permanently killed workers; terminate their processes.

        The pool re-widens over the survivors: subsequent intervals
        message only the remaining live workers, whose 1/w capacity scale
        follows the shrunken live count.
        """
        self._live = [w for w in self._live if w not in worker_ids]
        if self._pool is not None:
            self._stop_workers(
                [self._pool.pop(w) for w in worker_ids if w in self._pool],
                graceful=False,
            )

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

        The only cross-worker step is the final merge (counters add,
        reservoirs concatenate, weights re-derive) — there is no barrier or
        shuffle during the interval itself.
        """
        if not hasattr(items, "__len__"):
            items = list(items)
        return self.run_chunks((items,))

    def run_chunks(self, chunks: Sequence[Sequence[T]]) -> WeightedSample[T]:
        """Sample one interval delivered as chunks, in order.

        Chunks that are one contiguous run of located views of ``source``
        (the column-backed engines deliver exactly those) go out as that
        run's index span — pooled workers slice their shard out of the
        fork-inherited stream themselves, so the interval message is a few
        integers however many items it covers; anything else is
        concatenated and pickled.
        """
        span = self._located_span(chunks)
        if span is not None:
            return self._run_interval(span=span)
        if len(chunks) == 1:
            return self._run_interval(items=chunks[0])
        return self._run_interval(items=[item for chunk in chunks for item in chunk])

    def _located_span(self, chunks) -> Optional[Tuple[int, int]]:
        """``(lo, hi)`` when ``chunks`` tile one row range of ``source``."""
        source = self._source
        if source is None or not chunks:
            return None
        lo = hi = getattr(chunks[0], "start", 0)
        for chunk in chunks:
            if getattr(chunk, "batch", None) is not source or chunk.start != hi:
                return None
            hi += len(chunk)
        return lo, hi

    def _partition(self, items, span, n_live: int) -> list:
        """Round-robin shards of the interval: strided slices, no per-item loop."""
        if span is not None:
            items = self._source.item_slice(*span)
        return [items[slot::n_live] for slot in range(n_live)]

    def _run_interval(self, items=None, span=None) -> WeightedSample[T]:
        interval = self._intervals_run
        self._intervals_run += 1
        self.last_run_parallel = False
        if (span[1] - span[0] if span is not None else len(items)) == 0:
            # Nothing to shard — do not wake the pool for an empty merge.
            return WeightedSample()
        live = self._live
        if not live:
            raise RuntimeError("all shard workers have failed")
        n_live = len(live)
        # One seed per *configured* worker, drawn unconditionally, so the
        # shard RNG sequence is independent of failure history and the
        # no-fault path is bitwise identical to a fault-free executor.
        all_seeds = [self._rng.getrandbits(64) for _ in range(self.workers)]
        seeds = [all_seeds[worker_id] for worker_id in live]
        # Explicit shards (pickled when pooled); None leaves the span to be
        # sliced by whoever samples it.
        shards = None
        remove: List[int] = []
        kills = self._faults.kills_for(interval) if self._faults is not None else []
        if kills:
            # Reroutes move single items between shards: plain lists.
            shards = [list(shard) for shard in self._partition(items, span, n_live)]
            remove = self._inject_faults(kills, interval, live, shards)
        elif span is None:
            shards = self._partition(items, None, n_live)
        use_pool = False
        if n_live > 1:
            blocker = self._parallel_blocker()
            if blocker is None:
                use_pool = self._ensure_pool()
            else:
                self._note_fallback(blocker)
        elif self.workers > 1:
            self._note_fallback(
                f"only {n_live} of {self.workers} configured workers alive"
            )
        payloads = None
        if use_pool:
            try:
                payloads = self._run_pooled(live, seeds, shards, span)
                self.last_run_parallel = True
            except (OSError, EOFError, ValueError, RuntimeError) as exc:
                # A worker died or transport failed mid-interval.  Nothing
                # is lost: shard samplers are per-interval, so recomputing
                # in-process with the same seeds reproduces the interval
                # bitwise.  Record why, then respawn on a later interval.
                self._note_fallback(
                    f"worker pool failed ({type(exc).__name__}: {exc}); "
                    "interval completed in-process"
                )
                self._m_failures.inc()
                self.close()
        if payloads is None:
            self._m_inprocess.inc()
            if shards is None:
                shards = self._partition(None, span, n_live)
            payloads = [
                _run_shard(
                    shards[slot],
                    self._policy,
                    self._key_fn,
                    n_live,
                    seeds[slot],
                )
                for slot in range(n_live)
            ]
        merged = combine_worker_samples(
            [WeightedSample.of_columns(*payload) for payload in payloads]
        )
        observe = getattr(self._policy, "observe", None)
        if observe is not None:
            observe(dict(zip(merged.keys, merged.counts)))
        if remove:
            self._retire(remove)
        return merged

    def _run_pooled(self, live, seeds, shards, span):
        """One pooled interval: send live workers their shard, collect.

        Lockstep request-response over one pipe per worker; workers block
        in ``recv`` between intervals, so an idle pool costs nothing.
        """
        pool = self._pool
        n_live = len(live)
        if shards is None:
            transports = [("span", *span, slot) for slot in range(n_live)]
            self._m_span.inc()
        else:
            transports = [("items", shard) for shard in shards]
            self._m_pickled.inc()
        policy_state = snapshot_attrs(self._policy)
        for slot, worker_id in enumerate(live):
            pool[worker_id].conn.send(
                ("interval", seeds[slot], n_live, policy_state, transports[slot])
            )
        self._m_snapshots.inc(n_live)
        payloads = []
        for worker_id in live:
            payload, (items_seen, items_kept, seconds) = (
                pool[worker_id].conn.recv()
            )
            self._m_worker_items.inc(items_seen)
            self._m_worker_kept.inc(items_kept)
            self._m_shard_seconds.observe(seconds)
            payloads.append(payload)
        return payloads


class ShardedIntervalSampler(Generic[T]):
    """Adapt a `ShardedExecutor` to the interval-sampler duck type.

    The runtime feeds samplers through ``offer`` / ``offer_many`` /
    ``process_chunk`` / ``close_interval``.  This adapter buffers the
    interval's chunks *intact* — ``process_chunk`` and ``offer_many`` store
    the sequence they are handed by reference instead of re-buffering its
    items one by one, so located column views reach the executor still
    located (and leave it as an index span) — and fans the buffer out
    across the worker pool in one ``run_chunks`` at interval close.

    Example
    -------
    >>> from repro.core.oasrs import FixedPerStratum
    >>> sharded = ShardedIntervalSampler(
    ...     ShardedExecutor(2, FixedPerStratum(4), key_fn=lambda it: it[0], seed=1))
    >>> sharded.process_chunk([("a", i) for i in range(100)])
    >>> sharded.close_interval()["a"].count
    100
    >>> sharded.close()
    """

    def __init__(self, executor: ShardedExecutor[T]) -> None:
        self._executor = executor
        self._chunks: List[Sequence[T]] = []
        self._tail: Optional[List[T]] = None

    @property
    def fallback_reason(self) -> Optional[str]:
        """Why the executor degraded to in-process execution, if it did."""
        return self._executor.fallback_reason

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

    def close(self) -> None:
        """Drain the executor's worker pool."""
        self._executor.close()

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
        return self._executor.run_chunks(chunks)
