"""Distributed OASRS execution (§3.2) — a persistent multi-process executor.

The paper's synchronization-free distribution scheme: a sub-stream
handled by ``w`` workers is split so each worker keeps a *local* reservoir
of capacity ``⌈N_i / w⌉`` plus a local counter, and at interval close the
coordinator concatenates the local reservoirs, sums the local counters per
stratum, and re-derives the Equation-1 weight — no barrier, no shuffle,
just one O(sample-size) merge:

* `ShardedExecutor` — **real parallel execution**: spawns ``workers``
  operating-system processes *once per run* (fork start method, so
  closure-based key functions and the pinned stream reach the children
  without pickling), keeps them alive across intervals, and drives them
  with small per-interval control messages.  Chunk transport is zero-copy
  where the items allow it: ``(key, float)`` records travel as NumPy
  ``(int32 code, float64 value)`` arrays through reusable per-worker
  `multiprocessing.shared_memory` buffers, and drivers that hold the
  whole timestamped stream pin it before the pool spawns so an interval
  is described by a ``[lo, hi)`` index span alone — the forked workers
  slice their shard out of the inherited stream themselves.  Only budget
  re-targets (the policy snapshot in each interval message),
  fault-injection reroutes, and the merged per-shard sample payloads
  cross the process boundary as messages.  This is the executor behind
  ``SystemConfig(parallelism=N)``.
* `ShardedIntervalSampler` — adapts the executor to the interval-sampler
  duck type the pipelined and direct engines drive.

The merge is `repro.core.strata.combine_worker_samples`, which the tests
verify is statistically indistinguishable from a single global reservoir.

Determinism contract: the coordinator draws one seed per *configured*
worker per interval and each live worker rebuilds its shard sampler from
its seed, so a pooled run, the in-process fallback (``REPRO_NO_MP``, no
fork support, or a mid-run pool failure), and the historical
fork-per-interval executor all produce bitwise-identical samples.  When
the pool degrades, the reason is recorded in ``fallback_reason`` and
surfaced as ``SystemReport.parallel_fallback`` instead of being swallowed.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import random
from multiprocessing import shared_memory
from time import perf_counter
from typing import (
    Callable,
    Generic,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from ..obs import NULL_METRICS
from ._vector import np as _np
from .oasrs import AllocationPolicy, KeyFn, OASRSSampler
from .records import ColumnSlice, item_key
from .recovery import FaultSchedule, RecoveryEvent, restore_attrs, snapshot_attrs
from .strata import StratumSample, WeightedSample, combine_worker_samples, stratum_weight

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
    chunk_size: int,
) -> List[Tuple[object, List[object], int]]:
    """Sample one shard for one interval; return a picklable payload.

    The sampler is rebuilt from ``seed`` every interval — that is what
    keeps pooled, in-process, and resumed executions bitwise identical:
    no RNG state survives inside a worker, only in the coordinator.
    """
    sampler: OASRSSampler = OASRSSampler(
        _ScaledPolicy(policy, n_live), key_fn=key_fn, rng=random.Random(seed)
    )
    for start in range(0, len(shard), chunk_size):
        sampler.process_chunk(shard[start : start + chunk_size])
    sample = sampler.close_interval()
    return [(s.key, list(s.items), s.count) for s in sample]


# ---------------------------------------------------------------------------
# Shared-memory chunk transport
# ---------------------------------------------------------------------------


class _ChunkCodec:
    """Encode ``(hashable, float)`` records as (int32 codes, float64 values).

    The coordinator interns stratum keys into a grow-only table; only the
    codes cross the process boundary (through shared memory), plus the
    table *extension* each worker has not seen yet in its interval
    message.  Records that are not plain two-tuples with float payloads
    fall back to pickled-list transport — correctness never depends on
    the codec, only throughput does.
    """

    __slots__ = ("key_list", "key_code", "_translations")

    def __init__(self) -> None:
        self.key_list: List[object] = []
        self.key_code: dict = {}
        #: Per-key-table translation arrays (batch code -> codec code),
        #: keyed by table identity with the table itself kept referenced.
        self._translations: dict = {}

    def _translate(self, key_table: List[object]):
        """Batch-code → codec-code translation array for one key table.

        A `repro.core.records.RecordBatch` interned its keys already; a
        column chunk therefore re-encodes as one fancy-indexed gather
        instead of a per-item hash loop.  Tables only grow, so a cached
        translation is refreshed when the table has new entries.
        """
        entry = self._translations.get(id(key_table))
        if entry is not None and len(entry[1]) >= len(key_table):
            return entry[1]
        key_code, key_list = self.key_code, self.key_list
        trans = _np.empty(len(key_table), dtype=_np.int32)
        for batch_code, key in enumerate(key_table):
            code = key_code.get(key)
            if code is None:
                code = len(key_list)
                key_code[key] = code
                key_list.append(key)
            trans[batch_code] = code
        self._translations[id(key_table)] = (key_table, trans)
        return trans

    def encode(self, chunks: Sequence[Sequence[T]], total: int):
        """Return ``(codes, values)`` arrays over the concatenated chunks,
        or None when any record does not fit the codec.

        Column chunks (`repro.core.records.ColumnSlice`) hand their arrays
        over without touching a single item: the chunk's interned codes are
        gathered through the cached table translation and its value column
        is copied wholesale — zero-conversion transport.
        """
        if _np is None:
            return None
        codes = _np.empty(total, dtype=_np.int32)
        values = _np.empty(total, dtype=_np.float64)
        key_code, key_list = self.key_code, self.key_list
        pos = 0
        for chunk in chunks:
            n = len(chunk)
            if n == 0:
                continue
            chunk_codes = getattr(chunk, "codes", None)
            if chunk_codes is not None:
                trans = self._translate(chunk.key_table)
                codes[pos : pos + n] = trans[chunk_codes]
                values[pos : pos + n] = chunk.values
                pos += n
                continue
            for item in chunk:
                if (
                    type(item) is not tuple
                    or len(item) != 2
                    or type(item[1]) is not float
                ):
                    return None
            ks, vs = zip(*chunk)
            try:
                for k in ks:
                    if k not in key_code:
                        key_code[k] = len(key_list)
                        key_list.append(k)
                codes[pos : pos + n] = _np.fromiter(
                    map(key_code.__getitem__, ks), dtype=_np.int32, count=n
                )
            except TypeError:  # unhashable key
                return None
            values[pos : pos + n] = vs
            pos += n
        return codes, values

    @staticmethod
    def decode(key_list: List[object], codes, values) -> List[Tuple[object, float]]:
        """Rebuild the record list a shard sampler consumes (worker side)."""
        return list(zip(map(key_list.__getitem__, codes.tolist()), values.tolist()))


class _ShmChannel:
    """One reusable coordinator→worker shared-memory buffer.

    Grows (with headroom) when an interval outsizes it; growth allocates a
    fresh segment under a new name, which the worker detects and
    re-attaches to.  Layout: ``n`` int32 codes at offset 0, ``n`` float64
    values at the next 8-byte boundary.
    """

    __slots__ = ("shm", "_grow_counter")

    def __init__(self, grow_counter=None) -> None:
        self.shm: Optional[shared_memory.SharedMemory] = None
        #: Counts *re*-allocations (an interval outsizing a live segment),
        #: not the initial allocation — the cost worth watching is churn.
        self._grow_counter = grow_counter

    def write(self, codes, values) -> Tuple[str, int]:
        n = int(codes.shape[0])
        offset = (4 * n + 7) & ~7
        need = offset + 8 * n
        shm = self.shm
        if shm is None or shm.size < need:
            if shm is not None and self._grow_counter is not None:
                self._grow_counter.inc()
            self.close()
            shm = shared_memory.SharedMemory(
                create=True, size=max(4096, need + need // 2)
            )
            self.shm = shm
        _np.ndarray(n, dtype=_np.int32, buffer=shm.buf)[:] = codes
        _np.ndarray(n, dtype=_np.float64, buffer=shm.buf, offset=offset)[:] = values
        return shm.name, n

    def close(self) -> None:
        if self.shm is not None:
            try:
                self.shm.close()
                self.shm.unlink()
            except (FileNotFoundError, OSError):
                pass
            self.shm = None


# ---------------------------------------------------------------------------
# The persistent worker pool
# ---------------------------------------------------------------------------


def _pool_worker_main(conn, policy, key_fn, chunk_size, source) -> None:
    """Long-lived shard worker: serve one interval per control message.

    Runs in a forked child, so ``policy`` (a copy-on-write snapshot),
    ``key_fn`` (closures included), and ``source`` (the pinned timestamped
    stream, when the driver pinned one before the pool spawned) arrive by
    memory inheritance, never by pickle.  Each ``interval`` message carries
    the seed, the live-worker count, the coordinator policy's attribute
    snapshot (the budget re-target channel), any new key-table entries,
    and a transport descriptor; the reply is the shard's
    ``(key, items, count)`` sample payload plus the worker's locally
    accumulated ``(items_seen, items_kept, shard_seconds)`` stats — the
    telemetry channel for costs the coordinator cannot observe from
    outside the process.
    """
    key_list: List[object] = []
    shm: Optional[shared_memory.SharedMemory] = None
    shm_name: Optional[str] = None
    # With the canonical key projection the shard sampler consumes column
    # views directly (its columnar kernel is bitwise-identical to per-item
    # grouping), so shm arrays and pinned column batches are never expanded
    # into per-item tuples.  Safe because the worker finishes its interval
    # before the coordinator rewrites the channel.
    columnar_ok = _np is not None and key_fn is item_key
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            if message[0] != "interval":
                break  # "stop"
            _cmd, seed, n_live, policy_state, new_keys, transport = message
            if new_keys:
                key_list.extend(new_keys)
            restore_attrs(policy, policy_state)
            kind = transport[0]
            if kind == "span":
                _k, lo, hi, slot = transport
                if columnar_ok and getattr(source, "has_columns", False):
                    # Strided zero-copy view over the fork-inherited columns.
                    shard = source.item_slice(lo, hi)[slot::n_live]
                else:
                    shard = [item for _ts, item in source[lo:hi][slot::n_live]]
            elif kind == "shm":
                _k, name, n = transport
                if name != shm_name:
                    if shm is not None:
                        shm.close()
                    shm = shared_memory.SharedMemory(name=name)
                    shm_name = name
                codes = _np.ndarray(n, dtype=_np.int32, buffer=shm.buf)
                offset = (4 * n + 7) & ~7
                values = _np.ndarray(
                    n, dtype=_np.float64, buffer=shm.buf, offset=offset
                )
                if columnar_ok:
                    shard = ColumnSlice(codes, values, key_list)
                else:
                    shard = _ChunkCodec.decode(key_list, codes, values)
            else:  # "items": pickled shard (fault reroutes, exotic records)
                shard = transport[1]
            started = perf_counter()
            payload = _run_shard(shard, policy, key_fn, n_live, seed, chunk_size)
            kept = sum(len(items) for _key, items, _count in payload)
            conn.send((payload, (len(shard), kept, perf_counter() - started)))
    except KeyboardInterrupt:
        pass
    finally:
        if shm is not None:
            shm.close()
        try:
            conn.close()
        except OSError:
            pass


class _PoolWorker:
    """Coordinator-side handle for one live worker process."""

    __slots__ = ("process", "conn", "channel", "keys_sent")

    def __init__(self, process, conn, grow_counter=None) -> None:
        self.process = process
        self.conn = conn
        self.channel = _ShmChannel(grow_counter)
        #: Key-table prefix already shipped to this worker.
        self.keys_sent = 0


class ShardedExecutor(Generic[T]):
    """Real multi-core OASRS: a persistent process per shard, one merge.

    The worker pool spawns lazily on the first parallel interval and
    stays up for the whole run — no per-interval ``Pool`` construction.
    Each interval the coordinator draws the shard seeds, snapshots the
    allocation policy (so budget re-targets reach workers without their
    ever re-reading shared state), describes the shard transport (index
    span over the pinned stream, shared-memory arrays, or a pickled list),
    and merges the returned shard samples by summing counters and
    re-deriving Equation-1 weights — the paper's synchronization-free
    distributed execution, on actual cores.

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
        chunk_size: int = 1024,
        route_fn: Optional[Callable[[T, int], int]] = None,
        faults: Optional[FaultSchedule] = None,
        metrics=None,
    ) -> None:
        if workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        if chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        self.workers = workers
        self.chunk_size = chunk_size
        self._policy = policy
        self._key_fn = key_fn
        self._rng = random.Random(seed)
        self._route_fn = route_fn
        self._faults = faults
        self._live: List[int] = list(range(workers))
        self._intervals_run = 0
        self._recovery_log: List[RecoveryEvent] = []
        self.last_run_parallel = False
        #: Why parallel execution degraded to in-process, or None while the
        #: pool is healthy.  First cause wins; never cleared mid-run.
        self.fallback_reason: Optional[str] = None
        self._pool: Optional[dict] = None
        self._codec = _ChunkCodec()
        self._source: Optional[Sequence] = None
        self._pool_source: Optional[Sequence] = None
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
        self._m_shm = metrics.counter("transport.shm_intervals")
        self._m_pickled = metrics.counter("transport.pickle_intervals")
        self._m_inprocess = metrics.counter("transport.inprocess_intervals")
        self._m_codec_fallbacks = metrics.counter("transport.codec_fallbacks")
        self._m_shm_grows = metrics.counter("transport.shm_grows")

    # -- availability ------------------------------------------------------

    @staticmethod
    def _parallel_blocker() -> Optional[str]:
        if os.environ.get("REPRO_NO_MP"):
            return "REPRO_NO_MP forces in-process execution"
        if "fork" not in multiprocessing.get_all_start_methods():
            return "platform lacks the fork start method"
        return None

    @staticmethod
    def _fork_available() -> bool:
        return ShardedExecutor._parallel_blocker() is None

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

    @property
    def source(self) -> Optional[Sequence]:
        """The pinned ``(timestamp, item)`` stream, if any."""
        return self._source

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
        self._close_pool()
        self._rng.setstate(state["rng"])
        self._live = list(state["live"])
        self._intervals_run = state["intervals_run"]
        restore_attrs(self._policy, state["policy"])
        self._recovery_log = []

    # -- pool lifecycle ----------------------------------------------------

    def pin_source(self, events: Sequence) -> None:
        """Pin the run's timestamped stream for span-addressed transport.

        Must happen before the pool spawns (the direct driver pins before
        its interval loop) so forked workers inherit the stream and an
        interval message can carry just a ``[lo, hi)`` index span.
        Re-pinning a different stream closes any existing pool.
        """
        if events is self._source:
            return
        if self._pool is not None and self._pool_source is not events:
            self._close_pool()
        self._source = events

    def _ensure_pool(self) -> bool:
        if self._pool is not None:
            return True
        pool: dict = {}
        try:
            ctx = multiprocessing.get_context("fork")
            # Start the shared-memory resource tracker *before* forking:
            # workers attach segments (which registers them on Python < 3.13),
            # and must inherit the coordinator's tracker rather than spawn
            # their own — a child-owned tracker would warn about "leaked"
            # segments the coordinator unlinks perfectly well.
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
            for worker_id in self._live:
                parent_conn, child_conn = ctx.Pipe()
                process = ctx.Process(
                    target=_pool_worker_main,
                    args=(
                        child_conn,
                        self._policy,
                        self._key_fn,
                        self.chunk_size,
                        self._source,
                    ),
                    daemon=True,
                )
                process.start()
                child_conn.close()
                pool[worker_id] = _PoolWorker(
                    process, parent_conn, self._m_shm_grows
                )
                self._m_spawned.inc()
        except (OSError, ValueError, RuntimeError) as exc:
            for worker in pool.values():
                self._stop_worker(worker, graceful=False)
            self._note_fallback(
                f"worker pool spawn failed ({type(exc).__name__}: {exc}); "
                "running in-process"
            )
            return False
        self._pool = pool
        self._pool_source = self._source
        return True

    @staticmethod
    def _stop_worker(worker: _PoolWorker, graceful: bool = True) -> None:
        if graceful:
            try:
                worker.conn.send(("stop",))
            except (OSError, ValueError):
                pass
            worker.process.join(timeout=1.0)
        if worker.process.is_alive():
            worker.process.terminate()
            worker.process.join(timeout=1.0)
        try:
            worker.conn.close()
        except OSError:
            pass
        worker.channel.close()

    def _close_pool(self) -> None:
        pool, self._pool = self._pool, None
        self._pool_source = None
        if not pool:
            return
        for worker in pool.values():
            try:
                worker.conn.send(("stop",))
            except (OSError, ValueError):
                pass
        for worker in pool.values():
            worker.process.join(timeout=1.0)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=1.0)
            try:
                worker.conn.close()
            except OSError:
                pass
            worker.channel.close()

    def close(self) -> None:
        """Drain the worker pool; idempotent, safe on never-spawned pools."""
        self._close_pool()

    def __del__(self):  # pragma: no cover - interpreter-shutdown safety net
        try:
            self._close_pool()
        except Exception:
            pass

    def _retire(self, worker_ids: List[int]) -> None:
        """Remove permanently killed workers; terminate their processes.

        The pool re-widens over the survivors: subsequent intervals
        message only the remaining live workers, whose 1/w capacity scale
        follows the shrunken live count.
        """
        self._live = [w for w in self._live if w not in worker_ids]
        if self._pool is None:
            return
        for worker_id in worker_ids:
            worker = self._pool.pop(worker_id, None)
            if worker is not None:
                self._stop_worker(worker, graceful=False)

    # -- partitioning and fault injection ---------------------------------

    def _partition(self, items: Sequence[T], shard_count: int) -> List[List[T]]:
        if self._route_fn is None:
            # Strided slices == round-robin, without a per-item Python loop.
            return [list(items[w::shard_count]) for w in range(shard_count)]
        shards: List[List[T]] = [[] for _ in range(shard_count)]
        for index, item in enumerate(items):
            shards[self._route_fn(item, index) % shard_count].append(item)
        return shards

    def _inject_faults(
        self, interval: int, live: List[int], shards: List[List[T]]
    ) -> List[int]:
        """Apply this interval's scheduled kills to the partitioned shards.

        Discard-and-rewiden (§3.2): the doomed worker's already-processed
        prefix is lost outright — its reservoir and counter die with it —
        and the unprocessed suffix is re-routed round-robin to surviving
        shards.  Counters stay exact for every item that survived, so the
        merged Equation-1 weights remain unbiased over the surviving
        sub-population; the pane simply covers fewer items and its CI
        widens.  Returns worker ids to remove from the live set after the
        interval (permanent kills).
        """
        kills = self._faults.kills_for(interval) if self._faults is not None else []
        if not kills:
            return []
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
        return self._run_interval(flat=items)

    def run_chunks(self, chunks: Sequence[Sequence[T]]) -> WeightedSample[T]:
        """Sample one interval delivered as intact chunks (no flatten copy).

        The shared-memory codec encodes chunk by chunk straight into the
        transport arrays; only transports that need a flat item list
        (fault reroutes, non-codec records, in-process fallback) pay the
        concatenation.
        """
        if not hasattr(chunks, "__len__"):
            chunks = list(chunks)
        return self._run_interval(chunks=chunks)

    def run_span(self, lo: int, hi: int) -> WeightedSample[T]:
        """Sample the pinned stream's ``[lo, hi)`` span as one interval.

        The cheapest transport: pooled workers slice their shard out of
        the fork-inherited stream themselves, so the interval message is a
        few integers regardless of how many items the span covers.
        """
        if self._source is None:
            raise RuntimeError("run_span requires a pin_source-pinned stream")
        return self._run_interval(span=(lo, hi))

    def _materialize(self, flat, chunks, span) -> Sequence[T]:
        if flat is not None:
            return flat
        if chunks is not None:
            if len(chunks) == 1:
                only = chunks[0]
                return only if isinstance(only, (list, tuple)) else list(only)
            return [item for chunk in chunks for item in chunk]
        lo, hi = span
        return [item for _ts, item in self._source[lo:hi]]

    def _run_interval(
        self, flat=None, chunks=None, span=None
    ) -> WeightedSample[T]:
        interval = self._intervals_run
        self._intervals_run += 1
        self.last_run_parallel = False
        if flat is not None:
            total = len(flat)
        elif chunks is not None:
            total = sum(len(chunk) for chunk in chunks)
        else:
            total = span[1] - span[0]
        if total == 0:
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
        has_kills = bool(
            self._faults is not None and self._faults.kills_for(interval)
        )
        shards = None
        remove: List[int] = []
        if has_kills or self._route_fn is not None:
            shards = self._partition(
                self._materialize(flat, chunks, span), n_live
            )
            remove = self._inject_faults(interval, live, shards)
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
                payloads = self._run_pooled(
                    live, seeds, shards, span, chunks, flat, total
                )
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
                self._close_pool()
                payloads = None
        if payloads is None:
            self._m_inprocess.inc()
            if shards is None:
                shards = self._partition(
                    self._materialize(flat, chunks, span), n_live
                )
            payloads = [
                _run_shard(
                    shards[slot],
                    self._policy,
                    self._key_fn,
                    n_live,
                    seeds[slot],
                    self.chunk_size,
                )
                for slot in range(n_live)
            ]
        merged = combine_worker_samples([self._decode(p) for p in payloads])
        observe = getattr(self._policy, "observe", None)
        if observe is not None:
            observe({s.key: s.count for s in merged})
        if remove:
            self._retire(remove)
        return merged

    def _run_pooled(self, live, seeds, shards, span, chunks, flat, total):
        """One pooled interval: send live workers their transport, collect.

        Lockstep request-response over one pipe per worker; workers block
        in ``recv`` between intervals, so an idle pool costs nothing.
        """
        pool = self._pool
        n_live = len(live)
        if shards is not None:
            transports = [("items", shard) for shard in shards]
            self._m_pickled.inc()
        elif span is not None and self._pool_source is self._source:
            lo, hi = span
            transports = [("span", lo, hi, slot) for slot in range(n_live)]
            self._m_span.inc()
        else:
            if chunks is None:
                chunks = (self._materialize(flat, None, span),)
            encoded = self._codec.encode(chunks, total)
            if encoded is None:
                shards = self._partition(
                    self._materialize(flat, chunks, None), n_live
                )
                transports = [("items", shard) for shard in shards]
                self._m_pickled.inc()
                self._m_codec_fallbacks.inc()
            else:
                codes, values = encoded
                transports = [
                    ("shm", *pool[worker_id].channel.write(
                        codes[slot::n_live], values[slot::n_live]
                    ))
                    for slot, worker_id in enumerate(live)
                ]
                self._m_shm.inc()
        policy_state = snapshot_attrs(self._policy)
        key_list = self._codec.key_list
        for slot, worker_id in enumerate(live):
            worker = pool[worker_id]
            new_keys = key_list[worker.keys_sent :]
            worker.keys_sent = len(key_list)
            worker.conn.send(
                ("interval", seeds[slot], n_live, policy_state, new_keys,
                 transports[slot])
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

    @staticmethod
    def _decode(payload: List[Tuple[object, List[object], int]]) -> WeightedSample[T]:
        sample: WeightedSample[T] = WeightedSample()
        for key, kept, count in payload:
            sample.add(
                StratumSample(key, tuple(kept), count, stratum_weight(count, len(kept)))
            )
        return sample


class ShardedIntervalSampler(Generic[T]):
    """Adapt a `ShardedExecutor` to the interval-sampler duck type.

    The pipelined sampling operator and the direct engine's interval loop
    drive samplers through ``offer`` / ``process_chunk`` /
    ``close_interval``.  This adapter buffers the interval's chunks
    *intact* — ``process_chunk`` stores the chunk reference instead of
    re-buffering items one by one, so producers that already deliver
    fresh chunk lists (the chunked dataflow, RDD partitions) reach the
    executor without a per-item copy — and fans the buffer out across the
    worker pool in one ``run_chunks`` at interval close.  Drivers that
    know the interval as a span of the pinned stream skip buffering
    entirely through ``run_interval_span``.

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

    def pin_source(self, events) -> None:
        """Pin the stream on the executor (span-addressed transport)."""
        self._executor.pin_source(events)

    def close(self) -> None:
        """Drain the executor's worker pool."""
        self._executor.close()

    def offer(self, item: T) -> None:
        if self._tail is None:
            self._tail = []
            self._chunks.append(self._tail)
        self._tail.append(item)

    def offer_many(self, items: Iterable[T]) -> None:
        if self._tail is None:
            self._tail = []
            self._chunks.append(self._tail)
        self._tail.extend(items)

    def process_chunk(self, items: Sequence[T]) -> None:
        """Buffer one chunk intact (by reference — hand over fresh chunks)."""
        self._tail = None
        self._chunks.append(items)

    def close_interval(self) -> WeightedSample[T]:
        chunks, self._chunks, self._tail = self._chunks, [], None
        return self._executor.run_chunks(chunks)

    def run_interval(self, items: Sequence[T]) -> WeightedSample[T]:
        """Sample one whole interval in a single executor call.

        Drivers that already hold the interval's items as a list use this
        to skip the offer/close buffering — no per-item Python call, no
        buffer copy — exactly the `ShardedExecutor.run` hot path.  Any
        previously buffered chunks are prepended so mixed use stays
        correct.
        """
        if self._chunks:
            chunks, self._chunks, self._tail = self._chunks, [], None
            chunks.append(items)
            return self._executor.run_chunks(chunks)
        return self._executor.run(items)

    def run_interval_span(self, lo: int, hi: int) -> WeightedSample[T]:
        """Sample the pinned stream's ``[lo, hi)`` span as one interval.

        The direct driver's fast path: with the stream pinned before the
        pool spawned, the interval crosses the process boundary as two
        integers.  Falls back to materialized execution when chunks are
        already buffered (mixed use).
        """
        if self._chunks:
            source = self._executor.source
            return self.run_interval([item for _ts, item in source[lo:hi]])
        return self._executor.run_span(lo, hi)

