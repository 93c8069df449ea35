"""Columnar record batches — the native record format of the pipeline.

The paper's throughput argument (§5, fig4/fig6) is that sampling should be
memory-bandwidth-bound; a hot path that materializes a Python
``(timestamp, (key, value))`` tuple per record between every layer is
bound by the allocator instead.  This module makes the *batch* the unit
every layer speaks:

* `RecordBatch` — a time-ordered event stream held as NumPy columns
  (``ts: float64``, ``key: int32`` interned against a key table,
  ``value: float64``, and an optional broker ``seq: int64``).  It
  subclasses ``list`` of the classic ``(timestamp, item)`` event tuples,
  so every existing consumer — ``bisect`` boundary searches, per-item
  operators, checkpoint replay slicing, ground-truth re-execution — keeps
  working unchanged: per-item iteration *is* the compatibility shim.  The
  columns are built lazily on first use and cached.
* `ColumnSlice` — a zero-copy view over a ``[lo, hi)`` range of the item
  columns (no timestamps), behaving as a sequence of ``(key, value)``
  items.  Slicing (including strided slicing, which is how round-robin
  sharding partitions work) returns another view; integer indexing and
  iteration materialize genuine Python ``(key, float)`` tuples, so
  anything downstream sees exactly the objects the per-item path would
  have produced.  A view cut by `RecordBatch.item_slice` also remembers
  which rows of which batch it covers, which is how the sharded executor
  names an interval to its workers as two integers.
* `item_key` / `item_value` — the canonical projections of the classic
  ``(key, value)`` item shape.  Queries default to them
  (`repro.runtime.config.StreamQuery`), and the drivers enable the
  columnar path only when a query's projections *are* these functions
  (identity comparison): any custom projection falls back to the item
  shim, with the reason surfaced as ``SystemReport.columnar_fallback``.

Batches that the columnar codec cannot represent — payloads that are not
plain ``(hashable key, float)`` 2-tuples — still build the timestamp
column when possible and record why the item columns are unavailable in
`RecordBatch.columnar_reason`; the drivers report that reason instead of
silently degrading.

A batch also caches, per located row range, the sampling kernel's
`repro.core.reservoir.Grouping` of its codes (`RecordBatch.grouping`): the
seed-independent half of OASRS, so every pass and seed over a resident
stream after the first runs only the draw.  The cache goes with the
columns, is bounded at `GROUPING_BYTES_PER_ROW` bytes per row, and is
never pickled.

`L2_SLICE` caps the working set of one vectorized sampling call: every
engine hands the sampler a whole interval in one feed, and
`repro.core.oasrs.OASRSSampler.process_chunk` decides it in L2-cache-sized
column slices.
"""

from __future__ import annotations

import os
from itertools import chain, repeat
from operator import itemgetter
from threading import Lock
from typing import Hashable, Iterable, List, Optional, Tuple

import numpy as _np

from .reservoir import Grouping, group_rows

__all__ = [
    "L2_SLICE",
    "item_key",
    "item_value",
    "RecordBatch",
    "ColumnSlice",
    "concat_members",
]

#: Rows per vectorized sampling call: every feed is decided in slices of
#: at most this many rows.  32 768 rows × (4 B code + 8 B value) = 384 KiB
#: of live columns, with the kernel's temporaries inside a 2 MiB per-core
#: L2.  Measured on the direct engine (S3 and 400-strata streams, median of
#: 18 and 24 interleaved passes on a 2 MiB-L2 Xeon): 8 192 → 32 768 is
#: 8–12 % faster per pass, 65 536 ties with 32 768, and no slicing ties on
#: three strata but is 6–9 % slower on 400.
#: At most 2¹⁶, so `repro.core.reservoir.group_rows` keeps its ``uint16``
#: row order.
L2_SLICE = 32768

#: The groupings a batch keeps take at most this many bytes per batch row,
#: room for several chunk grids (a grouping's row order is 2 bytes a row).
#: Each is charged its arrays plus `_GROUPING_OVERHEAD` for its Python
#: objects, so a grid of tiny chunks does not fill memory with headers; a
#: grouping past the bound is computed and not kept.
GROUPING_BYTES_PER_ROW = 32
_GROUPING_OVERHEAD = 1024

#: Serialises the bound's check and charge when threads share a batch.
_grouping_lock = Lock()


def _new_grouping_lock() -> None:
    # A forked shard worker must not inherit the lock held by another thread.
    global _grouping_lock
    _grouping_lock = Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_grouping_lock)


def item_key(item) -> Hashable:
    """Canonical key projection of a classic ``(key, value)`` stream item."""
    return item[0]


def item_value(item) -> float:
    """Canonical value projection of a classic ``(key, value)`` stream item."""
    return item[1]


class ColumnSlice:
    """A zero-copy sequence view over interned ``(key, value)`` columns.

    ``codes``/``values`` are aligned NumPy arrays (``int32``/``float64``);
    ``key_table`` maps a code back to the original key object.  The view is
    a sequence of ``(key, value)`` items:

    * ``view[i]`` materializes one Python ``(key, float)`` tuple,
    * ``view[a:b]`` / ``view[a:b:step]`` return another `ColumnSlice` over
      the (NumPy basic-sliced, still zero-copy) sub-range — strided slicing
      is how round-robin shard partitioning stays a view,
    * iteration materializes Python tuples in one C-level pass (a located
      view hands out its batch's own item tuples instead).

    The materialized values are genuine Python ``float`` objects (via
    ``ndarray.tolist()`` / ``.item()``), preserving the exact object shapes
    the per-item path produces.

    ``batch``/``start`` are the view's row origin: it covers rows
    ``[start, start + len(view))`` of ``batch``'s item columns.
    `RecordBatch.item_slice` sets them, unit-step slicing carries them
    along, and a strided slice (no longer a row range) has ``batch`` None.
    """

    __slots__ = ("codes", "values", "key_table", "batch", "start")

    def __init__(
        self, codes, values, key_table: List[Hashable], batch=None, start: int = 0
    ) -> None:
        self.codes = codes
        self.values = values
        self.key_table = key_table
        self.batch = batch
        self.start = start

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, index):
        if isinstance(index, slice):
            view = ColumnSlice(self.codes[index], self.values[index], self.key_table)
            if self.batch is not None and index.step in (None, 1):
                view.batch = self.batch
                view.start = self.start + index.indices(len(self.codes))[0]
            return view
        return (
            self.key_table[self.codes[index]],
            self.values.item(index),
        )

    def grouping(self) -> Grouping:
        """The sampling kernel's `repro.core.reservoir.Grouping` of the
        view's rows: a located view's is cached on its batch."""
        if self.batch is not None:
            return self.batch.grouping(self.start, self.codes)
        return group_rows(self.codes)

    def __iter__(self):
        if self.batch is not None:
            # A located view: the batch's own item tuples, nothing rebuilt.
            rows = self.batch[self.start : self.start + len(self.codes)]
            return map(_second, rows)
        keys = self.key_table
        return iter(
            list(
                zip(
                    map(keys.__getitem__, self.codes.tolist()),
                    self.values.tolist(),
                )
            )
        )

    def materialize(self) -> List[Tuple[Hashable, float]]:
        """The equivalent list of Python ``(key, value)`` item tuples."""
        return list(self)

    def __reduce__(self):
        # Pickling (e.g. the sharded executor's fault-reroute transport)
        # ships the materialized items; the arrays are views into a parent
        # batch that does not exist on the other side.
        return (_rebuild_column_slice, (self.materialize(),))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ColumnSlice({len(self)} items, {len(self.key_table)} keys)"


#: Slot accessors shared by events ``(ts, item)`` and items ``(key, value)``.
_first, _second = itemgetter(0), itemgetter(1)


def _rebuild_column_slice(items: List[Tuple[Hashable, float]]):
    """Unpickle a `ColumnSlice` as the plain item list it represented."""
    return items


class _StratumMembers:
    """One stratum's members: a constant key over a run of float values.

    A lazy sequence of ``(key, value)`` tuples: the ``items`` of a
    `repro.core.strata.StratumSample` built from a value-mode
    `repro.core.strata.WeightedSample` (a view of its packed array), and
    what a fully-kept column chunk is wrapped in.  Estimators that only
    need the numeric values read them through
    `value_array` (merges, quantiles, grouped sums, large-stratum moments)
    or `value_list` (small-stratum ``fsum`` moments) without any tuple
    ever being built; per-item access materializes the whole run once
    (also a C-level pass) and indexes the cached list.

    ``values`` may be a NumPy ``float64`` array (a copy of a reservoir's
    filled slots, a column view, or a pane's merged runs — see
    `concat_members`) or a plain list of Python floats; whichever form was
    not given is derived on first use and cached.
    """

    __slots__ = ("key", "values", "_vals", "_array", "_items")

    def __init__(self, key: Hashable, values) -> None:
        self.key = key
        self.values = values
        if type(values) is list:
            self._vals, self._array = values, None
        else:
            self._vals, self._array = None, values
        self._items = None

    def value_list(self) -> List[float]:
        """The member values as a list of Python floats (cached)."""
        vals = self._vals
        if vals is None:
            vals = self._vals = self.values.tolist()
        return vals

    def value_array(self):
        """The member values as a ``float64`` array (cached; do not mutate)."""
        array = self._array
        if array is None:
            vals = self._vals
            array = self._array = _np.fromiter(vals, dtype=_np.float64, count=len(vals))
        return array

    def _materialized(self):
        items = self._items
        if items is None:
            items = self._items = list(zip(repeat(self.key), self.value_list()))
        return items

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, index):
        return self._materialized()[index]

    def __iter__(self):
        return iter(self._materialized())

    # Comparison and serialization interop: behave as the tuple of items
    # this run stands for.

    def __eq__(self, other):
        if isinstance(other, _StratumMembers):
            other = other._materialized()
        if isinstance(other, (list, tuple)):
            return list(self._materialized()) == list(other)
        return NotImplemented

    def __reduce__(self):
        return (tuple, (tuple(self._materialized()),))


def concat_members(parts):
    """One stratum's members across several samples, concatenated in order.

    Value-mode runs stay columnar: the result is a `_StratumMembers` over
    one ``float64`` array (8 bytes per kept value, no tuple built).  As
    soon as any part holds item tuples the result is the plain tuple of
    all items — the two forms are never mixed inside one stratum.
    """
    if all(type(part) is _StratumMembers for part in parts):
        return _StratumMembers(
            parts[0].key, _np.concatenate([part.value_array() for part in parts])
        )
    return tuple(chain.from_iterable(parts))


def members_view(parts):
    """Several strata's members, chained, as one `ColumnSlice` (one code per
    part, no tuple built) — or None unless every part is value-mode."""
    if not parts or not all(type(part) is _StratumMembers for part in parts):
        return None
    values = _np.concatenate([part.value_array() for part in parts])
    return packed_view([part.key for part in parts], list(map(len, parts)), values)


def packed_view(keys, sizes, values):
    """Strata whose kept values lie packed in order in ``values``, ``sizes``
    each, as one `ColumnSlice` (one code per stratum)."""
    codes = _np.repeat(_np.arange(len(keys), dtype=_np.int32), sizes)
    return ColumnSlice(codes, values, keys)


class _Interner(dict):
    """key → code, a miss assigning the next code: first-appearance order,
    the first of equal keys kept (what the dict-grouping shim discovers), and
    ``map(interner.__getitem__, keys)`` leaves C once per *distinct* key."""

    def __missing__(self, key):
        code = self[key] = len(self)
        return code


def _split_events(events):
    """``(ts list, item list)`` of ``(ts, item)`` tuple or list events, else None.

    An arity pass and an ``itemgetter`` pass per slot: star-unpacking into
    ``zip`` makes an iterator per event and silently truncates long events.
    """
    try:
        if not set(map(len, events)) <= {2}:
            return None
        return list(map(_first, events)), list(map(_second, events))
    except (TypeError, LookupError):
        return None


def _intern_columns(keys, vals):
    """``(codes, values, key_table, reason)`` of a value list and as many keys
    (any iterable, consumed once); the columns are None when ``reason`` says
    the values are not all plain floats or a key is unhashable."""
    if not set(map(type, vals)) <= {float}:
        return None, None, None, "non-float payloads (value is not a plain float)"
    interner = _Interner()
    try:
        codes = _np.fromiter(map(interner.__getitem__, keys), _np.int32, len(vals))
    except TypeError:
        return None, None, None, "unhashable keys"
    values = _np.fromiter(vals, _np.float64, len(vals))
    return codes, values, list(interner), None  # insertion order == code order


class RecordBatch(list):
    """A time-ordered ``(timestamp, item)`` stream with cached NumPy columns.

    Being a ``list`` subclass is the compatibility contract: every per-item
    consumer (iteration, ``bisect``, ``len``, slicing — which returns a
    plain list) behaves exactly as before.  The columns are derived lazily:

    * ``ts`` (``float64``) — always built when NumPy is available,
    * ``codes`` (``int32``) / ``values`` (``float64``) / ``key_table`` —
      built only when every item is a plain 2-tuple of a hashable key and
      a ``float`` payload (the set the columns can represent);
      otherwise `columnar_reason` records why and the per-item shim is the
      only path,
    * ``seq`` (``int64``) — optional broker production sequence, attached
      by `repro.runtime.source.TopicSource.batches`.

    Columns are invalidated if the list length changes (the runtime never
    mutates streams; this guards ad-hoc test usage), and with them the
    cached groupings (`grouping`).
    """

    def __init__(self, events: Iterable[Tuple[float, object]] = ()) -> None:
        super().__init__(events)
        self._cols = None  # built on first use
        self._seq = None
        self._ordered = None  # (columns it was read from, verdict)
        # (columns they were read from, {(start, rows): Grouping}, [bytes held])
        self._groupings = None

    @classmethod
    def of(cls, events) -> "RecordBatch":
        """Coerce to a `RecordBatch`; an existing batch passes through."""
        if isinstance(events, RecordBatch):
            return events
        return cls(events)

    def with_seq(self, seqs) -> "RecordBatch":
        """Attach the broker production-sequence column (int64)."""
        self._seq = _np.asarray(seqs, dtype=_np.int64)
        return self

    # -- column access ------------------------------------------------------

    def _columns(self):
        cols = self._cols
        if cols is None or cols[4] != len(self):
            cols = self._cols = self._build_columns()
        return cols

    def _build_columns(self):
        """The tuple → column walk: ``(ts, codes, values, key_table, n, reason)``.

        A fixed number of C-level passes, no Python frame per event: split,
        timestamps, a ``set(map(...))`` each for item type and arity, intern.
        """
        n = len(self)
        split = _split_events(self)
        if split is None:
            return (None, None, None, None, n, "events are not (ts, item) pairs")
        ts_vals, items = split
        try:
            ts = _np.fromiter(ts_vals, _np.float64, n)
        except (TypeError, ValueError):
            return (None, None, None, None, n, "non-numeric timestamps")
        if not set(map(type, items)) <= {tuple}:
            return (ts, None, None, None, n, "items are not plain (key, value) tuples")
        if not set(map(len, items)) <= {2}:
            return (ts, None, None, None, n, "items are not 2-tuples")
        codes, values, key_table, reason = _intern_columns(
            map(_first, items), list(map(_second, items))
        )
        return (ts, codes, values, key_table, n, reason)

    @property
    def ts(self):
        """The timestamp column (float64), or None when unavailable."""
        return self._columns()[0]

    @property
    def codes(self):
        """Interned key codes (int32), or None when items are not columnar."""
        return self._columns()[1]

    @property
    def values(self):
        """The value column (float64), or None when items are not columnar."""
        return self._columns()[2]

    @property
    def key_table(self) -> Optional[List[Hashable]]:
        """Code → key mapping, or None when items are not columnar."""
        return self._columns()[3]

    @property
    def seq(self):
        """Broker production-sequence column (int64), or None."""
        return self._seq

    @property
    def columnar_reason(self) -> Optional[str]:
        """Why the item columns are unavailable (None when they are)."""
        return self._columns()[5]

    @property
    def time_ordered(self) -> Optional[bool]:
        """Whether no timestamp is below its predecessor's (None without a
        timestamp column): one vectorised pass, cached with the columns."""
        cols = self._columns()
        if self._ordered is None or self._ordered[0] is not cols:
            ts = cols[0]
            self._ordered = (cols, None if ts is None else not (ts[1:] < ts[:-1]).any())
        return self._ordered[1]

    def grouping(self, start: int, codes) -> Grouping:
        """The kernel's grouping of ``codes``, the batch's codes of rows
        ``[start, start + len(codes))`` — cached per row range.

        Every seed and every pass over a resident stream reuses it.  The
        cache goes with the columns (a change of length drops both), holds
        at most `GROUPING_BYTES_PER_ROW` bytes per row of the batch, and is
        neither pickled nor checkpointed: it is derived from the codes.
        """
        cols = self._columns()
        held = self._groupings
        if held is None or held[0] is not cols:
            held = self._groupings = (cols, {}, [0])
        key = (start, len(codes))
        grouping = held[1].get(key)
        if grouping is None:
            grouping = group_rows(codes)
            cost = _GROUPING_OVERHEAD + sum(array.nbytes for array in grouping)
            with _grouping_lock:
                room = GROUPING_BYTES_PER_ROW * cols[4] - held[2][0]
                if key not in held[1] and cost <= room:
                    for array in grouping:
                        array.flags.writeable = False
                    held[1][key] = grouping
                    held[2][0] += cost
        return grouping

    @property
    def has_columns(self) -> bool:
        """Whether the full (codes, values) item columns are available."""
        return self._columns()[1] is not None

    def project(self, key_fn, value_fn) -> Optional["RecordBatch"]:
        """Intern generic projections: a canonical-shaped view of this stream.

        Applies ``key_fn``/``value_fn`` to every item exactly once and
        returns a `RecordBatch` of ``(ts, (key, value))`` events — the shape
        whose columns the vectorized sampling path consumes.  Sampling over
        the projected batch is decision-for-decision identical to the
        per-item shim over the original: the RNG stream depends only on
        stratum membership order and counts (unchanged — the key sequence is
        the same), and every estimator reads items exclusively through the
        projections (the projected value *is* the float the shim would have
        extracted).

        Returns None when the projections cannot be interned — a projection
        raises, a value is not a plain ``float``, or a key is unhashable —
        in which case callers stay on the per-item shim.  The result is
        cached per ``(key_fn, value_fn)`` identity, so repeated runs over a
        shared stream (module-level query functions, the serving layer's
        `repro.service.hub.SourceHub`) pay the projection pass once.
        """
        cache = self.__dict__.setdefault("_projections", {})
        token = (key_fn, value_fn)
        if token not in cache:
            cache[token] = self._project(key_fn, value_fn)
        return cache[token]

    def _project(self, key_fn, value_fn) -> Optional["RecordBatch"]:
        split = _split_events(self)
        if split is None:
            return None
        ts_vals, items = split
        try:
            ts = _np.fromiter(ts_vals, _np.float64, len(self))
            vals = list(map(value_fn, items))
            keys = list(map(key_fn, items))
        except Exception:
            return None
        codes, values, key_table, reason = _intern_columns(keys, vals)
        if reason is not None:
            return None
        # All the inner tuples first, then the events around them: a tuple is
        # untracked only once all it holds is, so an event built around an
        # item of its own generation is promoted still tracked, and that
        # growth keeps triggering full collections (26 against 1 over 1.2 M).
        items = list(zip(keys, vals))
        projected = RecordBatch(zip(ts_vals, items))
        # Adopt the columns just computed; nothing re-walks the new events.
        projected._cols = (ts, codes, values, key_table, len(self), None)
        return projected

    # -- views ---------------------------------------------------------------

    def item_slice(self, lo: int, hi: int) -> ColumnSlice:
        """Zero-copy `ColumnSlice` over the items of events ``[lo, hi)``."""
        _ts, codes, values, key_table, n, reason = self._columns()
        if codes is None:
            raise ValueError(f"batch has no item columns: {reason}")
        # The view's origin must be the row it really starts at, also for
        # negative or out-of-range bounds.
        lo, hi, _step = slice(lo, hi).indices(n)
        return ColumnSlice(codes[lo:hi], values[lo:hi], key_table, self, lo)

    def __reduce__(self):
        # Columns are derived state; ship only the events (fork-based
        # workers inherit the cached columns through the address space
        # anyway, and pickle consumers just want the stream).
        return (RecordBatch, (list(self),))
