"""Classic reservoir sampling (Algorithm 1 of the paper).

Reservoir sampling selects a uniform random sample of a fixed maximum size
from a stream whose length is unknown in advance (Vitter, 1985).  The first
``capacity`` items fill the reservoir; after that the *i*-th arriving item
(1-based) replaces a uniformly chosen resident with probability
``capacity / i``.  Every item seen so far therefore has the same probability
``capacity / i`` of being in the reservoir — the textbook invariant the
paper's Algorithm 1 relies on.

Two forms are provided:

* ``Reservoir`` — the textbook single reservoir, one item at a time (one
  ``random()`` draw per item once it is full): one list of at most
  ``capacity`` items and one integer counter.  `repro.core.stratify`'s
  value sketch is its user.
* the segmented kernel — the algorithm decided for a run of rows and
  every stratum at once, in two halves.  ``group_rows`` orders the rows
  stably by code (a `Grouping`); it reads only the codes, so a resident
  stream computes it once per row range and caches it
  (`repro.core.records.RecordBatch.grouping`).  ``draw`` is the per-seed
  half: given the grouping, each group's stratum number, the per-stratum
  counters and capacities, and a NumPy generator, it returns which rows
  enter which slot.  It draws one uniform per row in stream order, so
  splitting the rows into several calls changes no decision.  It never
  looks at a payload, so one set of decisions can be applied to any store
  (a ``float64`` slot buffer, a list of item tuples).  It is OASRS's only
  draw rule (`repro.core.oasrs`); ``segmented_offer`` is the two halves
  over rows given by stratum number.

Both realise the per-item acceptance probability ``capacity / i`` with a
uniform victim slot.
"""

from __future__ import annotations

import random
from typing import (
    Generic,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    TypeVar,
)

import numpy as _np

T = TypeVar("T")

__all__ = [
    "Grouping",
    "Reservoir",
    "draw",
    "group_rows",
    "reservoir_sample",
    "segmented_offer",
]


class Reservoir(Generic[T]):
    """A fixed-capacity uniform sample over a stream of unknown length.

    Parameters
    ----------
    capacity:
        Maximum number of items retained.  Must be a positive integer.
    rng:
        Source of randomness.  Pass a seeded ``random.Random`` for
        reproducible runs; defaults to a fresh unseeded generator.

    Examples
    --------
    >>> r = Reservoir(3, rng=random.Random(7))
    >>> for x in range(100):
    ...     r.offer(x)
    >>> len(r)
    3
    >>> r.seen
    100
    """

    __slots__ = ("_capacity", "_items", "_seen", "_rng")

    def __init__(self, capacity: int, rng: Optional[random.Random] = None) -> None:
        if capacity <= 0:
            raise ValueError(f"reservoir capacity must be positive, got {capacity}")
        self._capacity = capacity
        self._items: List[T] = []
        self._seen = 0
        self._rng = rng if rng is not None else random.Random()

    @property
    def capacity(self) -> int:
        """Maximum number of items the reservoir retains."""
        return self._capacity

    @property
    def seen(self) -> int:
        """Total number of items offered so far (the counter ``C`` in §3.2)."""
        return self._seen

    @property
    def items(self) -> List[T]:
        """The current sample (a copy; at most ``capacity`` items)."""
        return list(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[T]:
        return iter(self._items)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Reservoir(capacity={self._capacity}, size={len(self._items)}, "
            f"seen={self._seen})"
        )

    def offer(self, item: T) -> bool:
        """Offer one stream item; return True if it entered the reservoir.

        Implements Algorithm 1: fill until full, then accept the *i*-th item
        with probability ``capacity / i`` and evict a uniform resident.
        """
        self._seen += 1
        if len(self._items) < self._capacity:
            self._items.append(item)
            return True
        # Accept with probability capacity / i where i == self._seen.
        if self._rng.random() * self._seen < self._capacity:
            j = self._rng.randrange(self._capacity)
            self._items[j] = item
            return True
        return False

    def offer_many(self, items: Sequence[T]) -> int:
        """Offer every item of ``items`` in order; return how many entered."""
        return sum(map(self.offer, items))

    def extend(self, items: Iterable[T]) -> None:
        """Offer every item of ``items`` in order."""
        self.offer_many(items)

    def reset(self) -> None:
        """Empty the reservoir and zero the counter (new time interval)."""
        self._items.clear()
        self._seen = 0

    def is_saturated(self) -> bool:
        """True once more items were seen than the reservoir can hold."""
        return self._seen > self._capacity


def reservoir_sample(
    items: Iterable[T], capacity: int, rng: Optional[random.Random] = None
) -> List[T]:
    """One-shot helper: uniform sample of at most ``capacity`` from ``items``.

    >>> reservoir_sample(range(10), 20, rng=random.Random(0)) == list(range(10))
    True
    """
    reservoir: Reservoir[T] = Reservoir(capacity, rng=rng)
    reservoir.extend(items)
    return reservoir.items


class Grouping(NamedTuple):
    """A run of rows stably ordered by code: the kernel's seed-free half.

    ``order`` lists the rows by code, arrival order kept inside a code
    (``uint16`` for runs of at most 2¹⁶ rows); group ``g`` is
    ``order[starts[g] : starts[g] + counts[g]]``, its code ``codes[g]``
    (ascending) and its first row ``firsts[g]``.  It depends
    only on the codes, so a resident stream computes it once per row range
    (`repro.core.records.RecordBatch.grouping`) and every seed reuses it.
    """

    order: _np.ndarray
    codes: _np.ndarray
    starts: _np.ndarray
    counts: _np.ndarray
    firsts: _np.ndarray


def group_rows(codes) -> Grouping:
    """The `Grouping` of a run of non-negative integer codes.

    A stable sort keeps arrival order inside each code; codes below 2¹⁶
    get NumPy's O(n) radix sort.  A code's rows are consecutive in
    ``order`` and start at the summed count of the codes below it.
    """
    count = _np.bincount(codes)
    present = count.nonzero()[0]
    counts = count[present]
    starts = counts.cumsum() - counts
    narrow = _np.uint16 if count.shape[0] <= 0x10000 else codes.dtype
    order = codes.astype(narrow, copy=False).argsort(kind="stable")
    if codes.shape[0] <= 0x10000:  # a quarter of the bytes a cache keeps
        order = order.astype(_np.uint16)
    return Grouping(order, present, starts, counts, order[starts])


def draw(grouping: Grouping, numbers, seen, cap, gen):
    """Algorithm 1 for one run of rows, decided segment-wise over its strata.

    ``grouping`` is the run's `Grouping` and ``numbers[g]`` the stratum
    number of its group ``g`` (distinct per group); ``seen`` and ``cap``
    are the per-stratum ``int64`` arrival counters and capacities.  Row
    ``r`` is the ``i``-th arrival of its stratum: ``seen`` before the run
    plus its rank in its group.  With one uniform ``U`` per row, drawn in
    stream-row order, and ``j = ⌊U·i⌋``: a fill row (``i ≤ N``) takes slot
    ``i − 1``; a steady row is kept iff ``j < N`` — probability ``N / i``
    — and then lands in slot ``j``, uniform on ``0..N−1`` given
    acceptance.  Each row's decision depends only on its own ``U`` and
    ``i``, so any split of a run into several calls decides every row
    alike and leaves ``gen`` in the same state.

    Returns ``(rows, numbers, slots)``: the kept rows, each one's stratum
    number, and the slot it takes *within that stratum*, ordered by group
    and, inside a group, by arrival.  Apply the writes in the order
    returned — two kept rows of a stratum may name the same slot, and the
    later arrival wins, as it would have item by item.  ``seen`` is
    advanced in place.  O(rows + groups), no Python-level loop.
    """
    order, _codes, starts, counts, _firsts = grouping
    n = order.shape[0]
    before = seen[numbers]
    seen[numbers] = before + counts
    arrival = _np.repeat(before - starts, counts)
    arrival += _np.arange(1, n + 1)
    slot = (gen.random(n).take(order) * arrival).astype(_np.int64)
    room = cap[numbers]
    fills = (before < room).any()  # some stratum fills inside the run
    room = _np.repeat(room, counts)
    if fills:
        _np.putmask(slot, arrival <= room, arrival - 1)
    kept = (slot < room).nonzero()[0]
    rows = order.take(kept).astype(_np.intp)
    return rows, _np.repeat(numbers, counts)[kept], slot[kept]


def segmented_offer(strata, seen, cap, gen):
    """`draw` over rows given by stratum number: ``strata[r]`` is row
    ``r``'s stratum, so the groups are the strata, ordered by number."""
    grouping = group_rows(strata)
    return draw(grouping, grouping.codes, seen, cap, gen)
