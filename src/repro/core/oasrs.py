"""Online Adaptive Stratified Reservoir Sampling — OASRS (Algorithm 3).

OASRS is the paper's core contribution.  Within each time interval it:

1. stratifies the arriving stream by a user-supplied key function (the
   sub-stream source),
2. runs an independent fixed-capacity reservoir per stratum — so rare
   strata are never overlooked, and no stratum statistics are needed in
   advance,
3. counts every arriving item per stratum (``C_i``), and
4. on interval close, assigns each stratum the Equation-1 weight
   ``W_i = C_i / Y_i`` (when the reservoir overflowed) or ``1``.

The sampler is *online*: every arrival is decided by one draw rule,
`repro.core.reservoir.draw`, which decides a run of rows for every
stratum at once from one uniform per row of a NumPy generator.  Only the
draw uses the randomness: step 1, the run's stable grouping by key
(`repro.core.reservoir.group_rows`), depends on the rows alone, so a view
over a resident `repro.core.records.RecordBatch` takes it from the
batch's cache and a second pass or seed pays only the draw.  The sampler
maps each group — not each row — to its stratum number.  A
feed may be a whole interval (``offer_many``), a chunk (``process_chunk``)
or one item (``offer``); the decisions do not depend on how the rows are
grouped, so the sample and the generator's state are the same for every
grouping of the same rows.  It is
*adaptive*: per-stratum reservoir capacities come from a policy that may
be re-evaluated every interval (e.g. driven by the query budget, see
`repro.core.budget`).

Two capacity policies from the paper are provided:

* ``EqualAllocation`` — split the interval's total sample size equally over
  the strata seen so far (the paper's ``getSampleSize(sampleSize, S)``);
  newly appearing strata get a reservoir immediately.
* ``FixedPerStratum`` — a constant reservoir size per stratum, the
  configuration used in the paper's figures ("a sample of a fixed size for
  each sub-stream", §5.2).
"""

from __future__ import annotations

import random
from array import array
from operator import itemgetter
from typing import (
    Callable,
    Dict,
    Generic,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    TypeVar,
)

import numpy as _np

from .records import L2_SLICE as _L2_SLICE
from .records import ColumnSlice, item_key
from .reservoir import draw, group_rows
from .strata import WeightedSample

T = TypeVar("T")
Key = Hashable
KeyFn = Callable[[T], Key]

__all__ = [
    "AllocationPolicy",
    "EqualAllocation",
    "FixedPerStratum",
    "ProportionalAllocation",
    "WaterFillingAllocation",
    "OASRSSampler",
    "oasrs_sample",
    "water_filling_capacities",
]


class AllocationPolicy:
    """Decides the reservoir capacity ``N_i`` for each stratum.

    ``capacity_for`` is consulted when a stratum first appears within an
    interval, and again at every ``rebalance`` (interval start), so policies
    may adapt to the evolving set of strata.
    """

    def capacity_for(self, key: Key, known_strata: int) -> int:
        raise NotImplementedError

    def rebalance(self, keys) -> Dict[Key, int]:
        """Capacities for all known strata at an interval boundary."""
        keys = list(keys)
        return {k: self.capacity_for(k, len(keys)) for k in keys}


class FixedPerStratum(AllocationPolicy):
    """Every stratum gets the same constant reservoir capacity ``N``."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity

    def capacity_for(self, key: Key, known_strata: int) -> int:
        return self.capacity


class EqualAllocation(AllocationPolicy):
    """Split a total per-interval sample size equally across known strata.

    With ``total=sampleSize`` and ``X`` strata seen so far, every stratum
    gets ``max(1, total // X)`` slots.  This mirrors the paper's
    ``getSampleSize(sampleSize, S)`` step in Algorithm 3.
    """

    def __init__(self, total: int) -> None:
        if total <= 0:
            raise ValueError(f"total sample size must be positive, got {total}")
        self.total = total

    def capacity_for(self, key: Key, known_strata: int) -> int:
        strata = max(1, known_strata)
        return max(1, self.total // strata)


class ProportionalAllocation(AllocationPolicy):
    """Allocate proportionally to observed stratum sizes (ablation policy).

    Uses the previous interval's counts as a proxy for arrival rates.  This
    is what Spark's STS effectively requires (a pre-defined per-stratum
    fraction) and is included to ablate against OASRS's fixed reservoirs.
    """

    def __init__(self, total: int) -> None:
        if total <= 0:
            raise ValueError(f"total sample size must be positive, got {total}")
        self.total = total
        self._last_counts: Dict[Key, int] = {}
        self._last_total = 0

    def observe(self, counts: Dict[Key, int]) -> None:
        self._last_counts = dict(counts)
        self._last_total = sum(self._last_counts.values())

    def capacity_for(self, key: Key, known_strata: int) -> int:
        total_seen = self._last_total
        if total_seen == 0:
            strata = max(1, known_strata)
            return max(1, self.total // strata)
        share = self._last_counts.get(key, 0) / total_seen
        return max(1, int(round(self.total * share)))


def water_filling_capacities(counts: Dict[Key, int], budget: int) -> Dict[Key, int]:
    """Split a total sample budget into per-stratum reservoir capacities.

    Finds a level ``L`` such that ``Σ min(C_i, L) ≈ budget`` and gives each
    stratum ``min(C_i, L)`` slots (never below 1): small strata are kept
    entirely while popular strata share the remaining budget equally.  This
    is the natural ``getSampleSize`` for "no stratum overlooked, fixed
    reservoir per stratum, total budget k".
    """
    if budget <= 0:
        raise ValueError(f"budget must be positive, got {budget}")
    active = {k: c for k, c in counts.items() if c > 0}
    if not active:
        return {}
    remaining = budget
    capacities: Dict[Key, int] = {}
    pending = sorted(active.items(), key=itemgetter(1))
    while pending:
        level = remaining // len(pending)
        key, count = pending[0]
        if count <= level:
            # Smallest stratum fits under the level: keep it entirely.
            capacities[key] = max(1, count)
            remaining -= count
            pending.pop(0)
        else:
            # Every remaining stratum is larger than the level: split evenly.
            capacities.update(dict.fromkeys(map(itemgetter(0), pending), max(1, level)))
            pending = []
    return capacities


class WaterFillingAllocation(AllocationPolicy):
    """Budgeted adaptive allocation: water-fill using last interval's counts.

    Stays online: the first interval splits the budget equally over strata
    seen so far; each ``rebalance`` (interval boundary) re-derives
    capacities from the counts observed in the interval just closed, fed in
    via ``observe``.
    """

    def __init__(self, total: int, expected_strata: Optional[int] = None) -> None:
        if total <= 0:
            raise ValueError(f"total sample budget must be positive, got {total}")
        if expected_strata is not None and expected_strata <= 0:
            raise ValueError("expected_strata must be positive when given")
        self.total = total
        self.expected_strata = expected_strata
        self._last_counts: Dict[Key, int] = {}
        self._capacities: Dict[Key, int] = {}

    def observe(self, counts: Dict[Key, int]) -> None:
        self._last_counts = dict(counts)
        self._capacities = (
            water_filling_capacities(self._last_counts, self.total)
            if self._last_counts
            else {}
        )

    def set_total(self, total: int) -> None:
        """Re-target the budget and re-derive capacities from the last counts.

        This is the actuation point of the §4.2 adaptive feedback loop: the
        runtime's budget controller calls it between intervals, so the next
        interval's water-filling uses the new budget immediately instead of
        lagging one ``observe`` behind.
        """
        if total <= 0:
            raise ValueError(f"total sample budget must be positive, got {total}")
        self.total = total
        if self._last_counts:
            self._capacities = water_filling_capacities(self._last_counts, total)

    def _even_share(self, known_strata: int) -> int:
        # Before the first observation, split the budget over the declared
        # sources (§2.3: strata are the registered sub-stream sources) or,
        # lacking a declaration, over the strata seen so far.
        return max(1, self.total // max(1, self.expected_strata or known_strata))

    def capacity_for(self, key: Key, known_strata: int) -> int:
        return self._capacities.get(key, self._even_share(known_strata))

    def rebalance(self, keys) -> Dict[Key, int]:
        keys = list(keys)
        share = self._even_share(len(keys))
        return {key: self._capacities.get(key, share) for key in keys}


def _positive(capacity: int) -> int:
    """A policy's answer, checked: a reservoir needs at least one slot."""
    if capacity <= 0:
        raise ValueError(f"reservoir capacity must be positive, got {capacity}")
    return capacity


class OASRSSampler(Generic[T]):
    """Streaming OASRS over consecutive time intervals.

    Parameters
    ----------
    policy:
        Reservoir-capacity policy (``N_i`` per stratum).
    key_fn:
        Maps an item to its stratum key (its sub-stream source).
    rng:
        Seeded ``random.Random`` for reproducibility.  The first decided
        row seeds the sampler's NumPy generator from it (64 bits); every
        stratum's decisions come from that one generator.

    Usage
    -----
    >>> sampler = OASRSSampler(FixedPerStratum(3), key_fn=lambda x: x[0],
    ...                        rng=random.Random(1))
    >>> for item in [("a", 1), ("a", 2), ("b", 5)]:
    ...     sampler.offer(item)
    >>> sample = sampler.close_interval()
    >>> sorted(sample.keys)
    ['a', 'b']

    ``close_interval`` returns the interval's `WeightedSample` and resets
    all reservoirs/counters for the next interval, matching Algorithm 2's
    per-time-interval loop.

    Strata are numbered in first-arrival order for the sampler's lifetime
    and every per-stratum quantity is a column indexed by that number:
    capacity ``N``, arrival counter ``C`` (one ``int64`` array, which the
    kernel advances in place), and the reservoir's slots.  An interval's
    kept items live in one of two stores — a list of item objects per
    stratum, or, for `ColumnSlice` chunks, one flat ``float64`` buffer in
    which every stratum owns ``N`` consecutive slots.  Which rows enter
    which slot is decided without looking at the payload, so both stores
    receive the same decisions.
    """

    def __init__(
        self,
        policy: AllocationPolicy,
        key_fn: KeyFn,
        rng: Optional[random.Random] = None,
    ) -> None:
        self._policy = policy
        self._key_fn = key_fn
        self._rng = rng if rng is not None else random.Random()
        # The kernel's generator, derived from ``rng`` by the first decided row.
        self._gen = None
        self._index: Dict[Key, int] = {}
        self._keys: List[Key] = []
        self._cap = array("q")
        # Arrival counters; `_decide` extends them once per feed that
        # numbered new strata.
        self._seen = _np.zeros(0, dtype=_np.int64)
        self._kept: List[list] = []
        # Value mode: this interval's kept items are floats in ``_values``,
        # stratum ``s`` owning ``_cap[s]`` slots from ``_offset[s]``.
        self._value_mode = False
        self._values = _np.empty(0)
        self._offset = array("q")
        self._room = 0
        # `_numbers`' code -> stratum-number table for one batch key table.
        self._lut = None
        self._lut_table = None

    @property
    def strata_seen(self) -> int:
        """Number of distinct strata observed since construction."""
        return len(self._keys)

    def _register(self, key: Key) -> int:
        """Number a newly arrived stratum and give it its capacity."""
        number = len(self._keys)
        capacity = _positive(self._policy.capacity_for(key, number + 1))
        self._index[key] = number
        self._keys.append(key)
        self._cap.append(capacity)
        self._kept.append([])
        self._offset.append(self._room)
        self._room += capacity
        return number

    def offer(self, item: T) -> None:
        """Offer one arriving item: a one-row ``process_chunk``."""
        self.process_chunk((item,))

    def offer_many(self, items: Iterable[T]) -> None:
        """Offer items in order: one ``process_chunk`` over all of them."""
        self.process_chunk(items)

    def _takes_columns(self, items) -> bool:
        """A column view, canonical stratifier, no tuple-kept item so far."""
        return (
            isinstance(items, ColumnSlice)
            and self._key_fn is item_key
            and (self._value_mode or not self._seen.any())
        )

    def process_chunk(self, items: Sequence[T]) -> int:
        """Route and sample a whole chunk at once; returns how many rows
        entered a reservoir.

        The chunk's rows are grouped by stratum (`group_rows`; a located
        column view takes its batch's cached grouping), each group is
        mapped to a stratum number (new strata are numbered in arrival
        order), `repro.core.reservoir.draw` decides every row of every
        stratum in one pass, and the kept rows
        are written to the interval's store.  The decision depends only on
        the stratum sequence, the counters, the capacities and the
        generator — a `repro.core.records.ColumnSlice` chunk (canonical
        ``item_key`` stratifier) and the list of its item tuples therefore
        sample identically, bit for bit; the column chunk merely skips
        building the tuples.  Nor does it depend on the chunk boundaries:
        the kernel draws one uniform per row in stream order, so any split
        of the same rows into chunks (one-row chunks included) keeps the
        same items.  Chunks larger than `repro.core.records.L2_SLICE` are
        processed slice by slice to keep the working set cache-sized.
        """
        if not hasattr(items, "__len__"):
            items = list(items)
        n = len(items)
        if n > _L2_SLICE:
            return sum(
                self._process_slice(items[start : start + _L2_SLICE])
                for start in range(0, n, _L2_SLICE)
            )
        return self._process_slice(items)

    def _process_slice(self, items: Sequence[T]) -> int:
        """`process_chunk` over at most `repro.core.records.L2_SLICE` rows."""
        n = len(items)
        if n == 0:
            return 0
        if self._takes_columns(items):
            return self._process_columns(items)
        if self._value_mode:
            self._leave_value_mode()
        index = self._index
        key_fn = self._key_fn
        strata = []
        for item in items:
            key = key_fn(item)
            number = index.get(key)
            strata.append(self._register(key) if number is None else number)
        grouping = group_rows(_np.fromiter(strata, _np.intp, n))
        rows, numbers, slots = self._decide(grouping, grouping.codes)
        kept = self._kept
        for row, number, slot in zip(rows.tolist(), numbers.tolist(), slots.tolist()):
            store = kept[number]
            if slot < len(store):
                store[slot] = items[row]
            else:
                store.append(items[row])
        return len(rows)

    def _decide(self, grouping, numbers):
        """`draw` over ``grouping``, counters extended to new strata."""
        seen, strata_seen = self._seen, len(self._keys)
        if len(seen) < strata_seen:
            grown = _np.zeros(strata_seen, dtype=_np.int64)
            grown[: len(seen)] = seen
            self._seen = seen = grown
        if self._gen is None:
            self._gen = _np.random.default_rng(self._rng.getrandbits(64))
        cap = _np.frombuffer(self._cap, dtype=_np.int64)
        return draw(grouping, numbers, seen, cap, self._gen)

    def _numbers(self, grouping, table):
        """Stratum number of every group of a column chunk's grouping.

        Codes go through a per-key-table translation array, one lookup per
        group.  Strata are numbered by *arrival*, never by code — new ones
        in the order of their group's first row — so how a batch happened
        to intern its keys cannot influence the sample.
        """
        if table is not self._lut_table or len(table) != len(self._lut):
            if len(set(table)) != len(table):
                raise ValueError("a column view's key table names a key twice")
            index = self._index
            self._lut = _np.fromiter(
                (index.get(key, -1) for key in table), dtype=_np.intp, count=len(table)
            )
            self._lut_table = table
        numbers = self._lut[grouping.codes]
        fresh = (numbers < 0).nonzero()[0]
        if len(fresh):
            for group in fresh[_np.argsort(grouping.firsts[fresh])].tolist():
                code = grouping.codes[group]
                key = table[code]
                number = self._index.get(key)
                self._lut[code] = self._register(key) if number is None else number
            numbers = self._lut[grouping.codes]
        return numbers

    def _process_columns(self, chunk: ColumnSlice) -> int:
        """Column chunk: `_decide`, then scatter the kept values into the buffer."""
        grouping = chunk.grouping()
        numbers = self._numbers(grouping, chunk.key_table)
        offset = _np.frombuffer(self._offset, dtype=_np.int64)
        if not self._value_mode:
            # First column chunk of the interval: every known stratum gets
            # its N slots, in numbering order.
            cap = _np.frombuffer(self._cap, dtype=_np.int64)
            _np.cumsum(cap, out=offset)
            self._room = int(offset[-1])
            offset -= cap
            self._value_mode = True
        if self._room > len(self._values):
            grown = _np.empty(max(self._room, 2 * len(self._values)))
            grown[: len(self._values)] = self._values
            self._values = grown
        rows, numbers, slots = self._decide(grouping, numbers)
        # NumPy assigns index arrays front to back, so of two rows naming
        # one slot the later stays (tests/test_segmented_kernel.py pins it).
        self._values[offset[numbers] + slots] = chunk.values[rows]
        return len(rows)

    def _leave_value_mode(self) -> None:
        """Move the interval's kept floats into the item store.

        The runtime never mixes column and tuple feeds inside one interval;
        if a caller does, the floats become the ``(key, value)`` tuples the
        tuple feed would have stored.
        """
        sample = self.peek()
        for key, members in zip(sample.keys, sample.members):
            self._kept[self._index[key]] = list(members)
        self._value_mode = False

    def peek(self) -> WeightedSample[T]:
        """Current interval's weighted sample *without* resetting state:
        the strata that received an item, in numbering order, their kept
        floats (value mode) copied into one array the sample owns."""
        if not self._value_mode:
            counts = self._seen.tolist()
            active = [number for number, count in enumerate(counts) if count]
            members = [tuple(self._kept[number]) for number in active]
            return WeightedSample.of_columns(
                [self._keys[number] for number in active],
                [counts[number] for number in active],
                list(map(len, members)),
                members=members,
            )
        seen = self._seen
        active = _np.flatnonzero(seen)
        kept = _np.minimum(seen[active], _np.frombuffer(self._cap, _np.int64)[active])
        sizes = kept.tolist()
        starts = _np.frombuffer(self._offset, dtype=_np.int64)[active]
        ends = starts + kept
        # Strata whose filled slots touch are copied as one slice; a run breaks
        # at empty slots or at a stratum re-sized mid-interval.
        head = _np.empty(len(starts), dtype=bool)
        head[0], head[1:] = True, starts[1:] != ends[:-1]
        runs = head.nonzero()[0]
        first = starts[runs].tolist()
        last = ends[runs[1:] - 1].tolist() + [int(ends[-1])]
        values = self._values
        packed = _np.concatenate([values[a:b] for a, b in zip(first, last)])
        keys = self._keys
        return WeightedSample.of_columns(
            [keys[number] for number in active.tolist()], seen[active].tolist(), sizes,
            packed=packed,
        )

    def close_interval(self) -> WeightedSample[T]:
        """Finish the interval: emit its sample and reset for the next one.

        Reservoir capacities are re-derived from the policy so adaptive
        policies (budget feedback, proportional allocation) take effect at
        interval boundaries, as in Algorithm 2.  The value buffer is kept
        and refilled by the next interval.
        """
        sample = self.peek()
        if isinstance(self._policy, (ProportionalAllocation, WaterFillingAllocation)):
            self._policy.observe(dict(zip(sample.keys, sample.counts)))
        self._seen[:] = 0
        self._kept = [[] for _ in range(len(self._keys))]
        self._value_mode = False
        self.rebalance()
        return sample

    def set_policy(self, policy: AllocationPolicy) -> None:
        """Swap the allocation policy (used by the adaptive budget loop)."""
        self._policy = policy

    def rebalance(self) -> None:
        """Re-derive reservoir capacities from the (possibly updated) policy.

        ``close_interval`` already sets the next interval's capacities, so
        a budget change applied *between* intervals (the §4.2 feedback
        step) would otherwise only take effect one interval late.  Only
        strata that have not received an item are re-sized, so the call is
        safe at any point — mid-interval it leaves active reservoirs alone.
        """
        capacities = self._policy.rebalance(self._keys)
        fresh = (self._seen == 0).nonzero()[0].tolist()
        sizes = [capacities[self._keys[number]] for number in fresh]
        _positive(min(sizes, default=1))
        for number, capacity in zip(fresh, sizes):
            self._cap[number] = capacity
            if self._value_mode:
                # Mid-interval: the re-sized stratum's slots move to the
                # end of the buffer.
                self._offset[number] = self._room
                self._room += capacity


def oasrs_sample(
    items: Iterable[T],
    sample_size_per_stratum: int,
    key_fn: KeyFn,
    rng: Optional[random.Random] = None,
) -> WeightedSample[T]:
    """One-shot OASRS over a finite batch of items (one time interval).

    This is the ``OASRS(items, sampleSize)`` call of Algorithm 2 specialised
    to the fixed-per-stratum policy the paper evaluates.
    """
    sampler: OASRSSampler[T] = OASRSSampler(
        FixedPerStratum(sample_size_per_stratum), key_fn=key_fn, rng=rng
    )
    sampler.offer_many(items)
    return sampler.close_interval()
