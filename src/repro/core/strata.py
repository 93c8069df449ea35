"""Stratum bookkeeping for stratified sampling (§3.2, Equation 1).

A *stratum* is one sub-stream of the input: data items that share a source
and therefore (by the paper's design assumption, §2.3) follow the same
distribution.  During one time interval OASRS keeps, per stratum ``S_i``:

* a fixed-capacity reservoir of sampled items (``N_i`` slots),
* a counter ``C_i`` of items received, and
* a weight ``W_i`` derived from the two (Equation 1)::

      W_i = C_i / N_i   if C_i > N_i    (each kept item stands for C_i/N_i)
      W_i = 1           if C_i <= N_i   (every item was kept)

``StratumSample`` is the immutable per-stratum result handed to the query
and error-estimation layers; ``WeightedSample`` bundles all strata of one
interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain
from typing import Dict, Generic, Hashable, List, Optional, Sequence, Tuple, TypeVar

from .records import _StratumMembers, concat_members, members_view, packed_view
from .records import item_value as _item_value

T = TypeVar("T")
Key = Hashable

__all__ = ["StratumSample", "WeightedSample", "stratum_weight"]


def stratum_weight(count: int, sample_size: int) -> float:
    """Equation 1: the representation weight of one sampled item.

    ``count`` is ``C_i`` (items received from the stratum this interval) and
    ``sample_size`` is ``Y_i`` (items actually kept).  When the stratum
    overflowed its reservoir each kept item represents ``C_i / Y_i`` original
    items; otherwise every item represents only itself.
    """
    if count < 0:
        raise ValueError(f"stratum count must be non-negative, got {count}")
    if sample_size < 0:
        raise ValueError(f"sample size must be non-negative, got {sample_size}")
    if sample_size == 0:
        return 1.0
    if count > sample_size:
        return count / sample_size
    return 1.0


@dataclass(frozen=True)
class StratumSample(Generic[T]):
    """The sample drawn from one stratum during one time interval.

    Attributes
    ----------
    key:
        The stratum identifier (sub-stream source).
    items:
        The ``Y_i`` sampled items.
    count:
        ``C_i`` — how many items the stratum contributed in total.
    weight:
        ``W_i`` from Equation 1.
    """

    key: Key
    items: Tuple[T, ...]
    count: int
    weight: float

    def __post_init__(self) -> None:
        if self.count < len(self.items):
            raise ValueError(
                f"stratum {self.key!r}: count {self.count} smaller than "
                f"sample size {len(self.items)}"
            )
        if self.weight <= 0:
            raise ValueError(f"stratum {self.key!r}: weight must be positive")

    @property
    def sample_size(self) -> int:
        """``Y_i`` — number of items kept from this stratum."""
        return len(self.items)

    @property
    def estimated_count(self) -> float:
        """``Y_i * W_i`` — the stratum population the sample stands for."""
        return self.sample_size * self.weight

    def values(self, value_fn=None) -> List[float]:
        """Numeric values of the sampled items (identity by default)."""
        raw = getattr(self.items, "value_list", None)
        if raw is not None and (value_fn is None or value_fn is _item_value):
            # Value-mode members already hold the raw float column; no
            # per-item projection call is needed.
            return list(raw())
        if value_fn is None:
            return [float(x) for x in self.items]  # type: ignore[arg-type]
        return [float(value_fn(x)) for x in self.items]

    def value_array(self, value_fn=None):
        """The kept values as a ``float64`` array, or None off the columnar path.

        Only value-mode members (fed by the columnar sampling kernel, or
        merged from such runs) read through the canonical value projection
        have the array; everything else — item tuples, custom projections,
        no NumPy — returns None and the caller keeps its per-item code.
        """
        raw = getattr(self.items, "value_array", None)
        if raw is not None and (value_fn is None or value_fn is _item_value):
            return raw()
        return None


class WeightedSample(Generic[T]):
    """All strata sampled within one time interval (the pair *sample, W*).

    This is what ``OASRS(items, sampleSize)`` in Algorithm 2/3 returns: the
    union of per-stratum samples together with their weights, ready for an
    approximate linear query (`repro.core.query`) and error estimation
    (`repro.core.error`).

    The sample is columns, one entry per stratum in stratum order: ``keys``,
    the counters ``counts`` (``C_i``), the kept sizes ``sizes`` (``Y_i``)
    and the kept items — in value mode one ``float64`` array, ``packed``,
    stratum after stratum, else ``members``, one item sequence per stratum.
    `StratumSample` objects, with their Equation-1 weights, are built only
    when a consumer iterates or indexes the sample (the merges, the budget
    controller, pickles), and are kept from then on.
    """

    def __init__(self, strata: Optional[Dict[Key, StratumSample[T]]] = None) -> None:
        self._keys, self.counts, self.sizes = [], [], []
        self.packed, self._members, self._strata = None, [], {}
        #: `repro.core.query.interval_moments` by value function, so an
        #: interval is reduced once however many panes pool it.  A cache:
        #: `add` drops it and a pickle leaves it out (its keys may be lambdas).
        self.moments: Dict[object, object] = {}
        for stratum in (strata or {}).values():
            self.add(stratum)

    @classmethod
    def of_columns(cls, keys, counts, sizes, packed=None, members=None):
        """A sample straight from its columns; ``packed`` (value mode) or
        ``members`` holds the kept items."""
        sample: WeightedSample[T] = cls()
        sample._keys, sample.counts, sample.sizes = keys, counts, sizes
        sample.packed, sample._members, sample._strata = packed, members, None
        return sample

    @property
    def members(self) -> List[Sequence[T]]:
        """The kept items, one sequence per stratum (value mode: lazy
        ``(key, value)`` views of ``packed``)."""
        if self._members is None:
            starts = accumulate(self.sizes, initial=0)
            self._members = [
                _StratumMembers(key, self.packed[start : start + size])
                for key, start, size in zip(self._keys, starts, self.sizes)
            ]
        return self._members

    @property
    def strata(self) -> Dict[Key, StratumSample[T]]:
        """Key -> `StratumSample`, built from the columns on first use."""
        if self._strata is None:
            weights = map(stratum_weight, self.counts, self.sizes)
            self._strata = dict(zip(self._keys, map(
                StratumSample, self._keys, self.members, self.counts, weights
            )))
        return self._strata

    def __getstate__(self) -> dict:
        return {"strata": self.strata}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["strata"])

    def __eq__(self, other):
        if not isinstance(other, WeightedSample):
            return NotImplemented
        return self.strata == other.strata

    def add(self, stratum: StratumSample[T]) -> None:
        strata, members = self.strata, self.members
        if stratum.key in strata:
            raise KeyError(f"stratum {stratum.key!r} already present")
        strata[stratum.key] = stratum
        self.packed = None  # the members no longer tile one array
        self._keys.append(stratum.key)
        self.counts.append(stratum.count)
        self.sizes.append(len(stratum.items))
        members.append(stratum.items)
        self.moments.clear()

    def __len__(self) -> int:
        return len(self._keys)

    def __iter__(self):
        return iter(self.strata.values())

    def __contains__(self, key: Key) -> bool:
        return key in self._keys

    def __getitem__(self, key: Key) -> StratumSample[T]:
        return self.strata[key]

    @property
    def keys(self) -> List[Key]:
        return list(self._keys)

    @property
    def total_items(self) -> int:
        """Total sampled items across strata (Σ Y_i)."""
        return sum(self.sizes)

    @property
    def total_count(self) -> int:
        """Total received items across strata (Σ C_i)."""
        return sum(self.counts)

    @property
    def sampling_fraction(self) -> float:
        """Achieved fraction Σ Y_i / Σ C_i (0 when the interval was empty)."""
        total = self.total_count
        if total == 0:
            return 0.0
        return self.total_items / total

    def value_arrays(self, value_fn=None):
        """Every stratum's kept values as a ``float64`` array (what
        `StratumSample.value_array` reads), in stratum order.

        None as soon as one stratum is off the columnar path: estimators
        either read the whole sample as arrays or not at all.
        """
        if value_fn is not None and value_fn is not _item_value:
            return None
        readers = [getattr(items, "value_array", None) for items in self.members]
        return None if None in readers else [read() for read in readers]

    def all_items(self) -> Sequence[T]:
        """Every sampled item, flat (order: stratum insertion order) — for an
        all-value-mode sample a `ColumnSlice` over the packed values: the
        list's items, ``len``, slicing and iteration, no tuple built."""
        if self.packed is not None:
            return packed_view(self.keys, self.sizes, self.packed)
        columns = members_view(self.members)
        if columns is not None:
            return columns
        return list(chain.from_iterable(self.members))

    def merge(self, *others: "WeightedSample[T]") -> "WeightedSample[T]":
        """Merge interval samples over *disjoint* stratum partitions.

        Used by the distributed execution path (§3.2) and by sliding-window
        panes: samples of the *same* stratum are combined by summing counts
        and concatenating items, then re-deriving the weight from
        Equation 1.  See `combine_worker_samples`.
        """
        return combine_worker_samples((self, *others))


def combine_worker_samples(
    samples: Sequence[WeightedSample[T]],
) -> WeightedSample[T]:
    """Merge samples into one in a single pass, re-deriving weights per stratum.

    Strata appear in first-appearance order (the first sample's keys, then
    each later sample's new keys) — never set order, because stratum order
    feeds order-sensitive float accumulation in the error bounds and must
    not depend on ``PYTHONHASHSEED``.  Each stratum's kept items are
    concatenated once across all samples (`repro.core.records.concat_members`:
    value-mode runs become one ``float64`` array, no per-item tuples) and
    ``W = ΣC / ΣY`` follows from Equation 1.
    """
    if not samples:
        return WeightedSample()
    if len(samples) == 1:
        return samples[0]
    runs: Dict[Key, List[StratumSample[T]]] = {}
    for sample in samples:
        for stratum in sample:
            runs.setdefault(stratum.key, []).append(stratum)
    merged: WeightedSample[T] = WeightedSample()
    for key, parts in runs.items():
        if len(parts) == 1:
            merged.add(parts[0])
            continue
        items = concat_members([part.items for part in parts])
        count = sum(part.count for part in parts)
        merged.add(StratumSample(key, items, count, stratum_weight(count, len(items))))
    return merged


__all__.append("combine_worker_samples")
