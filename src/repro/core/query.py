"""Approximate linear queries over weighted samples (§3.2, Equations 2–4).

OASRS supports *linear* queries — anything expressible as a weighted sum of
per-item values.  Given the interval's `WeightedSample`, the estimators are:

* ``SUM_i  = (Σ_j I_{i,j}) × W_i``                 (Equation 2, per stratum)
* ``SUM    = Σ_i SUM_i``                           (Equation 3)
* ``MEAN   = SUM / Σ_i C_i``                       (Equation 4)
* ``COUNT  = Σ_i C_i`` (exact — counters are maintained, not sampled)
* per-group variants (grouped sum/mean/count/histogram) that treat each
  group independently, which is how the case studies use the system
  (traffic per protocol, mean distance per borough).

Every estimator returns the per-stratum pieces alongside the scalar so that
`repro.core.error` can attach variance-based error bounds.  SUM, MEAN and
COUNT have one numerical form, whatever the sample and however many
intervals a pane spans: per-interval moments (`interval_moments`) pooled
by `pooled_result`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter, itemgetter, mul
from typing import Callable, Dict, Generic, Hashable, List, Optional, Tuple, TypeVar
from typing import NamedTuple

import numpy as _np

from .records import item_key as _item_key
from .records import item_value as _item_value
from .strata import WeightedSample, stratum_weight

T = TypeVar("T")
ValueFn = Callable[[T], float]

__all__ = [
    "StratumStats",
    "approximate_sum",
    "approximate_mean",
    "approximate_count",
    "grouped_sum",
    "grouped_sum_results",
    "grouped_mean",
    "histogram",
    "histogram_with_errors",
    "QueryResult",
]


@dataclass(frozen=True)
class StratumStats:
    """Per-stratum sufficient statistics feeding Equations 2–9.

    ``y`` is the sample size ``Y_i``, ``c`` the population counter ``C_i``,
    ``weight`` the Equation-1 weight, ``mean``/``variance`` the sample mean
    ``Ī_i`` and unbiased sample variance ``s_i²`` (Equation 7).
    """

    key: Hashable
    y: int
    c: int
    weight: float
    total: float
    mean: float
    variance: float


def _stratum_stats(key: Hashable, c: int, values: List[float]) -> StratumStats:
    """One stratum's moments over its kept ``values`` by ``fsum``: the pivot,
    shift and corrected two-pass of `interval_moments`, for
    `grouped_sum_results`' per-group restrictions.  An empty stratum reads
    zero moments."""
    y = len(values)
    n = max(y, 1)
    pivot = math.fsum(values) / n
    d = [v - pivot for v in values]
    sd = math.fsum(d)
    mean = pivot + sd / n
    m2 = max(0.0, math.fsum(x * x for x in d) - sd * sd / n)
    variance = m2 / (y - 1) if y > 1 else 0.0
    return StratumStats(key, y, c, stratum_weight(c, y), mean * y, mean, variance)


class _StrataColumns(NamedTuple):
    """`StratumStats` as columns: one list per field, one entry per stratum."""

    key: list
    y: list
    c: list
    weight: list
    total: list
    mean: list
    variance: list

    @classmethod
    def of(cls, strata) -> "_StrataColumns":
        strata = list(strata)
        return cls(*[list(map(attrgetter(name), strata)) for name in cls._fields])


class QueryResult(Generic[T]):
    """An approximate scalar plus the per-stratum statistics behind it.

    ``columns`` holds the statistics, one list per `StratumStats` field;
    ``strata``, the objects, is a tuple of what the caller passed or is
    built from the columns on first access.
    """

    def __init__(self, value: float, strata, kind: str, columns=None):
        self.value, self.kind = value, kind
        self._strata = None if strata is None else tuple(strata)
        self.columns = _StrataColumns.of(self._strata) if columns is None else columns

    @property
    def strata(self) -> Tuple[StratumStats, ...]:
        if self._strata is None:
            self._strata = tuple(map(StratumStats, *self.columns))
        return self._strata

    def __repr__(self) -> str:
        kind, strata = self.kind, len(self.columns.key)
        return f"QueryResult(value={self.value!r}, kind={kind!r}, strata={strata})"

    def __eq__(self, other):
        if not isinstance(other, QueryResult):
            return NotImplemented
        return (self.value, self.columns, self.kind) == (
            other.value, other.columns, other.kind
        )

    def __float__(self) -> float:
        return self.value


def _linear_result(columns: _StrataColumns, kind: str) -> QueryResult:
    """Equations 2–4 over per-stratum statistics: SUM = Σ total·W, MEAN =
    SUM / Σ C (0 for an empty interval), COUNT = Σ C."""
    value = math.fsum(map(mul, columns.total, columns.weight))
    population = sum(columns.c)
    if kind == "mean":
        value = value / population if population else 0.0
    elif kind == "count":
        value = float(population)
    return QueryResult(value, None, kind, columns)


def interval_moments(sample: WeightedSample[T], value_fn: Optional[ValueFn]):
    """One interval's per-stratum moments, ``(keys, rows)``, for `pooled_result`.

    ``rows`` holds ``(Y, C, pivot, shift, M2)`` per stratum, in sample
    order (a stratum that kept nothing reads ``(0, C, 0, 0, 0)``).  All
    strata are one segmented pass over the interval's kept values: the
    pivot is the rounded segment mean ``fl(Σv / Y)``, the deviations
    ``d = v − pivot`` are exact-scale (no offset left in them),
    ``M2 = Σd² − (Σd)²/Y`` is the corrected two-pass sum of squares (Chan,
    Golub & LeVeque) and ``shift = Σd / Y`` is what rounding the mean
    dropped — the segment mean is ``pivot + shift``.  Value-mode samples
    are read from their packed array (`WeightedSample.packed`; merged
    samples concatenate their strata's arrays once), tuple-mode samples go
    through ``value_fn`` once.

    Computed once per ``value_fn`` and kept on the sample
    (`WeightedSample.moments`): a sliding window pools every interval into
    several panes.
    """
    moments = sample.moments.get(value_fn)
    if moments is None:
        moments = sample.moments[value_fn] = _segment_moments(sample, value_fn)
    return moments


def _segment_moments(sample: WeightedSample[T], value_fn: Optional[ValueFn]):
    keys = sample.keys
    rows = _np.zeros((len(keys), 5))
    rows[:, 0], rows[:, 1] = sample.sizes, sample.counts
    kept = rows[:, 0] > 0
    y = rows[kept, 0].astype(_np.intp)
    if not y.size:
        return keys, rows
    starts = _np.cumsum(y) - y
    values = sample.packed
    if values is None or (value_fn is not None and value_fn is not _item_value):
        arrays = sample.value_arrays(value_fn)
        if arrays:
            values = _np.concatenate(arrays)
        else:
            items = chain.from_iterable(sample.members)
            fn = itemgetter(1) if value_fn is _item_value else (value_fn or float)
            values = _np.fromiter(map(fn, items), dtype=_np.float64, count=int(y.sum()))
    pivot = _np.add.reduceat(values, starts) / y
    # One scratch array, written in place: fresh ones would page-fault.
    d = _np.repeat(pivot, y)
    _np.subtract(values, d, out=d)
    sd = _np.add.reduceat(d, starts)
    m2 = _np.add.reduceat(_np.square(d, out=d), starts) - sd * sd / y
    rows[kept, 2:] = _np.column_stack((pivot, sd / y, _np.maximum(m2, 0.0)))
    return keys, rows


def pooled_result(moment_sets, kind: str) -> QueryResult:
    """Pool `interval_moments` across a window's intervals into a SUM, MEAN
    or COUNT result — Equations 2–4 and 7 on the concatenated pane sample.

    Strata come in first-appearance order.  Each stratum's intervals are
    pooled around one reference, the rounded ``ΣYⱼ·pivotⱼ / ΣY``: interval
    means are offsets ``u = (pivot − ref) + shift`` — the difference is
    exact while the pivots lie within a factor 2 of the reference — so the
    pooled mean ``ref + ū`` and the between-interval term never hold the
    offset, and ``M2 = Σ M2ⱼ + Σ Yⱼ·(uⱼ − ū)²`` (within + between).
    ``total`` is ``Y × mean``; the weight ``ΣC / ΣY`` re-derives from
    Equation 1.  A stratum that kept nothing reads zero moments.
    """
    index: Dict[Hashable, int] = {}
    rows = [index.setdefault(k, len(index)) for ks, _ in moment_sets for k in ks]
    keys = list(index)
    y, c, pivot, shift, m2 = _np.concatenate([part for _, part in moment_sets]).T
    at = _np.array(rows, dtype=_np.intp)

    def per_stratum(weights):
        return _np.bincount(at, weights=weights, minlength=len(keys))

    ys, cs = per_stratum(y), per_stratum(c)
    n = _np.maximum(ys, 1.0)
    ref = per_stratum(y * pivot) / n
    u = (pivot - ref[at]) + shift
    mean_u = per_stratum(y * u) / n
    dev = u - mean_u[at]
    m2 = per_stratum(m2) + per_stratum(y * dev * dev)
    mean = ref + mean_u
    columns = _StrataColumns(
        list(keys), ys.astype(_np.int64).tolist(), cs.astype(_np.int64).tolist(),
        _np.where((cs > ys) & (ys > 0), cs / n, 1.0).tolist(),  # Equation 1
        (mean * ys).tolist(), mean.tolist(),
        (m2 / _np.maximum(ys - 1, 1) * (ys > 1)).tolist(),
    )
    return _linear_result(columns, kind)


def approximate_sum(
    sample: WeightedSample[T], value_fn: Optional[ValueFn] = None
) -> QueryResult[T]:
    """Equations 2–3: the weighted-sum estimator of the interval total."""
    return pooled_result([interval_moments(sample, value_fn)], "sum")


def approximate_mean(
    sample: WeightedSample[T], value_fn: Optional[ValueFn] = None
) -> QueryResult[T]:
    """Equation 4: approximate mean = SUM / Σ C_i (0 for an empty interval)."""
    return pooled_result([interval_moments(sample, value_fn)], "mean")


def _one(_item) -> float:
    # Module-level, not a lambda: the sample's moment memo is keyed by it.
    return 1.0


def approximate_count(sample: WeightedSample[T]) -> QueryResult[T]:
    """Item count.  Exact, because OASRS keeps the per-stratum counters."""
    return pooled_result([interval_moments(sample, _one)], "count")


def _strata_as_groups(sample, group_fn, value_fn):
    """``(group, values, weight)`` per non-empty stratum, or None.

    When the grouping *is* the stratification (``group_fn is item_key``)
    and every stratum is value-mode, each stratum is exactly one group and
    its kept values are already a ``float64`` array — the grouped
    estimators then accumulate per stratum instead of per item.  Any other
    grouping may cut across strata and keeps the per-item loop.
    """
    if group_fn is not _item_key or value_fn is not _item_value:
        return None
    arrays = sample.value_arrays(value_fn)
    if arrays is None:
        return None
    return [
        (stratum.items.key, values, stratum.weight)
        for stratum, values in zip(sample, arrays)
        if len(values)
    ]


def _running_sum(terms) -> float:
    """``0.0 + t₀ + t₁ + …`` added one by one, as the per-item loop adds them.

    ``cumsum`` accumulates sequentially (unlike ``sum``, which is pairwise);
    the trailing ``+ 0.0`` is the loop's ``0.0`` start, which only matters
    when every term is ``-0.0``.
    """
    return float(_np.cumsum(terms)[-1]) + 0.0


def grouped_sum(
    sample: WeightedSample[T],
    group_fn: Callable[[T], Hashable],
    value_fn: Optional[ValueFn] = None,
) -> Dict[Hashable, float]:
    """Weighted sum per group (e.g. bytes per protocol).

    Groups may cut across strata; each item contributes
    ``value × stratum_weight`` to its group, which stays a linear query.
    """
    columns = _strata_as_groups(sample, group_fn, value_fn)
    if columns is not None:
        return {
            group: _running_sum(values * weight) for group, values, weight in columns
        }
    vf: ValueFn = (lambda x: float(x)) if value_fn is None else value_fn  # type: ignore[assignment,return-value]
    out: Dict[Hashable, float] = {}
    for stratum in sample:
        for item in stratum.items:
            group = group_fn(item)
            out[group] = out.get(group, 0.0) + vf(item) * stratum.weight
    return out


def grouped_mean(
    sample: WeightedSample[T],
    group_fn: Callable[[T], Hashable],
    value_fn: Optional[ValueFn] = None,
) -> Dict[Hashable, float]:
    """Weighted mean per group (e.g. mean trip distance per borough).

    The denominator is the *estimated* group population Σ weight, because
    exact per-group counters only exist when groups coincide with strata.
    When they do coincide (the common case in the paper's case studies) the
    estimate equals Equation 4 computed per stratum.
    """
    columns = _strata_as_groups(sample, group_fn, value_fn)
    if columns is not None:
        return {
            group: _running_sum(values * weight)
            / _running_sum(_np.full(len(values), weight))
            for group, values, weight in columns
        }
    vf: ValueFn = (lambda x: float(x)) if value_fn is None else value_fn  # type: ignore[assignment,return-value]
    sums: Dict[Hashable, float] = {}
    weights: Dict[Hashable, float] = {}
    for stratum in sample:
        for item in stratum.items:
            group = group_fn(item)
            sums[group] = sums.get(group, 0.0) + vf(item) * stratum.weight
            weights[group] = weights.get(group, 0.0) + stratum.weight
    return {g: sums[g] / weights[g] for g in sums if weights[g] > 0}


def histogram(
    sample: WeightedSample[T],
    bin_fn: Callable[[T], Hashable],
) -> Dict[Hashable, float]:
    """Weighted histogram: estimated population count per bin."""
    return grouped_sum(sample, group_fn=bin_fn, value_fn=lambda _x: 1.0)


def grouped_sum_results(
    sample: WeightedSample[T],
    group_fn: Callable[[T], Hashable],
    value_fn: Optional[ValueFn] = None,
) -> Dict[Hashable, "QueryResult[T]"]:
    """Per-group SUM estimates *with per-stratum statistics*, one per group.

    Each group's estimate is itself a linear query over the restriction of
    every stratum to that group, so Equation 6 applies per group — this is
    what powers per-bin error bounds on histograms and per-protocol /
    per-borough bounds in the case studies.  The restricted stratum keeps
    the full stratum weight; its count is estimated as
    ``round(members × W_i)`` (exact whenever groups coincide with strata).
    """
    vf: ValueFn = (lambda x: float(x)) if value_fn is None else value_fn  # type: ignore[assignment,return-value]
    groups = {group_fn(item) for stratum in sample for item in stratum.items}

    out: Dict[Hashable, QueryResult[T]] = {}
    for group in groups:
        # A group sum is the linear query with the *extended* value function
        # v'(x) = v(x)·1[x ∈ group], evaluated over every stratum's full
        # sample — so Y_i, C_i and the Equation-7 variance all come from the
        # whole stratum, and the variance correctly reflects how uncertain
        # the group's membership count is, not just its members' values.
        strata = [
            _stratum_stats(
                stratum.key,
                stratum.count,
                [vf(item) if group_fn(item) == group else 0.0 for item in stratum.items],
            )
            for stratum in sample
            if len(stratum.items)
        ]
        out[group] = _linear_result(_StrataColumns.of(strata), "sum")
    return out


def histogram_with_errors(
    sample: WeightedSample[T],
    bin_fn: Callable[[T], Hashable],
) -> Dict[Hashable, "QueryResult[T]"]:
    """Histogram bins as SUM queries, ready for `estimate_error` per bin."""
    return grouped_sum_results(sample, group_fn=bin_fn, value_fn=lambda _x: 1.0)
