"""Weighted quantiles and heavy hitters over OASRS samples (extensions).

The paper supports *linear* queries (Eq. 2–4) and notes they "can be
extended to support a large range of statistical learning algorithms".
Two extensions every monitoring deployment asks for next are implemented
here on top of the same `WeightedSample`:

* **weighted quantiles** — the q-quantile of the original stream is
  estimated by the q-quantile of the sampled values where each sampled
  item counts ``W_i`` times.  Not a linear query, so instead of Eq. 6
  bounds we provide a conservative distribution-free confidence interval
  via the Dvoretzky–Kiefer–Wolfowitz (DKW) inequality on the weighted
  empirical CDF.
* **heavy hitters** — the items (by a key function) whose estimated
  population frequency exceeds a threshold; frequencies are weighted
  histogram counts (a linear query), so Eq.-6 error bounds apply per
  candidate through `repro.core.query.histogram_with_errors`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Hashable, List, Optional, Tuple, TypeVar

import numpy as _np

from .error import estimate_error
from .query import ValueFn, histogram_with_errors
from .strata import WeightedSample

T = TypeVar("T")

__all__ = [
    "approximate_quantile",
    "approximate_median",
    "QuantileEstimate",
    "DKWBound",
    "quantile_bound",
    "HeavyHitter",
    "heavy_hitters",
]


@dataclass(frozen=True)
class QuantileEstimate:
    """A quantile estimate with a DKW-style confidence interval.

    ``lower``/``upper`` are values of the sampled support bracketing the
    quantile at the requested confidence (conservative: DKW treats the
    weighted sample as ``effective_n`` i.i.d. draws, where ``effective_n``
    is the Kish effective sample size of the weights).
    """

    q: float
    value: float
    lower: float
    upper: float
    confidence: float
    effective_n: float


@dataclass(frozen=True)
class DKWBound:
    """A `QuantileEstimate`'s interval with the `ErrorBound` surface.

    Quantiles are not linear queries, so their intervals come from the
    DKW inequality rather than Equations 6/9 — and a DKW bracket is
    *asymmetric*: ``lower``/``upper`` are sampled support values, not
    ``value ± margin``.  This adapter exposes the bracket through the same
    duck-typed surface every `repro.core.error.ErrorBound` consumer reads
    (``margin``, ``interval``, ``relative_margin``, ``covers``), so pane
    results, the budget control loop, and report formatting work unchanged:

    * ``interval`` is the true asymmetric ``(lower, upper)`` bracket,
    * ``margin`` is the wider half-width ``max(value − lower,
      upper − value)`` — conservative, so an `AccuracyBudget` targeting a
      margin drives the sample size from the worse side,
    * ``variance``/``stddev`` are back-derived from that margin
      (distribution-free intervals have no sampling variance of their
      own; consumers that sum variances get a conservative stand-in).
    """

    value: float
    lower: float
    upper: float
    confidence: float
    q: float
    effective_n: float

    @property
    def margin(self) -> float:
        return max(self.value - self.lower, self.upper - self.value)

    @property
    def variance(self) -> float:
        return self.margin ** 2

    @property
    def stddev(self) -> float:
        return self.margin

    @property
    def interval(self) -> Tuple[float, float]:
        return (self.lower, self.upper)

    @property
    def relative_margin(self) -> float:
        """Margin as a fraction of the estimate (inf when the value is 0)."""
        if self.value == 0:
            return math.inf if self.margin > 0 else 0.0
        return abs(self.margin / self.value)

    def covers(self, truth: float) -> bool:
        return self.lower <= truth <= self.upper

    def __str__(self) -> str:
        return (
            f"{self.value:.6g} [{self.lower:.6g}, {self.upper:.6g}] "
            f"(q={self.q:g}, {self.confidence:.1%}, DKW)"
        )


def quantile_bound(estimate: QuantileEstimate) -> DKWBound:
    """Wrap a `QuantileEstimate` as the pane result's error bound."""
    return DKWBound(
        value=estimate.value,
        lower=estimate.lower,
        upper=estimate.upper,
        confidence=estimate.confidence,
        q=estimate.q,
        effective_n=estimate.effective_n,
    )


def _repeated_sum(terms) -> float:
    """``Σ y·x`` over ``(x, y)`` pairs, summed exactly and rounded once."""
    ratios = [(y, *x.as_integer_ratio()) for x, y in terms if y]
    if not ratios:
        return 0.0
    scale = max(d for _y, _n, d in ratios)
    return sum(y * n * (scale // d) for y, n, d in ratios) / scale


def _weight_moments(sample: WeightedSample[T]) -> Tuple[float, float]:
    """``(Σw, Σw²)`` over every sampled item, each item counted at its weight.

    Stratum *i*'s ``Y_i`` kept items share its weight ``W_i``, so this is
    O(strata) and bit for bit the ``fsum`` of ``Y_i`` copies of ``W_i`` (and
    of ``W_i·W_i``): a double is ``n / d`` with ``d`` a power of two, so over
    the largest ``D`` the integers ``Y_i·n_i·(D // d_i)`` sum to the exact
    total, which ``int / int`` rounds half-even like ``fsum`` — same double,
    same ``OverflowError``.
    """
    sizes = [(stratum.weight, stratum.sample_size) for stratum in sample]
    return _repeated_sum(sizes), _repeated_sum((w * w, y) for w, y in sizes)


def _sorted_run(values):
    """Ascending copy of one stratum's values, ties as a stable sort leaves them.

    Within a stratum every item has the same weight and equal floats are
    bit-identical — except ``-0.0 == 0.0`` — so the fast unstable sort only
    needs its zero block put back in arrival order.
    """
    run = _np.sort(values)
    lo = _np.searchsorted(run, 0.0, side="left")
    hi = _np.searchsorted(run, 0.0, side="right")
    if hi - lo > 1:
        run[lo:hi] = values[values == 0.0]
    return run


def _values_at_columns(
    sample: WeightedSample[T], value_fn: Optional[ValueFn], targets: List[float]
) -> Optional[List[float]]:
    """`_values_at_items` on value arrays; None unless every stratum has one.

    Each stratum's run is sorted on its own, then one stable argsort merges
    the presorted runs: ties across strata stay in stratum order, exactly
    where the stable sort of the stratum-by-stratum point list puts them.
    ``cumsum`` adds the weights in that order, one by one, as the loop does.
    """
    arrays = sample.value_arrays(value_fn)
    if arrays is None:
        return None
    runs = [_sorted_run(values) for values in arrays]
    values = _np.concatenate(runs)
    weights = _np.repeat(
        [stratum.weight for stratum in sample], [len(run) for run in runs]
    )
    # Each temporary is a pane's worth of float64: drop them as they die.
    del runs
    order = _np.argsort(values, kind="stable")
    values = values[order]
    cumulative = weights[order]
    del order, weights
    _np.cumsum(cumulative, out=cumulative)
    ranks = _np.searchsorted(cumulative, targets, side="left")
    return values[_np.minimum(ranks, len(values) - 1)].tolist()


def _values_at_items(
    sample: WeightedSample[T], value_fn: Optional[ValueFn], targets: List[float]
) -> List[float]:
    """Per target: the smallest sampled value whose cumulative weight reaches it."""
    points: List[Tuple[float, float]] = []
    for stratum in sample:
        for value in stratum.values(value_fn):
            points.append((value, stratum.weight))
    points.sort(key=lambda vw: vw[0])
    found = []
    for target in targets:
        cumulative = 0.0
        for value, weight in points:
            cumulative += weight
            if cumulative >= target:
                break
        found.append(value)
    return found


def approximate_quantile(
    sample: WeightedSample[T],
    q: float,
    value_fn: Optional[ValueFn] = None,
    confidence: float = 0.95,
) -> QuantileEstimate:
    """Estimate the stream's q-quantile from a weighted sample.

    The point estimate is the smallest sampled value whose cumulative
    weight reaches ``q`` of the total.  The interval comes from the DKW
    inequality: with probability ≥ confidence the true CDF is within
    ``ε = sqrt(ln(2/α) / (2 n_eff))`` of the weighted empirical CDF, so the
    values at cumulative ranks ``q ± ε`` bracket the true quantile
    (``n_eff`` is the Kish effective sample size ``(Σw)² / Σw²``, which
    discounts unequal weights).

    Value-mode samples (see `repro.core.strata.StratumSample.value_array`)
    are ranked on their value arrays; samples holding item tuples or read
    through a custom projection take the per-item walk.  Both give the
    same answer bit for bit.
    """
    if not 0 < q < 1:
        raise ValueError(f"q must be in (0, 1), got {q}")
    if not 0 < confidence < 1:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    if sample.total_items == 0:
        raise ValueError("cannot take a quantile of an empty sample")

    total, squares = _weight_moments(sample)
    effective_n = total * total / squares if squares else 0.0
    alpha = 1.0 - confidence
    if effective_n > 0:
        epsilon = math.sqrt(math.log(2.0 / alpha) / (2.0 * effective_n))
    else:
        epsilon = 1.0

    targets = [
        min(max(rank_fraction, 0.0), 1.0) * total
        for rank_fraction in (q, q - epsilon, q + epsilon)
    ]
    found = _values_at_columns(sample, value_fn, targets)
    if found is None:
        found = _values_at_items(sample, value_fn, targets)
    value, lower, upper = found
    return QuantileEstimate(
        q=q,
        value=value,
        lower=lower,
        upper=upper,
        confidence=confidence,
        effective_n=effective_n,
    )


def approximate_median(
    sample: WeightedSample[T],
    value_fn: Optional[ValueFn] = None,
    confidence: float = 0.95,
) -> QuantileEstimate:
    """Convenience wrapper: the weighted median with its DKW interval."""
    return approximate_quantile(sample, 0.5, value_fn=value_fn, confidence=confidence)


@dataclass(frozen=True)
class HeavyHitter:
    """One frequent key with its estimated count and ± error margin."""

    key: Hashable
    estimated_count: float
    margin: float
    share: float

    @property
    def interval(self) -> Tuple[float, float]:
        return (self.estimated_count - self.margin, self.estimated_count + self.margin)


def heavy_hitters(
    sample: WeightedSample[T],
    key_fn: Callable[[T], Hashable],
    threshold: float = 0.01,
    confidence: float = 0.95,
) -> List[HeavyHitter]:
    """Keys whose estimated population share exceeds ``threshold``.

    Frequencies are weighted histogram counts — a linear query — so each
    candidate carries an Equation-6 error bound.  Results are sorted by
    estimated count, descending.  A key is reported when even the *lower*
    end of its interval could clear the threshold (no false dismissals at
    the stated confidence).
    """
    if not 0 < threshold < 1:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    population = sample.total_count
    if population == 0:
        return []
    hitters: List[HeavyHitter] = []
    for key, result in histogram_with_errors(sample, bin_fn=key_fn).items():
        bound = estimate_error(result, confidence=confidence)
        share = result.value / population
        if (result.value + bound.margin) / population >= threshold:
            hitters.append(
                HeavyHitter(
                    key=key,
                    estimated_count=result.value,
                    margin=bound.margin,
                    share=share,
                )
            )
    hitters.sort(key=lambda h: -h.estimated_count)
    return hitters
