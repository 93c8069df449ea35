"""Error estimation for approximate results (§3.3, Equations 5–9).

The estimators of `repro.core.query` are sums of independently sampled
strata, so their variances add (Equation 5).  Classical finite-population
random-sampling theory then gives per-stratum variance estimates:

* approximate SUM  (Equation 6)::

      Var(SUM)  ≈ Σ_i  C_i (C_i − Y_i) s_i² / Y_i

* approximate MEAN (Equations 8–9), with ω_i = C_i / Σ C_i::

      Var(MEAN) ≈ Σ_i  ω_i² (s_i² / Y_i) (C_i − Y_i) / C_i

where ``s_i²`` is the unbiased sample variance within stratum *i*
(Equation 7).  The ``(C_i − Y_i)`` factors are the finite-population
corrections: a fully-kept stratum (Y_i = C_i, weight 1) contributes zero
variance, which is exactly why OASRS never "pays" for rare strata.

Error bounds use the normal approximation (Central Limit Theorem across
items within a stratum) and the 68–95–99.7 rule: the true value lies within
k standard deviations with probability ≈ 68% (k=1), 95% (k=2), 99.7% (k=3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence

from .query import QueryResult, StratumStats, _StrataColumns

__all__ = [
    "ErrorBound",
    "variance_of_sum",
    "variance_of_mean",
    "estimate_error",
    "confidence_z",
    "CONFIDENCE_TO_Z",
]

# The 68-95-99.7 rule, plus the conventional 90/99 levels (two-sided normal
# quantiles) so budgets can be expressed at standard confidence levels.
CONFIDENCE_TO_Z: Dict[float, float] = {
    0.68: 1.0,
    0.90: 1.645,
    0.95: 2.0,  # the paper uses the empirical-rule "2 sigma", not 1.96
    0.99: 2.576,
    0.997: 3.0,
}


def confidence_z(confidence: float) -> float:
    """z-multiplier for a confidence level, per the 68-95-99.7 rule."""
    try:
        return CONFIDENCE_TO_Z[round(confidence, 3)]
    except KeyError:
        raise ValueError(
            f"unsupported confidence {confidence}; choose one of "
            f"{sorted(CONFIDENCE_TO_Z)}"
        ) from None


@dataclass(frozen=True)
class ErrorBound:
    """An approximate result expressed as ``value ± margin``.

    ``margin`` is ``z × sqrt(variance)`` at the requested confidence level.
    ``interval`` gives the two-sided confidence interval.
    """

    value: float
    variance: float
    confidence: float
    margin: float

    @property
    def interval(self) -> tuple:
        return (self.value - self.margin, self.value + self.margin)

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)

    @property
    def relative_margin(self) -> float:
        """Margin as a fraction of the estimate (inf when the value is 0)."""
        if self.value == 0:
            return math.inf if self.margin > 0 else 0.0
        return abs(self.margin / self.value)

    def covers(self, truth: float) -> bool:
        lo, hi = self.interval
        return lo <= truth <= hi

    def __str__(self) -> str:
        return f"{self.value:.6g} ± {self.margin:.6g} ({self.confidence:.1%})"


def _sum_variance(columns) -> float:
    # Y <= 1 leaves s² unknown (0, as in the paper's formulas); C <= Y is a
    # fully kept stratum, whose finite-population correction is 0.
    return math.fsum([
        ci * (ci - yi) * vi / yi
        for yi, ci, vi in zip(columns.y, columns.c, columns.variance)
        if 1 < yi < ci
    ])


def _mean_variance(columns) -> float:
    population = sum(columns.c)
    if population == 0:
        return 0.0
    # Added left to right (from Python 3.12 ``sum`` of floats is
    # compensated); ``ω ** 2`` is libm ``pow``, not always ``ω * ω``.
    total = 0.0
    for yi, ci, vi in zip(columns.y, columns.c, columns.variance):
        if 1 < yi < ci:
            omega = ci / population
            total += (omega ** 2) * (vi / yi) * ((ci - yi) / ci)
    return total


def variance_of_sum(strata: Sequence[StratumStats]) -> float:
    """Equation 6: variance of the approximate SUM across strata."""
    return _sum_variance(_StrataColumns.of(strata))


def variance_of_mean(strata: Sequence[StratumStats]) -> float:
    """Equation 9: variance of the approximate MEAN across strata."""
    return _mean_variance(_StrataColumns.of(strata))


def estimate_error(result: QueryResult, confidence: float = 0.95) -> ErrorBound:
    """Attach an error bound to a query result (the ``estimateError`` step).

    SUM-like results (sum, count, histogram entries) use Equation 6;
    MEAN-like results use Equation 9, both read from the result's stratum
    columns.  COUNT is exact under OASRS (the counters are maintained
    outside the sample), so its variance is zero.
    """
    if result.kind == "sum":
        variance = _sum_variance(result.columns)
    elif result.kind == "mean":
        variance = _mean_variance(result.columns)
    elif result.kind == "count":
        variance = 0.0
    else:
        raise ValueError(f"unknown query kind {result.kind!r}")
    z = confidence_z(confidence)
    margin = z * math.sqrt(variance)
    return ErrorBound(
        value=result.value, variance=variance, confidence=confidence, margin=margin
    )


def required_sample_size(
    population: int,
    variance_guess: float,
    target_margin: float,
    confidence: float = 0.95,
) -> int:
    """Solve Equation 6 for Y given a target ± margin on a one-stratum SUM.

    Used by the accuracy-budget cost function: with
    ``margin = z sqrt(C (C − Y) s² / Y)`` we get
    ``Y = C / (1 + margin² / (z² C s²))``.  Clamped to [1, population].
    """
    if population <= 0:
        return 0
    if target_margin <= 0 or variance_guess <= 0:
        return population
    z = confidence_z(confidence)
    denom = 1.0 + (target_margin ** 2) / (z ** 2 * population * variance_guess)
    needed = population / denom
    return max(1, min(population, int(math.ceil(needed))))


__all__.append("required_sample_size")
