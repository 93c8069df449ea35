"""Spark-style Simple Random Sampling — the `sample` baseline (§4.1.1).

Spark's RDD ``sample`` (for exact-size sampling, `takeSample` and MLib's
ScaSRS of Meng, ICML'13) draws a size-``k`` sample via a *random sort*:

1. assign every item an independent U(0,1) key,
2. select the ``k`` items with the smallest keys.

Sorting the whole batch is the bottleneck, so Spark prunes first with two
thresholds ``p < q``:

* items with key < ``p`` are **accepted immediately** (with high probability
  fewer than ``k`` of them exist),
* items with key > ``q`` are **discarded immediately**,
* only the thin "waitlist" in ``[p, q]`` is sorted, and the smallest keys
  top up the accepted set to exactly ``k``.

We implement the scheme faithfully, including the threshold choices from
the ScaSRS paper (``p = k/n − γ₁``-style bounds; we use the simpler, widely
deployed form with failure probability δ = 1e-4).  The per-batch sort work
is reported back to the caller so the simulated cluster can charge for it —
that cost asymmetry versus OASRS is exactly what Figure 4 measures.

SRS is *not* stratified: rare sub-streams may be missed entirely, which is
the accuracy weakness Figures 4b/6c/7a demonstrate.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Generic, List, Optional, Sequence, TypeVar

T = TypeVar("T")

__all__ = ["SRSResult", "ScaSRSSampler", "simple_random_sample"]

# Failure probability for the threshold bounds, as in the ScaSRS paper.
_DELTA = 1e-4


@dataclass(frozen=True)
class SRSResult(Generic[T]):
    """A simple-random sample plus the cost-relevant execution profile.

    Carries, next to the sampled ``items``, the counts the simulated
    cluster charges for — how many items were accepted without sorting,
    how many landed on the waitlist (and therefore paid the sort), and how
    many were discarded outright.

    Example
    -------
    >>> r = ScaSRSSampler(rng=random.Random(1)).sample(list(range(100)), 5)
    >>> len(r.items), r.population, r.weight
    (5, 100, 20.0)
    """

    items: List[T]
    population: int
    accepted_directly: int  # keys < p
    waitlisted: int  # keys in [p, q] — the portion that had to be sorted
    discarded: int  # keys > q

    @property
    def sort_work(self) -> float:
        """Comparison work of the waitlist sort (n log2 n), for cost models."""
        n = self.waitlisted
        if n <= 1:
            return float(n)
        return n * math.log2(n)

    @property
    def weight(self) -> float:
        """Per-item representation weight: population / sample size."""
        if not self.items:
            return 1.0
        return self.population / len(self.items)


def _thresholds(k: int, n: int) -> tuple:
    """ScaSRS-style acceptance/rejection thresholds (p, q).

    With fraction f = k/n, choose p below f and q above f such that the
    probability of selecting fewer than k items below q — or more than k
    below p — is at most δ.  The standard bounds use γ-terms of order
    sqrt(f ln(1/δ) / n).
    """
    f = k / n
    gamma1 = -math.log(_DELTA) / n
    gamma2 = -(2.0 / 3.0) * math.log(_DELTA) / n
    p = max(0.0, f + gamma2 - math.sqrt(gamma2 * gamma2 + 3.0 * gamma2 * f))
    q = min(1.0, f + gamma1 + math.sqrt(gamma1 * gamma1 + 2.0 * gamma1 * f))
    return p, q


class ScaSRSSampler(Generic[T]):
    """Batch sampler implementing the random-sort SRS with p/q pruning.

    Unlike OASRS this is a *batch* operation: the whole micro-batch must be
    materialised (as an RDD) before sampling, which is one of the three
    Spark limitations the paper lists in §1.

    Example
    -------
    >>> sampler = ScaSRSSampler(rng=random.Random(0))
    >>> result = sampler.sample(list(range(1000)), k=10)
    >>> len(result.items), result.population
    (10, 1000)
    """

    def __init__(self, rng: Optional[random.Random] = None) -> None:
        self._rng = rng if rng is not None else random.Random()

    def sample(self, batch: Sequence[T], k: int) -> SRSResult[T]:
        """Draw an (approximately) size-``k`` uniform sample from ``batch``."""
        n = len(batch)
        if k < 0:
            raise ValueError(f"sample size must be non-negative, got {k}")
        if n == 0 or k == 0:
            return SRSResult([], n, 0, 0, n)
        if k >= n:
            return SRSResult(list(batch), n, n, 0, 0)

        p, q = _thresholds(k, n)
        accepted: List[T] = []
        waitlist: List[tuple] = []
        discarded = 0
        rand = self._rng.random
        for item in batch:
            key = rand()
            if key < p:
                accepted.append(item)
            elif key <= q:
                waitlist.append((key, item))
            else:
                discarded += 1

        waitlisted = len(waitlist)
        if len(accepted) < k:
            # Sort only the waitlist — the pruned random sort.
            waitlist.sort(key=lambda kv: kv[0])
            need = k - len(accepted)
            accepted.extend(item for _key, item in waitlist[:need])
        elif len(accepted) > k:
            # Rare (probability ≤ δ): direct acceptances overshot; trim with
            # a uniform choice to preserve exchangeability.
            self._rng.shuffle(accepted)
            accepted = accepted[:k]
        return SRSResult(
            items=accepted,
            population=n,
            accepted_directly=min(len(accepted), k),
            waitlisted=waitlisted,
            discarded=discarded,
        )

    def sample_fraction(self, batch: Sequence[T], fraction: float) -> SRSResult[T]:
        """Draw a ``fraction`` of the batch (Spark's ``sample(False, f)``)."""
        if not 0 <= fraction <= 1:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        k = int(round(len(batch) * fraction))
        return self.sample(batch, k)


def simple_random_sample(
    batch: Sequence[T], k: int, rng: Optional[random.Random] = None
) -> List[T]:
    """One-shot convenience wrapper around `ScaSRSSampler.sample`."""
    return ScaSRSSampler(rng=rng).sample(batch, k).items
