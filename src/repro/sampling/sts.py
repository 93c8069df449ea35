"""Spark-style Stratified Sampling — the `sampleByKey` baseline (§4.1.1).

Spark's stratified sampling first clusters the batch by key with
``groupBy(strata)`` — a shuffle that synchronises all workers — then runs
the random-sort SRS within each stratum:

* ``sampleByKey(fraction)`` — one pass, per-item Bernoulli/threshold
  acceptance; sample sizes are only *approximately* ``fraction × C_i``.
* ``sampleByKeyExact(fraction)`` — guarantees exact per-stratum sizes
  ``⌈fraction × C_i⌉`` at the cost of the full waitlist sort per stratum
  (and, on a real cluster, possible extra passes).

The paper's three criticisms of this design (§1, §4.1) are all visible in
this implementation and are charged by the simulated cluster:

1. it is batch-only — the whole RDD must exist before sampling starts,
2. it needs a **pre-defined sampling fraction per stratum**, so it cannot
   adapt when sub-stream arrival rates shift between intervals, and
3. the ``groupBy`` + sort require **synchronization among workers**
   (`sync_barriers`/`shuffled_items` in the result profile).

Statistically STS is excellent — proportional allocation is near-optimal
for stationary strata — which is why Figure 4b shows it slightly *more*
accurate than OASRS while Figures 4a/4c/6a show its throughput collapse.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import (
    Dict,
    Generic,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from .srs import ScaSRSSampler, SRSResult

T = TypeVar("T")
Key = Hashable

__all__ = ["STSResult", "StratifiedSampler"]


@dataclass(frozen=True)
class STSResult(Generic[T]):
    """A stratified sample plus its cost-relevant execution profile.

    ``per_stratum`` maps stratum key to ``(items, population)``; weights are
    ``population / len(items)`` as with any proportional design.

    Example
    -------
    >>> sampler = StratifiedSampler(rng=random.Random(0))
    >>> batch = [("a", i) for i in range(100)] + [("b", i) for i in range(10)]
    >>> result = sampler.sample_by_key(batch, lambda kv: kv[0], 0.5)
    >>> result.population, sorted(result.per_stratum)
    (110, ['a', 'b'])
    """

    per_stratum: Dict[Key, Tuple[List[T], int]]
    shuffled_items: int  # items moved by the groupBy shuffle
    sync_barriers: int  # worker-synchronisation points incurred
    sort_work: float  # total waitlist-sort comparisons across strata

    @property
    def items(self) -> List[T]:
        out: List[T] = []
        for kept, _population in self.per_stratum.values():
            out.extend(kept)
        return out

    @property
    def population(self) -> int:
        return sum(pop for _kept, pop in self.per_stratum.values())

    def weights(self) -> Dict[Key, float]:
        out: Dict[Key, float] = {}
        for key, (kept, population) in self.per_stratum.items():
            out[key] = population / len(kept) if kept else 1.0
        return out


class StratifiedSampler(Generic[T]):
    """Batch stratified sampling à la Spark ``sampleByKey(Exact)``.

    Parameters
    ----------
    exact:
        When True, reproduce ``sampleByKeyExact``: exact per-stratum sample
        sizes via the full waitlist sort.  When False, reproduce
        ``sampleByKey``: single-pass Bernoulli acceptance with approximate
        sizes (cheaper, noisier).
    workers:
        Number of workers participating in the groupBy shuffle; only
        affects the cost profile, not the sample.

    Example
    -------
    >>> sampler = StratifiedSampler(exact=True, rng=random.Random(3))
    >>> batch = [("x", i) for i in range(40)]
    >>> result = sampler.sample_by_key(batch, lambda kv: kv[0], 0.25)
    >>> len(result.per_stratum["x"][0])
    10
    """

    def __init__(
        self,
        exact: bool = True,
        workers: int = 4,
        rng: Optional[random.Random] = None,
    ) -> None:
        if workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        self.exact = exact
        self.workers = workers
        self._rng = rng if rng is not None else random.Random()
        self._srs = ScaSRSSampler(rng=self._rng)

    def sample_by_key(
        self,
        batch: Sequence[T],
        key_fn,
        fractions,
    ) -> STSResult[T]:
        """Stratified sample with per-stratum fractions.

        ``fractions`` is either a single float applied to every stratum or a
        ``{key: fraction}`` mapping (Spark's required pre-defined map —
        missing keys fall back to 0, mirroring Spark's strictness about
        knowing strata up front).
        """
        groups: Dict[Key, List[T]] = {}
        for item in batch:
            groups.setdefault(key_fn(item), []).append(item)

        per_stratum: Dict[Key, Tuple[List[T], int]] = {}
        sort_work = 0.0
        for key, members in groups.items():
            fraction = (
                fractions if isinstance(fractions, float) else fractions.get(key, 0.0)
            )
            if not 0 <= fraction <= 1:
                raise ValueError(
                    f"fraction for stratum {key!r} must be in [0, 1], got {fraction}"
                )
            if self.exact:
                k = int(math.ceil(len(members) * fraction)) if fraction > 0 else 0
                k = min(k, len(members))
                result: SRSResult[T] = self._srs.sample(members, k)
                kept = result.items
                sort_work += result.sort_work
            else:
                kept = [m for m in members if self._rng.random() < fraction]
            per_stratum[key] = (kept, len(members))

        # Cost profile: groupBy shuffles every item across workers and each
        # stratum's exact sampling ends with a collect barrier.
        barriers = 1 + (len(groups) if self.exact else 0)
        return STSResult(
            per_stratum=per_stratum,
            shuffled_items=len(batch),
            sync_barriers=barriers,
            sort_work=sort_work,
        )

    def proportional_fractions(
        self, expected_counts: Dict[Key, int], total_sample: int
    ) -> Dict[Key, float]:
        """The pre-defined fraction map Spark STS needs (§1, limitation 2).

        Derives per-stratum fractions from *expected* counts so the total
        sample is about ``total_sample``.  If arrival rates later drift from
        these expectations the realised sample drifts too — the adaptivity
        gap OASRS closes.
        """
        total = sum(expected_counts.values())
        if total == 0:
            return {key: 0.0 for key in expected_counts}
        f = min(1.0, total_sample / total)
        return {key: f for key in expected_counts}
