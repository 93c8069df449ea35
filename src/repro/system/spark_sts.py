"""Spark-based STS — the stratified-sampling baseline (`sampleByKeyExact`).

Reproduces the second flavour of the improved baseline (§4.1.1): each
micro-batch RDD is grouped by stratum (a full shuffle + worker
synchronization), then the exact per-stratum random sort keeps
``sampling_fraction`` of every stratum.  Statistically this is excellent —
proportional allocation, no stratum overlooked — but the groupBy shuffle,
the per-stratum waitlist sorts and the barriers make it the slowest system
in every throughput figure, to the point that even the native execution
can beat it (Figure 8a).

Its second limitation (§1): the per-stratum fractions are *pre-defined* per
batch, so the realised sample tracks arrival-rate shifts only at batch
granularity and always proportionally — it cannot cap popular strata the
way OASRS's fixed reservoirs do, which is why its throughput stays low
even when accuracy targets would allow a smaller sample.

Declaratively: the batched engine driving the ``sts`` strategy
(`repro.runtime.strategies.STSStrategy`).
"""

from __future__ import annotations

from .base import StreamSystem

__all__ = ["SparkSTSSystem"]


class SparkSTSSystem(StreamSystem):
    """Micro-batch pipeline with Spark's `sampleByKeyExact` per batch.

    Groups every micro-batch by stratum (full shuffle + barriers), then
    keeps an exact ``sampling_fraction`` of each stratum
    (``SystemConfig.chunk_size`` changes no output) — statistically strong, structurally the slowest system in every
    throughput figure.

    Example
    -------
    >>> from repro import StreamQuery, WindowConfig, SystemConfig
    >>> q = StreamQuery(key_fn=lambda it: it[0], value_fn=lambda it: it[1])
    >>> system = SparkSTSSystem(q, WindowConfig(10, 5),
    ...                         SystemConfig(sampling_fraction=0.5))
    >>> report = system.run([(t / 100.0, ("a", 1.0)) for t in range(1000)])
    >>> round(report.results[0].estimate, 1)
    1.0
    """

    name = "spark-sts"
    engine = "batched"
    strategy = "sts"
