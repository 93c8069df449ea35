"""Spark-based SRS — the "improved baseline" with simple random sampling.

Reproduces the approximate-computing system the paper built from Spark's
existing ``sample`` operator (§4.1.1): every micro-batch is first fully
materialised as an RDD (paying batch formation for *all* items, unlike
StreamApprox), then the pruned random sort draws a uniform
``sampling_fraction`` of it, and only the sampled items are processed.

The batch's sample is represented as a single pseudo-stratum: SRS is
oblivious to sub-streams, which is precisely its accuracy weakness on
skewed inputs (Figures 4b, 6c, 7a) — rare strata are missed with high
probability, and nothing re-weights for them.

Declaratively: the batched engine driving the ``srs`` strategy
(`repro.runtime.strategies.SRSStrategy`).
"""

from __future__ import annotations

from .base import StreamSystem

__all__ = ["SparkSRSSystem"]


class SparkSRSSystem(StreamSystem):
    """Micro-batch pipeline with Spark's `sample` (ScaSRS) per batch.

    Every micro-batch is materialised as a full RDD, uniformly sampled with
    the pruned random sort (``SystemConfig.chunk_size`` changes no output:
    the RDD's partitions are the chunks), and only kept items are processed;
    the sample is one unstratified pseudo-stratum, so rare sub-streams can
    vanish.

    Example
    -------
    >>> from repro import StreamQuery, WindowConfig, SystemConfig
    >>> q = StreamQuery(key_fn=lambda it: it[0], value_fn=lambda it: it[1])
    >>> system = SparkSRSSystem(q, WindowConfig(10, 5),
    ...                         SystemConfig(sampling_fraction=0.5))
    >>> report = system.run([(t / 100.0, ("a", 1.0)) for t in range(1000)])
    >>> round(report.results[0].estimate, 1)
    1.0
    """

    name = "spark-srs"
    engine = "batched"
    strategy = "srs"
