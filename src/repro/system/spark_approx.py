"""Spark-based StreamApprox (§4.2.1).

The input items of each micro-batch are sampled **on the fly with OASRS
before RDDs are formed** (the paper's `ApproxKafkaRDD`): every arriving
item pays the O(1) reservoir-offer cost, but only the *kept* items pay the
RDD copy, task scheduling and query processing.  No shuffle, no sort, no
synchronization — the structural advantage over both Spark baselines.

The per-stratum reservoir budget for each batch is
``sampling_fraction × batch size``, spread by the adaptive water-filling
policy (small strata kept whole, large strata capped equally), re-derived
every interval from the previous interval's counters — the "adaptive"
in OASRS, needing no pre-defined per-stratum fractions.

Declaratively: the batched engine driving the ``oasrs`` strategy
(`repro.runtime.strategies.OASRSStrategy`) in its batch role.
"""

from __future__ import annotations

from .base import StreamSystem

__all__ = ["SparkStreamApproxSystem"]


class SparkStreamApproxSystem(StreamSystem):
    """Micro-batch pipeline with on-the-fly OASRS before RDD formation.

    Every arriving item pays one O(1) reservoir offer (each micro-batch in
    one `OASRSSampler.offer_many`, or sharded over
    ``SystemConfig.parallelism`` real worker processes); only
    *kept* items pay RDD formation and query processing — no shuffle,
    sort, or barrier.

    Example
    -------
    >>> from repro import StreamQuery, WindowConfig, SystemConfig
    >>> q = StreamQuery(key_fn=lambda it: it[0], value_fn=lambda it: it[1])
    >>> system = SparkStreamApproxSystem(
    ...     q, WindowConfig(10, 5), SystemConfig(sampling_fraction=0.5))
    >>> report = system.run([(t / 100.0, ("a", 1.0)) for t in range(1000)])
    >>> round(report.results[0].estimate, 1)
    1.0
    """

    name = "spark-streamapprox"
    engine = "batched"
    strategy = "oasrs"
