"""Flink-based StreamApprox (§4.2.2).

The paper adds a sampling *operator* to Flink: items flow through the
pipelined dataflow one at a time, the OASRS operator offers each to its
stratum's reservoir, and at every slide boundary the interval's weighted
sample is emitted downstream, where the window operator merges the last
``w/δ`` interval-samples and evaluates the query.

Structurally this is the cheapest of all six systems — per item it pays
only ingest + one reservoir offer; per *kept* item, one query-processing
charge; and it never forms a batch, launches a task, shuffles, or
synchronises.  That is why Flink-based StreamApprox tops every throughput
figure in the paper.

Declaratively: the pipelined engine driving the ``oasrs`` strategy
(`repro.runtime.strategies.OASRSStrategy`): the driver's event-time loop
feeds the run's one sampler as items stream in.
"""

from __future__ import annotations

from .base import StreamSystem

__all__ = ["FlinkStreamApproxSystem"]


class FlinkStreamApproxSystem(StreamSystem):
    """Pipelined dataflow with the OASRS sampling operator.

    Items are charged one at a time (or in ``SystemConfig.chunk_size``
    runs) and the run's sampler takes each slide interval in one feed;
    each slide boundary closes a weighted interval
    sample that the window pane merges and aggregates — the cheapest
    structure of all six systems.
    ``SystemConfig.parallelism`` shards each interval's sampling into §3.2
    local reservoirs, merged at interval close.

    Example
    -------
    >>> from repro import StreamQuery, WindowConfig, SystemConfig
    >>> q = StreamQuery(key_fn=lambda it: it[0], value_fn=lambda it: it[1])
    >>> system = FlinkStreamApproxSystem(
    ...     q, WindowConfig(10, 5), SystemConfig(sampling_fraction=0.5))
    >>> report = system.run([(t / 100.0, ("a", 1.0)) for t in range(1000)])
    >>> round(report.results[0].estimate, 1)
    1.0
    """

    name = "flink-streamapprox"
    engine = "pipelined"
    strategy = "oasrs"
