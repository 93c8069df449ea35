"""Native executions — the no-sampling baselines and the repo's own engine.

Two kinds of "native" live here:

* `NativeSparkSystem` / `NativeFlinkSystem` — the paper's first baseline
  pair: no sampling at all.  `NativeSparkSystem` forms an RDD from every
  micro-batch and processes every item; `NativeFlinkSystem` pushes every
  item through the pipelined dataflow.  Both produce exact window results
  (weight-1 samples ⇒ zero-width error bounds), paying the full per-item
  processing bill that sampling-based systems avoid.  Declaratively they
  are the ``none`` strategy on the batched and pipelined engines.
* `NativeStreamApproxSystem` — *this repo's* native execution path: the
  ``oasrs`` strategy on the runtime's **direct** engine
  (`repro.runtime.driver.execute_plan`), which runs the sampling stack
  straight over slide-sized intervals with no engine simulation in the
  hot loop.  Its **wall-clock** speed therefore reflects the sampling
  stack itself — the system the sharded (``SystemConfig.parallelism``)
  path is benchmarked on.
"""

from __future__ import annotations

import time
from typing import List, Tuple

from .base import StreamSystem

__all__ = ["NativeSparkSystem", "NativeFlinkSystem", "NativeStreamApproxSystem"]


class NativeSparkSystem(StreamSystem):
    """Spark Streaming without sampling: RDD every batch, process all.

    The exact-but-expensive baseline: every arriving item pays ingest, the
    RDD-formation copy, task scheduling, and full query processing.

    Example
    -------
    >>> from repro import StreamQuery, WindowConfig, SystemConfig
    >>> q = StreamQuery(key_fn=lambda it: it[0], value_fn=lambda it: it[1])
    >>> report = NativeSparkSystem(q, WindowConfig(1, 1), SystemConfig()).run(
    ...     [(0.5, ("a", 1.0)), (1.5, ("a", 3.0)), (2.5, ("a", 5.0))])
    >>> [round(r.estimate, 1) for r in report.results]
    [1.0, 3.0, 5.0]
    """

    name = "native-spark"
    engine = "batched"
    strategy = "none"


class NativeFlinkSystem(StreamSystem):
    """Flink without sampling: per-item pipelined processing, exact windows.

    Streams every item through the pipelined dataflow and aggregates exact
    panes; ``SystemConfig.chunk_size > 1`` charges its virtual costs in
    runs of that many items (identical results).

    Example
    -------
    >>> from repro import StreamQuery, WindowConfig, SystemConfig
    >>> q = StreamQuery(key_fn=lambda it: it[0], value_fn=lambda it: it[1])
    >>> report = NativeFlinkSystem(q, WindowConfig(1, 1), SystemConfig()).run(
    ...     [(0.5, ("a", 1.0)), (1.5, ("a", 3.0)), (2.5, ("a", 5.0))])
    >>> [round(r.estimate, 1) for r in report.results]
    [1.0, 3.0]
    """

    name = "native-flink"
    engine = "pipelined"
    strategy = "none"


class NativeStreamApproxSystem(StreamSystem):
    """This repo's own executor: OASRS straight over slide-sized intervals.

    No engine simulation sits in the hot loop — each slide interval's items
    go directly into the OASRS sampler (one `OASRSSampler.offer_many` per
    interval, or sharded over ``parallelism`` real processes via
    `repro.core.distributed.ShardedExecutor`), and each interval close
    merges the last ``w/δ`` interval samples into the pane estimate.
    Because the hot loop is the sampling stack itself, this is the system
    whose *wall-clock* throughput measures the sampling kernel and the
    sharded path (see ``benchmarks/test_fig6a_chunked_scalability.py``);
    simulated-cluster charges are still recorded so virtual metrics remain
    comparable with the other systems.

    Example
    -------
    >>> from repro import StreamQuery, WindowConfig, SystemConfig
    >>> q = StreamQuery(key_fn=lambda it: it[0], value_fn=lambda it: it[1])
    >>> cfg = SystemConfig(sampling_fraction=0.5, seed=1)
    >>> stream = [(i / 1000.0, ("a", 1.0)) for i in range(10_000)]
    >>> report = NativeStreamApproxSystem(q, WindowConfig(5, 5), cfg).run(stream)
    >>> [round(r.estimate, 1) for r in report.results]
    [1.0, 1.0]
    """

    name = "native-streamapprox"
    engine = "direct"
    strategy = "oasrs"

    @property
    def last_sampling_seconds(self) -> float:
        """Wall seconds the last run spent inside the sampling path."""
        return self._run_info.get("sampling_seconds", 0.0)

    def timed_execute(self, stream: List[Tuple[float, object]]):
        """Wall-clock-measured run of the processing path alone.

        Skips the ground-truth re-execution `StreamSystem.run` performs (that
        is measurement apparatus, not part of the system) and returns
        ``(results, cluster, wall_seconds)`` — the number benchmarks divide
        into ``len(stream)`` for real items-per-second throughput.  After a
        run, ``last_sampling_seconds`` holds the wall time spent inside the
        sampling path itself (the offer/shard section).
        """
        start = time.perf_counter()
        results, cluster = self._execute(stream)
        return results, cluster, time.perf_counter() - start
