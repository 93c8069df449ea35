"""StreamingContext — wiring for the batched (Spark-Streaming-like) engine.

Owns the `SimulatedCluster` and the batching/windowing parameters, and
offers the two entry points the systems need:

* ``rdd_of(items)`` — materialise a micro-batch as a `MiniRDD`, paying
  batch-formation costs for every item (the native / SRS / STS path), and
* ``rdd_of_presampled(items, skipped)`` — materialise an RDD from items
  that were sampled *before* RDD formation (the StreamApprox path,
  §4.2.1): only the kept items pay the copy, while the ``skipped`` ones
  were touched solely by the sampler.
"""

from __future__ import annotations

from typing import Optional, Sequence, TypeVar

from ..cluster import SimulatedCluster
from ..costs import CostProfile
from .dstream import Batcher, SlidingWindower
from .rdd import MiniRDD

T = TypeVar("T")

__all__ = ["StreamingContext"]


class StreamingContext:
    """Configuration + cluster handle for one batched-streaming run."""

    def __init__(
        self,
        batch_interval: float = 1.0,
        nodes: int = 1,
        cores_per_node: int = 8,
        costs: Optional[CostProfile] = None,
    ) -> None:
        if batch_interval <= 0:
            raise ValueError("batch_interval must be positive")
        self.batch_interval = batch_interval
        self.cluster = SimulatedCluster(
            nodes=nodes, cores_per_node=cores_per_node, costs=costs
        )

    def batcher(self, start: float = 0.0) -> Batcher:
        return Batcher(self.batch_interval, start=start)

    def windower(self, length: float, slide: float) -> SlidingWindower:
        return SlidingWindower(length, slide, self.batch_interval)

    def rdd_of(self, items: Sequence[T]) -> MiniRDD[T]:
        """Form an RDD from a full micro-batch (all items pay the copy)."""
        self.cluster.ingest_items(len(items))
        return MiniRDD.parallelize(self.cluster, items)

    def rdd_of_presampled(
        self, items: Sequence[T], skipped: int
    ) -> MiniRDD[T]:
        """Form an RDD from an already-sampled batch.

        ``skipped`` items were read off the stream and dropped by the
        on-the-fly sampler before RDD formation; they pay ingest (and the
        caller pays the sampler's per-item cost) but never the RDD copy —
        the structural saving behind Figure 4c.
        """
        self.cluster.ingest_items(len(items) + skipped)
        return MiniRDD.parallelize(self.cluster, items)
