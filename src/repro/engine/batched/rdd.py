"""MiniRDD — a from-scratch micro-batch data-parallel dataset.

A miniature of Spark's Resilient Distributed Datasets [46] holding exactly
what the batched sampling strategies call: an immutable, partitioned
collection (``parallelize``), the two Spark sampling transformations
(``sample``, ``sampleByKey``), recorded lazily, and the actions that launch
a job (``collect``, ``process_all``).  What matters for the reproduction is
the cost structure, so every operation charges the `SimulatedCluster`:

* creating an RDD pays per-RDD bookkeeping and a per-item batch-formation
  copy (this is the overhead StreamApprox avoids by sampling *before*
  forming RDDs, §4.2.1),
* an action launches a job plus one task per partition,
* ``sample`` / ``sampleByKey`` run the Spark sampling algorithms of
  `repro.sampling` and charge their key-assignment and sort work;
  ``sampleByKey`` also shuffles every item and synchronises the workers
  with barriers (the groupBy it stands on).

The data itself is computed per partition at action time, walking the
lineage, like a Spark stage.
"""

from __future__ import annotations

import random
from typing import Callable, Generic, Hashable, List, Optional, Sequence, Tuple, TypeVar

from ...sampling.srs import ScaSRSSampler
from ...sampling.sts import StratifiedSampler
from ..cluster import SimulatedCluster

T = TypeVar("T")
K = Hashable
V = TypeVar("V")

__all__ = ["MiniRDD"]


class MiniRDD(Generic[T]):
    """A partitioned, lazily transformed, cost-accounted dataset.

    Do not construct directly — use ``MiniRDD.parallelize`` or the
    sampling transformations, which thread the owning cluster through the
    lineage.
    """

    def __init__(
        self,
        cluster: SimulatedCluster,
        compute: Callable[[], List[List[T]]],
        num_partitions: int,
        charge_formation: int = 0,
    ) -> None:
        self._cluster = cluster
        self._compute = compute
        self.num_partitions = num_partitions
        self._cached: Optional[List[List[T]]] = None
        cluster.create_rdd()
        if charge_formation:
            cluster.form_batch(charge_formation)

    # -- construction ---------------------------------------------------------

    @staticmethod
    def parallelize(
        cluster: SimulatedCluster,
        data: Sequence[T],
        num_partitions: Optional[int] = None,
    ) -> "MiniRDD[T]":
        """Materialise a local collection as an RDD (charges batch formation).

        The default partition count follows Spark: at least one per core,
        more for large collections (one per ``partition_size`` block) —
        which is why bigger RDDs schedule more tasks, the overhead
        StreamApprox trims by sampling before RDD formation.
        """
        # Sequences (lists, tuples, the columnar views of
        # `repro.core.records`) are partitioned in place — no wholesale
        # copy; only true iterators are materialised first.
        items = data if hasattr(data, "__len__") else list(data)
        if num_partitions:
            parts = num_partitions
        else:
            blocks = -(-len(items) // cluster.costs.partition_size)  # ceil
            parts = max(1, cluster.total_cores, blocks)
        partitions = _split(items, parts)
        return MiniRDD(
            cluster,
            compute=lambda: partitions,
            num_partitions=parts,
            charge_formation=len(items),
        )

    # -- lineage execution ------------------------------------------------------

    def _partitions(self) -> List[List[T]]:
        if self._cached is None:
            self._cached = self._compute()
        return self._cached

    # -- Spark sampling operators --------------------------------------------------

    def sample(
        self, fraction: float, rng: Optional[random.Random] = None
    ) -> "MiniRDD[T]":
        """Spark ``sample``: per-partition ScaSRS; charges keys + waitlist sort."""
        cluster = self._cluster
        parent = self
        sampler = ScaSRSSampler(rng=rng)

        def compute() -> List[List[T]]:
            parts = parent._partitions()
            out: List[List[T]] = []
            for p in parts:
                cluster.sample_items(len(p), "srs")
                result = sampler.sample_fraction(p, fraction)
                cluster.sort(result.sort_work)
                out.append(result.items)
            return out

        return MiniRDD(cluster, compute=compute, num_partitions=self.num_partitions)

    def sample_by_key(
        self: "MiniRDD[Tuple[K, V]]",
        fractions,
        key_fn: Optional[Callable] = None,
        exact: bool = True,
        rng: Optional[random.Random] = None,
    ) -> "MiniRDD[Tuple[K, V]]":
        """Spark ``sampleByKey(Exact)``: groupBy shuffle + per-stratum SRS.

        Charges the shuffle of every item, the per-stratum sorts, and the
        synchronization barriers the exact variant needs — the §4.1
        bottleneck Figure 4 measures.
        """
        cluster = self._cluster
        parent = self
        sampler = StratifiedSampler(exact=exact, workers=cluster.nodes, rng=rng)
        kf = key_fn if key_fn is not None else (lambda kv: kv[0])

        def compute() -> List[List[Tuple[K, V]]]:
            parts = parent._partitions()
            n_items = sum(len(p) for p in parts)
            cluster.sample_items(n_items, "sts")
            flat = [x for p in parts for x in p]
            result = sampler.sample_by_key(flat, kf, fractions)
            cluster.shuffle_items(result.shuffled_items)
            for _ in range(result.sync_barriers):
                cluster.barrier()
            cluster.sort(result.sort_work)
            return _split(result.items, parent.num_partitions)

        return MiniRDD(cluster, compute=compute, num_partitions=self.num_partitions)

    # -- actions (launch a job) ------------------------------------------------------

    def _run_job(self) -> List[List[T]]:
        self._cluster.launch_job()
        self._cluster.launch_tasks(self.num_partitions)
        return self._partitions()

    def collect(self) -> List[T]:
        return [x for p in self._run_job() for x in p]

    def process_all(self) -> int:
        """Run the user query over every item: the dominant per-item cost.

        Returns the number of items processed.  Engines call this to charge
        the query execution itself.
        """
        n = sum(len(p) for p in self._run_job())
        self._cluster.process_items(n)
        return n


def _split(items: Sequence[T], parts: int) -> List[Sequence[T]]:
    """Round-robin split preserving total order within each partition.

    Implemented as strided slices — ``items[p::parts]`` holds exactly the
    items a per-item ``out[i % parts].append(item)`` loop would give
    partition ``p``.  Plain lists yield list partitions as before; the
    columnar views of `repro.core.records` yield strided sub-views, so
    partitioning a column-backed batch copies nothing.
    """
    parts = max(1, parts)
    return [items[p::parts] for p in range(parts)]
