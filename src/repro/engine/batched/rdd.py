"""MiniRDD — a from-scratch micro-batch data-parallel dataset.

A faithful-in-structure miniature of Spark's Resilient Distributed Datasets
[46]: an immutable, partitioned collection with *lazy* transformations
recorded as a lineage DAG and *actions* that launch a job.  What matters for
the reproduction is the cost structure, so every operation charges the
`SimulatedCluster`:

* creating an RDD pays per-RDD bookkeeping and a per-item batch-formation
  copy (this is the overhead StreamApprox avoids by sampling *before*
  forming RDDs, §4.2.1),
* an action launches a job plus one task per partition,
* ``groupByKey`` / ``reduceByKey`` / ``sortBy`` shuffle items across
  partitions and synchronise workers with a barrier,
* ``sample`` / ``sampleByKey`` run the Spark sampling algorithms of
  `repro.sampling` and charge their key-assignment and sort work.

The data itself is computed eagerly per-partition at action time, walking
the lineage — narrow transformations are pipelined within a partition (one
pass, no materialisation), exactly like Spark stages.
"""

from __future__ import annotations

import math
import random
from typing import (
    Callable,
    Dict,
    Generic,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from ...sampling.srs import ScaSRSSampler
from ...sampling.sts import StratifiedSampler
from ..cluster import SimulatedCluster

T = TypeVar("T")
U = TypeVar("U")
K = Hashable
V = TypeVar("V")

__all__ = ["MiniRDD"]


class MiniRDD(Generic[T]):
    """A partitioned, lazily transformed, cost-accounted dataset.

    Do not construct directly — use ``MiniRDD.parallelize`` or the
    transformation methods, which thread the owning cluster through the
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

    def _derive(
        self,
        fn: Callable[[List[List[T]]], List[List[U]]],
        num_partitions: Optional[int] = None,
    ) -> "MiniRDD[U]":
        parent = self

        def compute() -> List[List[U]]:
            return fn(parent._partitions())

        return MiniRDD(
            self._cluster,
            compute=compute,
            num_partitions=num_partitions or self.num_partitions,
        )

    # -- narrow transformations (pipelined, no shuffle) --------------------------

    def map(self, fn: Callable[[T], U]) -> "MiniRDD[U]":
        return self._derive(lambda parts: [[fn(x) for x in p] for p in parts])

    def filter(self, pred: Callable[[T], bool]) -> "MiniRDD[T]":
        return self._derive(lambda parts: [[x for x in p if pred(x)] for p in parts])

    def flat_map(self, fn: Callable[[T], Iterable[U]]) -> "MiniRDD[U]":
        return self._derive(
            lambda parts: [[y for x in p for y in fn(x)] for p in parts]
        )

    def map_partitions(
        self, fn: Callable[[List[T]], Iterable[U]]
    ) -> "MiniRDD[U]":
        return self._derive(lambda parts: [list(fn(p)) for p in parts])

    def glom(self) -> "MiniRDD[List[T]]":
        """Coalesce each partition into a single list element (Spark's glom).

        This is how the batched engine exposes partitions as *chunks*: a
        downstream map over a glommed RDD sees one list per partition and
        can hand it to the vectorized chunk samplers
        (`repro.core.oasrs.OASRSSampler.process_chunk` and friends) instead
        of iterating item by item.
        """
        return self._derive(
            lambda parts: [[list(p)] for p in parts], num_partitions=self.num_partitions
        )

    def union(self, other: "MiniRDD[T]") -> "MiniRDD[T]":
        parent = self

        def compute() -> List[List[T]]:
            return parent._partitions() + other._partitions()

        return MiniRDD(
            self._cluster,
            compute=compute,
            num_partitions=self.num_partitions + other.num_partitions,
        )

    # -- wide transformations (shuffle + barrier) ---------------------------------

    def group_by_key(self: "MiniRDD[Tuple[K, V]]") -> "MiniRDD[Tuple[K, List[V]]]":
        """Hash-partition by key; shuffles every item and synchronises."""
        cluster = self._cluster
        parent = self

        def compute() -> List[List[Tuple[K, List[V]]]]:
            parts = parent._partitions()
            n_items = sum(len(p) for p in parts)
            cluster.shuffle_items(n_items)
            cluster.barrier()
            groups: Dict[K, List[V]] = {}
            for p in parts:
                for key, value in p:
                    groups.setdefault(key, []).append(value)
            out = [(k, vs) for k, vs in groups.items()]
            return _split(out, parent.num_partitions)

        return MiniRDD(cluster, compute=compute, num_partitions=self.num_partitions)

    def reduce_by_key(
        self: "MiniRDD[Tuple[K, V]]", fn: Callable[[V, V], V]
    ) -> "MiniRDD[Tuple[K, V]]":
        """Map-side combine then shuffle only the partials (cheaper than groupBy)."""
        cluster = self._cluster
        parent = self

        def compute() -> List[List[Tuple[K, V]]]:
            parts = parent._partitions()
            partials: List[Dict[K, V]] = []
            for p in parts:
                local: Dict[K, V] = {}
                for key, value in p:
                    local[key] = fn(local[key], value) if key in local else value
                partials.append(local)
            cluster.shuffle_items(sum(len(d) for d in partials))
            cluster.barrier()
            merged: Dict[K, V] = {}
            for local in partials:
                for key, value in local.items():
                    merged[key] = fn(merged[key], value) if key in merged else value
            return _split(list(merged.items()), parent.num_partitions)

        return MiniRDD(cluster, compute=compute, num_partitions=self.num_partitions)

    def sort_by(self, key_fn: Callable[[T], object]) -> "MiniRDD[T]":
        """Full sort: shuffles everything and pays n log2 n comparisons."""
        cluster = self._cluster
        parent = self

        def compute() -> List[List[T]]:
            parts = parent._partitions()
            flat = [x for p in parts for x in p]
            cluster.shuffle_items(len(flat))
            cluster.barrier()
            if len(flat) > 1:
                cluster.sort(len(flat) * math.log2(len(flat)))
            flat.sort(key=key_fn)
            return _split(flat, parent.num_partitions)

        return MiniRDD(cluster, compute=compute, num_partitions=self.num_partitions)

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

    def count(self) -> int:
        return sum(len(p) for p in self._run_job())

    def reduce(self, fn: Callable[[T, T], T]) -> T:
        items = self.collect()
        if not items:
            raise ValueError("reduce of an empty RDD")
        acc = items[0]
        for x in items[1:]:
            acc = fn(acc, x)
        return acc

    def take(self, n: int) -> List[T]:
        out: List[T] = []
        for p in self._run_job():
            for x in p:
                if len(out) >= n:
                    return out
                out.append(x)
        return out

    def process_all(self) -> int:
        """Run the user query over every item: the dominant per-item cost.

        Returns the number of items processed.  Engines call this to charge
        the query execution itself (map/filter closures above are assumed to
        be part of the same fused stage).
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
