"""Simulated cluster: virtual time, workers/cores, and cost accounting.

`VirtualClock` accumulates simulated seconds; `SimulatedCluster` knows the
cluster shape (nodes × cores) and converts structural work into time:

* ``parallel(seconds_of_work)`` — embarrassingly parallel work is divided
  by the number of cores (data-parallel map/filter/sample phases),
* ``serial(seconds)`` — driver-side or inherently serial work (scheduling,
  job launch, per-RDD bookkeeping),
* ``barrier()`` — a synchronization point among workers; cost grows
  logarithmically with the worker count (tree barrier), which is what makes
  Spark-based STS scale poorly in Figure 6a.

An `ExecutionStats` ledger counts what happened (items, tasks, shuffles,
barriers) so tests can assert on structure and benchmarks can report
throughput = items / elapsed virtual seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from .costs import DEFAULT_COSTS, CostProfile

__all__ = ["VirtualClock", "ExecutionStats", "SimulatedCluster"]

#: Items `SimulatedCluster.ingest_each` charges per NumPy pass (32 B each).
_EACH_BLOCK = 1 << 16


class VirtualClock:
    """A monotonically advancing simulated clock (seconds)."""

    def __init__(self) -> None:
        self._now = 0.0

    @property
    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> float:
        if seconds < 0:
            raise ValueError(f"cannot advance clock by {seconds} seconds")
        self._now += seconds
        return self._now

    def _advance_each(self, steps) -> float:
        """Advance by each of ``steps`` in turn: the float sum ``advance``
        makes one call at a time, left to right (``np.add.accumulate`` is
        sequential), bitwise."""
        sums = np.concatenate(([self._now], steps))
        if sums[1:].min(initial=0.0) < 0:
            raise ValueError(f"cannot advance clock by {sums[1:].min()} seconds")
        self._now = float(np.add.accumulate(sums, out=sums)[-1])
        return self._now

    def reset(self) -> None:
        self._now = 0.0


@dataclass
class ExecutionStats:
    """Ledger of structural work done on the cluster."""

    items_ingested: int = 0
    items_processed: int = 0
    items_shuffled: int = 0
    items_sampled: int = 0
    tasks_launched: int = 0
    jobs_launched: int = 0
    rdds_created: int = 0
    barriers: int = 0
    sort_comparisons: float = 0.0
    custom: Dict[str, float] = field(default_factory=dict)

    def bump(self, key: str, amount: float = 1.0) -> None:
        self.custom[key] = self.custom.get(key, 0.0) + amount


class SimulatedCluster:
    """A fixed-shape cluster charging virtual time for structural work.

    Parameters
    ----------
    nodes:
        Number of worker nodes.
    cores_per_node:
        Cores per node; the data-parallel speedup factor is
        ``nodes × cores_per_node`` (scaled by ``parallel_efficiency``).
    costs:
        The `CostProfile` to charge against.
    parallel_efficiency:
        Fraction of ideal speedup retained per added core (models stragglers
        and coordination; 1.0 = perfectly linear).
    """

    def __init__(
        self,
        nodes: int = 1,
        cores_per_node: int = 8,
        costs: Optional[CostProfile] = None,
        parallel_efficiency: float = 0.92,
    ) -> None:
        if nodes <= 0 or cores_per_node <= 0:
            raise ValueError("nodes and cores_per_node must be positive")
        if not 0 < parallel_efficiency <= 1:
            raise ValueError("parallel_efficiency must be in (0, 1]")
        self.nodes = nodes
        self.cores_per_node = cores_per_node
        self.costs = costs if costs is not None else DEFAULT_COSTS
        self.parallel_efficiency = parallel_efficiency
        self.clock = VirtualClock()
        self.stats = ExecutionStats()

    @property
    def total_cores(self) -> int:
        return self.nodes * self.cores_per_node

    @property
    def effective_parallelism(self) -> float:
        """Amdahl-style effective speedup for data-parallel phases.

        With efficiency e and c cores: 1 + e (c − 1); e = 1 gives c.
        """
        return 1.0 + self.parallel_efficiency * (self.total_cores - 1)

    # -- time charging -------------------------------------------------------

    def parallel(self, work_seconds: float) -> None:
        """Charge data-parallel work, divided across the cluster's cores."""
        if work_seconds < 0:
            raise ValueError("work_seconds must be non-negative")
        self.clock.advance(work_seconds / self.effective_parallelism)

    def serial(self, seconds: float) -> None:
        """Charge inherently serial (driver-side) time."""
        self.clock.advance(seconds)

    def barrier(self) -> None:
        """Charge one tree barrier across all workers (cost ∝ log2 nodes)."""
        fan_in = max(2.0, float(self.nodes))
        self.clock.advance(self.costs.barrier_sync * math.log2(fan_in))
        self.stats.barriers += 1

    # -- structural events ----------------------------------------------------

    def ingest_items(self, n: int) -> None:
        self.stats.items_ingested += n
        self.parallel(n * self.costs.item_ingest)

    def process_items(self, n: int) -> None:
        self.stats.items_processed += n
        self.parallel(n * self.costs.item_process)

    def form_batch(self, n: int) -> None:
        """Copy ``n`` items into RDD partitions (batched engines only)."""
        self.parallel(n * self.costs.item_batch_form)

    def shuffle_items(self, n: int) -> None:
        self.stats.items_shuffled += n
        self.parallel(n * self.costs.item_shuffle)

    def _sample_cost(self, kind: str) -> float:
        per_item = {
            "oasrs": self.costs.item_sample_oasrs,
            "srs": self.costs.item_sample_srs,
            "sts": self.costs.item_sample_sts,
        }.get(kind)
        if per_item is None:
            raise ValueError(f"unknown sampling kind {kind!r}")
        return per_item

    def sample_items(self, n: int, kind: str) -> None:
        """Charge the per-item sampling cost of the named algorithm."""
        per_item = self._sample_cost(kind)
        self.stats.items_sampled += n
        self.parallel(n * per_item)

    def ingest_each(self, n: int, kind: Optional[str] = None) -> None:
        """Charge ``n`` items one at a time: ``ingest_items(1)``, then
        ``sample_items(1, kind)`` (``process_items(1)`` when ``kind`` is
        None), per item — the same clock and stats as that loop, bitwise,
        in one pass."""
        if n <= 0:
            return
        if kind is None:
            then = self.costs.item_process
            self.stats.items_processed += n
        else:
            then = self._sample_cost(kind)
            self.stats.items_sampled += n
        self.stats.items_ingested += n
        speedup = self.effective_parallelism
        steps = np.empty(2 * min(n, _EACH_BLOCK))
        steps[0::2] = self.costs.item_ingest / speedup
        steps[1::2] = then / speedup
        for start in range(0, n, _EACH_BLOCK):
            self.clock._advance_each(steps[: 2 * min(_EACH_BLOCK, n - start)])

    def sort(self, comparisons: float) -> None:
        self.stats.sort_comparisons += comparisons
        self.parallel(comparisons * self.costs.sort_comparison)

    def launch_tasks(self, n: int) -> None:
        self.stats.tasks_launched += n
        # Task launches are pipelined by the scheduler but fundamentally
        # serialised through the driver.
        self.serial(n * self.costs.task_schedule)

    def launch_job(self) -> None:
        self.stats.jobs_launched += 1
        self.serial(self.costs.job_launch)

    def create_rdd(self) -> None:
        self.stats.rdds_created += 1
        self.serial(self.costs.rdd_overhead)

    # -- reporting -------------------------------------------------------------

    def elapsed(self) -> float:
        """Virtual seconds consumed so far."""
        return self.clock.now

    def reset(self) -> None:
        self.clock.reset()
        self.stats = ExecutionStats()

    def throughput(self, items: int) -> float:
        """Items per virtual second (0 when no time was consumed)."""
        t = self.elapsed()
        if t <= 0:
            return 0.0
        return items / t
