"""Stream-processing substrates: the simulated cluster and the batch engine.

* `repro.engine.costs` / `repro.engine.cluster` — the virtual-time cost
  model standing in for the paper's 17-node testbed (see DESIGN.md §2),
* `repro.engine.batched` — a Spark-Streaming-like micro-batch engine
  (MiniRDD + DStream).

The Flink-like pipelined engine needs no substrate of its own: it is one
event-time loop in `repro.runtime.driver` charging this cost model.
"""

from .cluster import ExecutionStats, SimulatedCluster, VirtualClock
from .costs import DEFAULT_COSTS, CostProfile

__all__ = [
    "DEFAULT_COSTS",
    "CostProfile",
    "ExecutionStats",
    "SimulatedCluster",
    "VirtualClock",
]
