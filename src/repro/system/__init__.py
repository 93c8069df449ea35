"""The six end-to-end systems of the paper's evaluation (Figure 3).

Every system is a thin declarative config over the unified execution
runtime (`repro.runtime`) — a name plus an ``(engine, strategy)`` pair:

* `SparkStreamApproxSystem` — batched engine + ``oasrs`` (§4.2.1),
* `FlinkStreamApproxSystem` — pipelined engine + ``oasrs`` (§4.2.2),
* `SparkSRSSystem` — batched engine + ``srs`` (Spark `sample`),
* `SparkSTSSystem` — batched engine + ``sts`` (`sampleByKeyExact`),
* `NativeSparkSystem` / `NativeFlinkSystem` — batched / pipelined engine
  + ``none`` (no sampling).

Beyond the paper's six, `NativeStreamApproxSystem` is this repo's own
executor: the ``oasrs`` strategy on the runtime's **direct** engine, the
system whose wall-clock speed measures the vectorized sampling kernel and
the real multi-process `ShardedExecutor` (``SystemConfig.parallelism``).  It is intentionally *not* part of ``ALL_SYSTEMS``,
which enumerates exactly the paper's evaluated six.

All share `StreamSystem.run(stream) → SystemReport` with per-pane
estimates, error bounds, ground truth, accuracy loss, throughput and
latency; ``run`` also accepts any `repro.runtime.source.PlanSource`, so
every system can read Kafka-style from the `repro.aggregator` broker.
"""

from .base import (
    StreamSystem,
    SystemReport,
    WindowResult,
    accuracy_loss,
    estimate_pane,
    exact_panes,
)
from .config import StreamQuery, SystemConfig, WindowConfig
from .flink_approx import FlinkStreamApproxSystem
from .native import NativeFlinkSystem, NativeSparkSystem, NativeStreamApproxSystem
from .spark_approx import SparkStreamApproxSystem
from .spark_srs import SparkSRSSystem
from .spark_sts import SparkSTSSystem

ALL_SYSTEMS = {
    SparkStreamApproxSystem.name: SparkStreamApproxSystem,
    FlinkStreamApproxSystem.name: FlinkStreamApproxSystem,
    SparkSRSSystem.name: SparkSRSSystem,
    SparkSTSSystem.name: SparkSTSSystem,
    NativeSparkSystem.name: NativeSparkSystem,
    NativeFlinkSystem.name: NativeFlinkSystem,
}

__all__ = [
    "ALL_SYSTEMS",
    "FlinkStreamApproxSystem",
    "NativeFlinkSystem",
    "NativeSparkSystem",
    "NativeStreamApproxSystem",
    "SparkSRSSystem",
    "SparkSTSSystem",
    "SparkStreamApproxSystem",
    "StreamQuery",
    "StreamSystem",
    "SystemConfig",
    "SystemReport",
    "WindowConfig",
    "WindowResult",
    "accuracy_loss",
    "estimate_pane",
    "exact_panes",
]
