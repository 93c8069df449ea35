"""The unified execution runtime — one planner and run loop for every system.

The paper's claim is that one sampling module (OASRS) slots into both
batched and pipelined stream processing *without changing the surrounding
system*.  This package is that claim made structural: a run is a declarative
`ExecutionPlan` (source → windower → sampling stage → estimator → report)
built by `build_plan`, the sampling stage is a pluggable `SamplingStrategy`
(``none`` / ``srs`` / ``sts`` / ``oasrs``) behind one chunk-first
interface, and `execute_plan` drives the plan on one of three engines —
batched micro-batches, pipelined operators, or the direct executor — with
``chunk_size`` / ``parallelism`` honoured uniformly.

The seven classes in `repro.system` are thin configs over this runtime;
porting a new system means registering a strategy and/or naming an
``(engine, strategy)`` pair, not writing a run loop (see
``docs/architecture.md``).
"""

from ..core.recovery import FaultSchedule, RecoveryEvent, ShardKill
from ..obs import RunTelemetry, TelemetryConfig
from .checkpoint import CheckpointPolicy, CheckpointStore, PaneCheckpoint
from .config import QueryBudget, StreamQuery, SystemConfig, WindowConfig
from .control import AdaptationPoint, BudgetController
from .driver import execute_plan
from .plan import ENGINES, ExecutionPlan, PlanError, build_plan
from .report import (
    SystemReport,
    WindowResult,
    accuracy_loss,
    estimate_pane,
    estimate_pane_stats,
    exact_panes,
    join_ground_truth,
)
from .source import ListSource, PlanSource, TopicSource, as_source
from .strategies import (
    BoundStrategy,
    SamplingStrategy,
    available_strategies,
    full_weight_sample,
    get_strategy,
    register_strategy,
)

__all__ = [
    "ENGINES",
    "AdaptationPoint",
    "BoundStrategy",
    "BudgetController",
    "CheckpointPolicy",
    "CheckpointStore",
    "ExecutionPlan",
    "FaultSchedule",
    "ListSource",
    "PaneCheckpoint",
    "RecoveryEvent",
    "ShardKill",
    "PlanError",
    "PlanSource",
    "QueryBudget",
    "RunTelemetry",
    "SamplingStrategy",
    "StreamQuery",
    "SystemConfig",
    "SystemReport",
    "TelemetryConfig",
    "TopicSource",
    "WindowConfig",
    "WindowResult",
    "accuracy_loss",
    "as_source",
    "available_strategies",
    "build_plan",
    "estimate_pane",
    "estimate_pane_stats",
    "exact_panes",
    "execute_plan",
    "full_weight_sample",
    "get_strategy",
    "join_ground_truth",
    "register_strategy",
]
