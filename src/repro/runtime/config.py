"""Configuration types the planner builds an `ExecutionPlan` from.

A run is described by three pieces:

* `StreamQuery` — what to compute: the stratum key function (the
  sub-stream source of §2.3), the numeric value per item, the aggregation
  kind (``sum`` or ``mean``; the linear queries of §3.2), and optionally a
  group function for per-group outputs (the case-study queries),
* `WindowConfig` — the sliding-window computation (§2.2),
* `SystemConfig` — deployment shape (nodes, cores, batch interval) and the
  sampling fraction (the output of the virtual cost function; benches sweep
  it directly, examples derive it from a budget via `repro.core.budget`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Optional, Union

from ..core.budget import AccuracyBudget, LatencyBudget, ResourceBudget
from ..core.records import item_key, item_value
from ..core.recovery import FaultSchedule
from ..engine.costs import CostProfile
from ..obs import RunTelemetry, TelemetryConfig
from .checkpoint import CheckpointPolicy

__all__ = ["StreamQuery", "WindowConfig", "SystemConfig", "QueryBudget"]

#: The three user-facing budget kinds the virtual cost function translates
#: into per-interval sample sizes (§2.3 / §7).
QueryBudget = Union[AccuracyBudget, LatencyBudget, ResourceBudget]


@dataclass(frozen=True)
class StreamQuery:
    """A linear streaming query over a stratified input stream.

    Bundles the paper's per-query callables: ``key_fn`` maps an item to its
    sub-stream source (the stratum, §2.3), ``value_fn`` extracts the number
    being aggregated, ``kind`` picks the linear aggregate, and ``group_fn``
    optionally splits the output per group (the case-study queries).

    The defaults are the canonical projections of the classic
    ``(key, value)`` item shape (`repro.core.records.item_key` /
    `repro.core.records.item_value`).  Keeping them enables the columnar
    record path end-to-end: the drivers recognise the canonical
    projections by identity and operate on the stream's interned key and
    value columns directly, falling back to the per-item shim (with
    ``SystemReport.columnar_fallback`` set) for custom callables.

    Example
    -------
    >>> q = StreamQuery(kind="mean", name="window-mean")
    >>> q.key_fn(("A", 3.5)), q.value_fn(("A", 3.5))
    ('A', 3.5)
    """

    key_fn: Callable[[object], Hashable] = item_key
    value_fn: Callable[[object], float] = item_value
    kind: str = "mean"  # "mean" | "sum" | "quantile"
    group_fn: Optional[Callable[[object], Hashable]] = None
    name: str = "query"
    #: The quantile rank for ``kind="quantile"`` (0.5 = median); ignored by
    #: the linear kinds.  Quantile panes estimate the stream's q-quantile
    #: from the weighted sample (`repro.core.quantiles.approximate_quantile`)
    #: and carry a distribution-free DKW interval as their error bound.
    q: float = 0.5

    def __post_init__(self) -> None:
        if self.kind not in ("mean", "sum", "quantile"):
            raise ValueError(
                f"query kind must be 'mean', 'sum', or 'quantile', got {self.kind!r}"
            )
        if not callable(self.key_fn):
            raise ValueError("key_fn must be callable (item -> stratum key)")
        if not callable(self.value_fn):
            raise ValueError("value_fn must be callable (item -> numeric value)")
        if self.group_fn is not None and not callable(self.group_fn):
            raise ValueError("group_fn must be callable (item -> group) when given")
        if not 0 < self.q < 1:
            raise ValueError(f"quantile rank q must be in (0, 1), got {self.q}")
        if self.kind == "quantile" and self.group_fn is not None:
            raise ValueError(
                "group_fn is not supported with kind 'quantile'; per-group "
                "order statistics have no pooled estimation path"
            )


@dataclass(frozen=True)
class WindowConfig:
    """Sliding-window parameters; the paper defaults to w=10 s, δ=5 s.

    A window of ``length`` seconds is evaluated every ``slide`` seconds;
    the length must be a whole multiple of the slide so each pane is an
    exact union of slide-sized intervals.

    Example
    -------
    >>> WindowConfig(length=10.0, slide=5.0).intervals_per_window
    2
    """

    length: float = 10.0
    slide: float = 5.0

    def __post_init__(self) -> None:
        if self.length <= 0 or self.slide <= 0:
            raise ValueError(
                f"window length and slide must be positive, got "
                f"length={self.length}, slide={self.slide}"
            )
        if self.slide > self.length:
            raise ValueError(
                f"slide ({self.slide}) larger than the window ({self.length}) "
                "would drop items"
            )
        ratio = self.length / self.slide
        if abs(ratio - round(ratio)) > 1e-9:
            raise ValueError(
                f"window length ({self.length}) must be a whole multiple of "
                f"the slide ({self.slide}) so each pane is an exact union of "
                "slide-sized intervals"
            )

    @property
    def intervals_per_window(self) -> int:
        return int(round(self.length / self.slide))


@dataclass(frozen=True)
class SystemConfig:
    """Deployment shape + sampling fraction (or query budget) for one run.

    How much to sample is specified one of two ways:

    * ``sampling_fraction`` — a fixed fraction, the classic benchmark knob.
      The per-interval sample budget is frozen at plan-build time.
    * ``budget`` — a user-facing query budget (`AccuracyBudget`,
      `LatencyBudget`, or `ResourceBudget` from `repro.core.budget`).  The
      runtime then closes the paper's §4.2 loop: the first interval starts
      from ``sampling_fraction`` (now a seed, not a contract), and after
      every pane the observed per-stratum statistics and measured CI margin
      feed the virtual cost function + adaptive controller
      (`repro.runtime.control.BudgetController`), re-deriving the next
      interval's sample budget.  Requires a sampling strategy — the planner
      rejects ``budget`` with strategy ``none``.

    ``nodes``/``cores_per_node`` describe the *simulated* cluster the cost
    model charges against; ``chunk_size`` shapes only the simulated
    charging grid and ``parallelism`` is the number of §3.2 workers on
    that cluster:

    * ``chunk_size = K`` (``K >= 2``) makes the pipelined engine charge
      its virtual seconds in runs of ``K`` items; ``0`` (default) and
      ``1`` charge item by item.  Nothing else reads it: every engine
      hands the sampler each interval (a micro-batch on the batched
      engine) in one feed, which the sampler decides in
      `repro.core.records.L2_SLICE`-row slices, so every ``chunk_size``
      returns the same panes at the same wall-clock cost.
    * ``parallelism = N`` (``2 <= N <= nodes * cores_per_node``) shards
      each sampling interval into ``N`` local reservoirs of ``⌈N_i / N⌉``
      and merges them (`repro.core.distributed.ShardedExecutor`, run in
      one process).  Supported by every OASRS-based system
      (spark/flink/native StreamApprox); the planner raises
      `repro.runtime.plan.PlanError` for strategies that cannot shard
      without synchronization (srs, sts, none).

    Example
    -------
    >>> cfg = SystemConfig(sampling_fraction=0.4, chunk_size=256, parallelism=4)
    >>> cfg.chunk_size, cfg.parallelism
    (256, 4)
    """

    sampling_fraction: float = 0.6
    #: Optional query budget; when set, the sample size adapts per interval
    #: (see class docstring) instead of staying frozen at
    #: ``sampling_fraction``.
    budget: Optional[QueryBudget] = None
    batch_interval: float = 1.0
    nodes: int = 1
    cores_per_node: int = 8
    seed: int = 42
    confidence: float = 0.95
    chunk_size: int = 0
    parallelism: int = 1
    #: Optional override of the simulated cluster's calibrated cost
    #: constants (`repro.engine.costs.DEFAULT_COSTS`); the robustness
    #: tests perturb these to check the figure orderings are structural.
    costs: Optional[CostProfile] = None
    #: Optional pane checkpointing (`repro.runtime.checkpoint.CheckpointPolicy`).
    #: When set, the driver snapshots the full sampling/controller state at
    #: pane boundaries into a `CheckpointStore`, and ``execute_plan`` /
    #: ``StreamSystem.run`` accept ``resume_from=`` to restart mid-stream
    #: with bitwise-identical remaining panes.  Requires a replayable
    #: source (the planner rejects others).
    checkpoint: Optional[CheckpointPolicy] = None
    #: Optional deterministic fault injection
    #: (`repro.core.recovery.FaultSchedule`): kill shard workers at chosen
    #: intervals and recover by discard-and-rewiden.  Requires
    #: ``parallelism >= 2`` with a shardable strategy.
    faults: Optional[FaultSchedule] = None
    #: Optional observability (`repro.obs.TelemetryConfig`): per-pane stage
    #: timing, counters, and nested trace spans, surfaced as
    #: ``SystemReport.telemetry`` and exportable to chrome://tracing.  A
    #: live `repro.obs.RunTelemetry` instance is also accepted when the
    #: caller wants to hold the collector directly.  Telemetry never
    #: touches RNG state or estimates — runs stay bitwise identical with
    #: it on (golden-pinned) — and costs nothing when left ``None``.
    telemetry: Union[None, TelemetryConfig, RunTelemetry] = None

    def __post_init__(self) -> None:
        if not 0 < self.sampling_fraction <= 1:
            raise ValueError(
                f"sampling_fraction must be in (0, 1], got {self.sampling_fraction}"
            )
        if self.budget is not None and not isinstance(
            self.budget, (AccuracyBudget, LatencyBudget, ResourceBudget)
        ):
            raise ValueError(
                f"budget must be an AccuracyBudget, LatencyBudget, or "
                f"ResourceBudget, got {type(self.budget).__name__}"
            )
        if self.batch_interval <= 0:
            raise ValueError("batch_interval must be positive")
        if self.nodes <= 0 or self.cores_per_node <= 0:
            raise ValueError("nodes and cores_per_node must be positive")
        if not 0 < self.confidence < 1:
            raise ValueError(
                f"confidence must be in (0, 1), got {self.confidence}"
            )
        if self.chunk_size < 0:
            raise ValueError(f"chunk_size must be non-negative, got {self.chunk_size}")
        if self.parallelism < 1:
            raise ValueError(f"parallelism must be at least 1, got {self.parallelism}")
        if self.parallelism > self.nodes * self.cores_per_node:
            raise ValueError(
                f"parallelism {self.parallelism} exceeds the cluster's "
                f"{self.nodes} x {self.cores_per_node} cores"
            )
        if self.checkpoint is not None and not isinstance(
            self.checkpoint, CheckpointPolicy
        ):
            raise ValueError(
                f"checkpoint must be a CheckpointPolicy, "
                f"got {type(self.checkpoint).__name__}"
            )
        if self.faults is not None and not isinstance(self.faults, FaultSchedule):
            raise ValueError(
                f"faults must be a FaultSchedule, got {type(self.faults).__name__}"
            )
        if self.telemetry is not None and not isinstance(
            self.telemetry, (TelemetryConfig, RunTelemetry)
        ):
            raise ValueError(
                f"telemetry must be a TelemetryConfig or RunTelemetry, "
                f"got {type(self.telemetry).__name__}"
            )
