"""`StreamSystem` — the declarative shell every evaluated system shares.

Since the unified runtime (`repro.runtime`) absorbed the per-system run
loops, a system is just a name plus an ``(engine, strategy)`` pair: ``run``
builds an `ExecutionPlan` from the system's (`StreamQuery`,
`WindowConfig`, `SystemConfig`) triple, hands it to the runtime driver,
and joins the per-pane ground truth into a `SystemReport`.

The result types and estimation helpers (`WindowResult`, `SystemReport`,
`estimate_pane`, `exact_panes`, `accuracy_loss`) live in
`repro.runtime.report` and are re-exported here for compatibility.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..runtime.checkpoint import CheckpointStore, PaneCheckpoint
from ..runtime.driver import execute_plan
from ..runtime.plan import ExecutionPlan, build_plan
from ..runtime.report import (  # noqa: F401  (re-exported compatibility names)
    SystemReport,
    WindowResult,
    accuracy_loss,
    estimate_pane,
    exact_panes,
    join_ground_truth,
)
from ..runtime.source import ListSource, PlanSource, as_source
from .config import StreamQuery, SystemConfig, WindowConfig

__all__ = [
    "WindowResult",
    "SystemReport",
    "StreamSystem",
    "estimate_pane",
    "exact_panes",
    "accuracy_loss",
]


class StreamSystem:
    """Base class for the evaluated systems: a declarative runtime config.

    Subclasses declare ``name``, ``engine`` (``batched`` / ``pipelined`` /
    ``direct``), and ``strategy`` (a registered sampling-strategy name);
    `plan` turns the declaration plus the (`StreamQuery`, `WindowConfig`,
    `SystemConfig`) triple into a validated `ExecutionPlan`, and ``run``
    executes it through `repro.runtime.driver.execute_plan`, joining
    per-pane ground truth into the `SystemReport`.

    ``run`` accepts either an in-memory ``(timestamp, item)`` list or any
    `repro.runtime.source.PlanSource` (e.g. a broker-backed
    `repro.runtime.source.TopicSource`) — every system reads from every
    source.

    Experimental systems may still override ``_execute(stream)`` directly
    instead of declaring an engine (see
    `repro.system.spark_base.BatchedSystem` for the batched hook).

    Example
    -------
    >>> class NullSystem(StreamSystem):
    ...     name = "null"
    ...     def _execute(self, stream):
    ...         from ..engine.cluster import SimulatedCluster
    ...         return [], SimulatedCluster()
    >>> from repro import StreamQuery
    >>> q = StreamQuery(key_fn=lambda it: it[0], value_fn=lambda it: it[1])
    >>> NullSystem(q).run([]).items_total
    0
    """

    name = "abstract"
    #: Runtime engine this system executes on; subclasses that keep a
    #: bespoke ``_execute`` may leave it empty.
    engine: str = ""
    #: Registered sampling-strategy name driving the plan's sampling stage.
    strategy: str = "none"

    def __init__(
        self,
        query: StreamQuery,
        window: Optional[WindowConfig] = None,
        config: Optional[SystemConfig] = None,
    ) -> None:
        self.query = query
        self.window = window if window is not None else WindowConfig()
        self.config = config if config is not None else SystemConfig()
        #: Per-interval budget-adaptation trajectory of the most recent run
        #: (empty for fixed-fraction configs); also attached to the report.
        self.adaptation: list = []
        #: Pane checkpoints of the most recent run, when the config sets a
        #: `repro.runtime.checkpoint.CheckpointPolicy`; None otherwise.
        self.checkpoints: Optional[CheckpointStore] = None
        #: Checkpoint the in-flight ``run`` is resuming from, if any.
        self._resume_from: Optional[PaneCheckpoint] = None
        #: Diagnostics the driver reports back outside the result tuple
        #: (fallback reasons, telemetry); reset per run.
        self._run_info: dict = {}

    def plan(self, source: Optional[PlanSource] = None) -> ExecutionPlan:
        """Build this system's validated `ExecutionPlan` for one run."""
        if not self.engine:
            raise TypeError(
                f"system {self.name!r} does not declare a runtime engine; "
                "it executes through a bespoke _execute override"
            )
        return build_plan(
            query=self.query,
            window=self.window,
            config=self.config,
            engine=self.engine,
            strategy=self.strategy,
            source=source,
            name=self.name,
        )

    def run(
        self, stream, resume_from: Optional[PaneCheckpoint] = None
    ) -> SystemReport:
        """Process a stream (a ``(timestamp, item)`` list or a `PlanSource`).

        With ``resume_from`` (a `PaneCheckpoint` of an earlier run over the
        same stream) the run restores the checkpointed state and replays
        only the remaining suffix; the resulting panes are bitwise
        identical to an uninterrupted run's.  Checkpoints are collected in
        ``self.checkpoints`` whenever ``config.checkpoint`` is set.
        """
        events = as_source(stream).events()
        truth = exact_panes(events, self.query, self.window)
        self.adaptation = []
        self.checkpoints = (
            CheckpointStore() if self.config.checkpoint is not None else None
        )
        self._resume_from = resume_from
        self._run_info = {}
        try:
            results, cluster = self._execute(events)
        finally:
            self._resume_from = None
        return SystemReport(
            system=self.name,
            results=join_ground_truth(results, truth),
            virtual_seconds=cluster.elapsed(),
            items_total=len(events),
            columnar_fallback=self._run_info.get("columnar_fallback"),
            adaptation=list(self.adaptation),
            telemetry=self._run_info.get("telemetry"),
        )

    def _execute(self, stream: List[Tuple[float, object]]):
        """Run the system's plan; override only for experimental systems."""
        return execute_plan(
            self.plan(ListSource(stream)),
            adaptation_log=self.adaptation,
            checkpoint_store=self.checkpoints,
            resume_from=self._resume_from,
            run_info=self._run_info,
        )
