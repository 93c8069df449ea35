"""The per-interval budget control loop — plan → drive → observe → re-budget.

This module closes the paper's headline contract: the user specifies a
*query budget* (`repro.core.budget.AccuracyBudget` / `LatencyBudget` /
`ResourceBudget`) and the system adapts its per-interval sample size to
meet it, instead of running a fixed ``sampling_fraction`` forever.

`BudgetController` is the per-run state behind ``SystemConfig(budget=…)``.
Every engine driver performs the same control step when a pane closes:

1. **observe** — the pane's per-stratum `StratumStats` feed
   `VirtualCostFunction.observe` (variance estimates for the Equation-9
   inversion) and the pane's population refreshes the arrival-rate
   estimate,
2. **re-derive** — the virtual cost function translates the budget into a
   model-based sample size for the next interval (§7's sketch: inverted
   Equation 9 for accuracy budgets, the Pulsar-style token cost model for
   latency/resource budgets),
3. **feed back** — for accuracy budgets, the §4.2
   `AdaptiveSampleSizeController` additionally compares the *measured* CI
   half-width against the target and grows/decays the size
   multiplicatively, catching whatever the model missed (drifting
   variance, skew the worst-stratum approximation underestimates).

The chosen per-interval total is returned to the driver, which actuates it
through the bound strategy's one hook (`BoundStrategy.set_budget`), and
recorded as an `AdaptationPoint` so the whole trajectory is visible in
the `repro.runtime.report.SystemReport`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..core.budget import (
    AccuracyBudget,
    AdaptiveSampleSizeController,
    VirtualCostFunction,
)
from ..core.error import ErrorBound
from ..core.query import StratumStats

__all__ = ["AdaptationPoint", "BudgetController"]


@dataclass(frozen=True)
class AdaptationPoint:
    """One step of the adaptation trajectory: what the controller saw and chose.

    Emitted once per pane; ``sample_budget`` is the total per-interval
    sample size chosen for the *next* interval, after observing the pane
    summarised by the other fields.
    """

    #: Event time of the pane that triggered this step (a slide multiple).
    interval_end: float
    #: Total per-interval sample budget chosen for the next interval.
    sample_budget: int
    #: The pane's measured CI half-width (absolute, in query units).
    measured_margin: float
    #: The same margin relative to the pane's estimate (inf when estimate=0).
    relative_margin: float
    #: Estimated items arriving per slide interval (pane population / k).
    observed_items: int
    #: Number of strata observed in the pane.
    strata: int


class BudgetController:
    """Translate a query budget into per-interval sample sizes, adaptively.

    One instance lives for one run (like a `BoundStrategy`); the engine
    drivers call `initial_total` before the first interval and `on_pane`
    after every pane close.  The controller is engine-agnostic — the same
    instance drives the batched, pipelined, and direct loops, including the
    sharded `repro.core.distributed.ShardedExecutor` path (the drivers
    actuate through the bound strategy, which mutates the shared
    water-filling policy).

    Accuracy budgets compare *absolute* CI half-widths: the pane's measured
    ``ErrorBound.margin`` against ``AccuracyBudget.target_margin``, both in
    the query's units.  The adaptive controller is only the feedback trim —
    the model-based size from the virtual cost function acts as a floor, so
    a variance spike feeds forward immediately instead of waiting for
    multiplicative growth to catch up.
    """

    def __init__(self, budget, config, window) -> None:
        self.budget = budget
        self.window = window
        self.vcf = VirtualCostFunction(
            cores=config.nodes * config.cores_per_node,
            default_fraction=config.sampling_fraction,
        )
        self.trajectory: List[AdaptationPoint] = []
        self._feedback: Optional[AdaptiveSampleSizeController] = None
        self._total: Optional[int] = None
        self._telemetry = None

    def attach_telemetry(self, telemetry) -> None:
        """Emit each re-target decision as a trace event on this collector.

        The event carries the same fields as the `AdaptationPoint` it
        mirrors, so the §4.2 trajectory shows up inline in the span tree
        (and chrome://tracing) instead of only post-hoc on the report.
        """
        self._telemetry = telemetry

    def initial_total(self, expected_items_per_interval: int) -> int:
        """The first interval's total sample budget, before any observation.

        Accuracy budgets have no variance estimate yet, so they start from
        the configured ``sampling_fraction`` seed (the virtual cost
        function's pre-observation default); latency/resource budgets are
        capacity-derived and bind from the very first interval.
        """
        expected = max(1, int(expected_items_per_interval))
        fraction = self.vcf.sampling_fraction(self.budget, expected)
        self._total = max(1, int(fraction * expected))
        return self._total

    @property
    def last_point(self) -> Optional[AdaptationPoint]:
        return self.trajectory[-1] if self.trajectory else None

    def on_pane(
        self,
        strata_stats: Sequence[StratumStats],
        bound: Optional[ErrorBound],
        pane_items: int,
    ) -> int:
        """The per-interval control step; returns the next interval's budget.

        ``strata_stats`` and ``bound`` summarise the pane that just closed;
        ``pane_items`` is its population (window-level — divided by the
        window's interval count to refresh the per-interval rate estimate).
        """
        self.vcf.observe(strata_stats)
        # The first k−1 panes cover fewer than a full window's worth of
        # intervals, so divide by the intervals actually behind this pane.
        intervals = min(len(self.trajectory) + 1, self.window.intervals_per_window)
        per_interval = max(1, round(pane_items / intervals)) if pane_items else 1
        strata = max(1, len(strata_stats))
        model_total = min(
            per_interval, self.vcf.sample_size(self.budget, per_interval) * strata
        )
        measured = bound.margin if bound is not None else 0.0
        if isinstance(self.budget, AccuracyBudget):
            if self._feedback is None:
                seed = self._total if self._total is not None else model_total
                self._feedback = AdaptiveSampleSizeController(
                    initial_size=max(1, seed),
                    target_relative_margin=self.budget.target_margin,
                    max_size=1_000_000_000,
                )
            fed = self._feedback.update(measured)
            total = min(per_interval, max(fed, model_total))
            # Keep the feedback loop operating on the size actually applied
            # (the model floor and the per-interval cap both bypass it).
            self._feedback.current_size = total
        else:
            total = model_total
        total = max(1, total)
        self._total = total
        point = AdaptationPoint(
            interval_end=(len(self.trajectory) + 1) * self.window.slide,
            sample_budget=total,
            measured_margin=measured,
            relative_margin=(
                bound.relative_margin if bound is not None else 0.0
            ),
            observed_items=per_interval,
            strata=strata,
        )
        self.trajectory.append(point)
        if self._telemetry is not None:
            self._telemetry.tracer.event(
                "budget.retarget",
                interval_end=point.interval_end,
                sample_budget=point.sample_budget,
                measured_margin=point.measured_margin,
                relative_margin=point.relative_margin,
                observed_items=point.observed_items,
                strata=point.strata,
            )
            self._telemetry.metrics.gauge("budget.sample_budget").set(total)
            self._telemetry.metrics.counter("budget.retargets").inc()
        return total
