"""Result types and the shared estimation stage of the execution runtime.

Every `ExecutionPlan` ends in the same estimator → report tail: per pane,
the plan's sampling stage hands a `repro.core.strata.WeightedSample` (or
pooled per-stratum moments) to `estimate_pane`, and the driver assembles
`WindowResult`s into one `SystemReport` joined against the ground truth of
`exact_panes`.  Before the unified runtime each ``system/*.py`` carried its
own copy of this tail; it now lives here exactly once.

* `WindowResult` — one pane: approximate output, ±error bound (§3.3), the
  exact (unsampled) ground truth for the same pane, and the achieved
  accuracy loss ``|approx − exact| / exact`` (the paper's §6.1 metric),
* `SystemReport` — the run: per-pane results plus the virtual seconds
  consumed on the `SimulatedCluster`, hence throughput (items/second) and
  dataset-processing latency (Fig. 10).

Ground truth is computed outside the cost model — it is measurement
apparatus, not part of the evaluated system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Optional, Tuple

from ..core.error import ErrorBound, estimate_error
from ..core.query import (
    StratumStats,
    approximate_mean,
    approximate_sum,
    grouped_mean,
    grouped_sum,
)
from ..core.recovery import RecoveryEvent
from ..core.strata import WeightedSample
from ..engine.batched.dstream import Batcher, SlidingWindower
from .config import StreamQuery, WindowConfig
from .control import AdaptationPoint

__all__ = [
    "WindowResult",
    "SystemReport",
    "estimate_pane",
    "estimate_pane_stats",
    "exact_panes",
    "accuracy_loss",
    "join_ground_truth",
]


@dataclass(frozen=True)
class WindowResult:
    """One sliding-window pane's output.

    Pairs the system's approximate ``estimate`` (with its ±``error`` bound
    and optional per-group values) with the ``exact`` ground truth computed
    by re-executing the pane unsampled, from which ``accuracy_loss`` — the
    paper's §6.1 metric — derives.

    Example
    -------
    >>> pane = WindowResult(end=5.0, estimate=98.0, exact=100.0, error=None)
    >>> round(pane.accuracy_loss, 3)
    0.02
    """

    end: float
    estimate: float
    exact: Optional[float]
    error: Optional[ErrorBound]
    groups: Dict[Hashable, float] = field(default_factory=dict)
    exact_groups: Dict[Hashable, float] = field(default_factory=dict)
    sampled_items: int = 0
    total_items: int = 0
    #: Worker-loss incidents absorbed by this pane (discard-and-rewiden):
    #: empty for healthy panes; populated from the sharded executor's
    #: recovery log when `SystemConfig.faults` injected a kill.
    recovery: Tuple[RecoveryEvent, ...] = ()

    @property
    def accuracy_loss(self) -> Optional[float]:
        """|approx − exact| / exact, averaged over groups when grouped."""
        if self.exact_groups:
            losses = [
                accuracy_loss(self.groups.get(g, 0.0), exact)
                for g, exact in self.exact_groups.items()
                if exact != 0
            ]
            return sum(losses) / len(losses) if losses else None
        if self.exact is None or self.exact == 0:
            return None
        return accuracy_loss(self.estimate, self.exact)


@dataclass
class SystemReport:
    """Outcome of running one system over one input stream.

    Bundles the per-pane `WindowResult`s with the virtual seconds the
    simulated cluster charged, from which the figure-level metrics —
    ``throughput`` (items per virtual second), ``latency`` (Fig. 10), and
    ``mean_accuracy_loss`` — are derived.

    Example
    -------
    >>> report = SystemReport("demo", results=[], virtual_seconds=2.0,
    ...                       items_total=1000)
    >>> report.throughput
    500.0
    """

    system: str
    results: List[WindowResult]
    virtual_seconds: float
    items_total: int
    #: Why the run left the columnar record path for the per-item shim
    #: (NumPy missing, payloads the codec cannot represent, custom
    #: key/value projections, or ``REPRO_NO_COLUMNAR``) — None when the
    #: stream flowed through NumPy columns end to end.
    columnar_fallback: Optional[str] = None
    #: Per-interval budget-adaptation trajectory (empty for fixed-fraction
    #: runs): one `repro.runtime.control.AdaptationPoint` per pane, showing
    #: the measured margin and the sample budget chosen for the next
    #: interval — the §4.2 loop made visible.
    adaptation: List[AdaptationPoint] = field(default_factory=list)
    #: The run's live telemetry (`repro.obs.RunTelemetry`: tracer, metrics
    #: registry, per-pane stage timings) when the run was configured with
    #: ``SystemConfig(telemetry=…)`` — None otherwise.  Deliberately
    #: excluded from golden fingerprints and result comparisons: telemetry
    #: observes a run, it never changes one.
    telemetry: Optional[object] = None

    @property
    def throughput(self) -> float:
        """Input items processed per virtual second."""
        if self.virtual_seconds <= 0:
            return 0.0
        return self.items_total / self.virtual_seconds

    @property
    def latency(self) -> float:
        """Total virtual time to process the dataset (the Fig. 10 metric)."""
        return self.virtual_seconds

    def mean_accuracy_loss(self) -> float:
        """Average accuracy loss over panes with defined ground truth."""
        losses = [r.accuracy_loss for r in self.results if r.accuracy_loss is not None]
        if not losses:
            return 0.0
        return sum(losses) / len(losses)

    def mean_estimates(self) -> List[Tuple[float, float]]:
        """(pane end, estimate) series — the Figure 7 time series."""
        return [(r.end, r.estimate) for r in self.results]

    @property
    def recovery_events(self) -> List[RecoveryEvent]:
        """All worker-loss incidents across the run's panes, in pane order."""
        return [event for r in self.results for event in r.recovery]

    @property
    def items_lost(self) -> int:
        """Total items discarded to worker failures (coverage shortfall)."""
        return sum(event.items_lost for event in self.recovery_events)


def accuracy_loss(approx: float, exact: float) -> float:
    """The paper's accuracy metric: |approx − exact| / exact."""
    if exact == 0:
        return math.inf if approx != 0 else 0.0
    return abs(approx - exact) / abs(exact)


def estimate_pane(
    sample: WeightedSample,
    query: StreamQuery,
    confidence: float,
) -> Tuple[float, ErrorBound, Dict[Hashable, float]]:
    """Evaluate the query on a pane's weighted sample with error bounds.

    A quantile pane runs its DKW estimate alone, without the stratum stats.
    """
    if query.kind == "quantile":
        return _dkw_pane(sample, query, confidence)
    value, bound, groups, _strata = estimate_pane_stats(sample, query, confidence)
    return value, bound, groups


def estimate_pane_stats(
    sample: WeightedSample,
    query: StreamQuery,
    confidence: float,
) -> Tuple[float, ErrorBound, Dict[Hashable, float], List[StratumStats]]:
    """`estimate_pane` plus the per-stratum statistics behind the estimate.

    The extra `StratumStats` list is what the budget control loop feeds
    back into `VirtualCostFunction.observe` — variance and count per
    stratum, exactly the Equation-9 inputs.

    ``kind="quantile"`` panes estimate the stream's q-quantile with a
    distribution-free DKW interval (`repro.core.quantiles`) as the error
    bound; the stratum statistics still come from the mean estimator so
    the budget loop keeps its Equation-9 inputs.
    """
    if query.kind == "quantile":
        return _estimate_quantile_pane(sample, query, confidence)
    if query.kind == "sum":
        result = approximate_sum(sample, query.value_fn)
    else:
        result = approximate_mean(sample, query.value_fn)
    bound = estimate_error(result, confidence=confidence)
    groups: Dict[Hashable, float] = {}
    if query.group_fn is not None:
        if query.kind == "sum":
            groups = grouped_sum(sample, query.group_fn, query.value_fn)
        else:
            groups = grouped_mean(sample, query.group_fn, query.value_fn)
    return result.value, bound, groups, list(result.strata)


def _estimate_quantile_pane(
    sample: WeightedSample,
    query: StreamQuery,
    confidence: float,
) -> Tuple[float, ErrorBound, Dict[Hashable, float], List[StratumStats]]:
    """Quantile pane: the DKW estimate + the mean estimator's Eq.-9 stratum stats."""
    strata = list(approximate_mean(sample, query.value_fn).strata)
    return (*_dkw_pane(sample, query, confidence), strata)


def _dkw_pane(
    sample: WeightedSample, query: StreamQuery, confidence: float
) -> Tuple[float, ErrorBound, Dict[Hashable, float]]:
    """Quantile pane estimate: the DKW-bracketed order statistic."""
    from ..core.quantiles import approximate_quantile, quantile_bound

    if sample.total_items == 0:
        empty = ErrorBound(value=0.0, variance=0.0, confidence=confidence, margin=0.0)
        return 0.0, empty, {}
    estimate = approximate_quantile(
        sample, query.q, value_fn=query.value_fn, confidence=confidence
    )
    return estimate.value, quantile_bound(estimate), {}


def _exact_quantile(values: List[float], q: float) -> float:
    """Empirical q-quantile: smallest value with cumulative count ≥ q·n.

    The same convention as `repro.core.quantiles.approximate_quantile` at
    unit weights, so a full-weight (strategy ``none``) run reproduces the
    ground truth exactly.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    index = max(0, math.ceil(q * len(ordered)) - 1)
    return ordered[min(index, len(ordered) - 1)]


def exact_panes(
    stream: Iterable[Tuple[float, object]],
    query: StreamQuery,
    window: WindowConfig,
) -> Dict[float, Tuple[float, Dict[Hashable, float], int]]:
    """Ground truth per pane end: (exact value, exact per-group, item count).

    Uses slide-sized batches so pane boundaries align with every system's
    firing times.  Pure measurement — charges no virtual time.
    """
    batcher = Batcher(window.slide)
    windower = SlidingWindower(window.length, window.slide, window.slide)
    truth: Dict[float, Tuple[float, Dict[Hashable, float], int]] = {}
    for pane in windower.panes(batcher.batches(stream)):
        items = pane.items
        values = [query.value_fn(x) for x in items]
        total = math.fsum(values)
        if query.kind == "sum":
            exact = total
        elif query.kind == "quantile":
            exact = _exact_quantile(values, query.q)
        else:
            exact = total / len(values) if values else 0.0
        exact_groups: Dict[Hashable, float] = {}
        if query.group_fn is not None:
            sums: Dict[Hashable, float] = {}
            counts: Dict[Hashable, int] = {}
            for item, value in zip(items, values):
                g = query.group_fn(item)
                sums[g] = sums.get(g, 0.0) + value
                counts[g] = counts.get(g, 0) + 1
            if query.kind == "sum":
                exact_groups = sums
            else:
                exact_groups = {g: sums[g] / counts[g] for g in sums}
        truth[round(pane.end, 6)] = (exact, exact_groups, len(items))
    return truth


def join_ground_truth(
    results: List[WindowResult],
    truth: Dict[float, Tuple[float, Dict[Hashable, float], int]],
) -> List[WindowResult]:
    """Attach per-pane ground truth to a driver's raw results.

    Panes without a matching truth entry (e.g. an end-of-stream flush pane)
    are dropped, keeping every system's report comparable.
    """
    matched: List[WindowResult] = []
    for result in results:
        key = round(result.end, 6)
        if key in truth:
            exact, exact_groups, count = truth[key]
            matched.append(
                WindowResult(
                    end=result.end,
                    estimate=result.estimate,
                    exact=exact,
                    error=result.error,
                    groups=result.groups,
                    exact_groups=exact_groups,
                    sampled_items=result.sampled_items,
                    total_items=count,
                    recovery=result.recovery,
                )
            )
    return matched
