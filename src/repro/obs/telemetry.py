"""The per-run telemetry bundle and the drivers' lap-style stage timer.

`TelemetryConfig` is the frozen, declarative knob that rides on
``SystemConfig(telemetry=…)`` — it says *whether* to trace and/or meter,
nothing else, so configs stay picklable and comparable.  When a driver
sees it, it builds a live `RunTelemetry` (one `Tracer` + one
`MetricsRegistry` + the per-pane stage table) and threads it through
``run_info`` to `SystemReport.telemetry`.  Passing a `RunTelemetry`
instance instead of a config lets callers hold the collector directly
(the CLI does this to merge traces across systems).

`PaneTimer` is how the drivers time stages without littering the run
loop with conditionals: ``open()`` at the top of an interval, ``lap(
"ingest")`` after each stage, ``close(index, …)`` at the bottom.  The
laps become one ``interval`` span with per-stage children plus a row in
``RunTelemetry.pane_stages``.  The disabled twin `NULL_PANE_TIMER` makes
every method a no-op, so a telemetry-off run pays a handful of no-op
calls per *interval* — intervals number in the dozens while items number
in the millions, which is what makes "free when off" hold on fig6a.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional, Union

from .metrics import MetricsRegistry, NULL_METRICS
from .trace import NULL_TRACER, Tracer

__all__ = [
    "TelemetryConfig",
    "RunTelemetry",
    "PaneTimer",
    "NULL_PANE_TIMER",
    "run_telemetry",
]


@dataclass(frozen=True)
class TelemetryConfig:
    """Declarative telemetry switch for `SystemConfig`.

    ``tracing`` builds span trees (JSON-lines / chrome://tracing export);
    ``metrics`` builds the counter/gauge/histogram registry.  Both default
    on — the config's presence is the opt-in.
    """

    tracing: bool = True
    metrics: bool = True

    def __post_init__(self) -> None:
        if not isinstance(self.tracing, bool) or not isinstance(self.metrics, bool):
            raise TypeError("TelemetryConfig fields must be bools")


class RunTelemetry:
    """Live telemetry for one run: tracer + metrics + per-pane stage table."""

    def __init__(self, config: Optional[TelemetryConfig] = None) -> None:
        self.config = config or TelemetryConfig()
        self.tracer = Tracer() if self.config.tracing else NULL_TRACER
        self.metrics = MetricsRegistry() if self.config.metrics else NULL_METRICS
        #: One row per closed pane: ``{"index": i, "end": t, "stages": {...}}``.
        self.pane_stages: List[Dict[str, object]] = []

    def pane_timer(self) -> "PaneTimer":
        return PaneTimer(self)

    def stage_seconds(self) -> Dict[str, float]:
        """Total seconds per stage, summed across panes (stable key order)."""
        totals: Dict[str, float] = {}
        for row in self.pane_stages:
            for stage, seconds in row["stages"].items():
                totals[stage] = totals.get(stage, 0.0) + seconds
        return totals

    def summary(self) -> Dict[str, object]:
        """JSON-able rollup for reports, benchmarks, and the CLI."""
        return {
            "stage_seconds": {
                k: round(v, 6) for k, v in self.stage_seconds().items()
            },
            "panes": len(self.pane_stages),
            "spans": sum(1 for _ in self.tracer.spans()),
            "metrics": self.metrics.snapshot(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"RunTelemetry(panes={len(self.pane_stages)}, "
            f"tracing={self.tracer.enabled}, metrics={self.metrics.enabled})"
        )


class PaneTimer:
    """Lap clock for one interval: open → lap per stage → close.

    `close` emits the ``interval`` span (with one child span per lap) under
    whatever span is currently open on the tracer — the drivers keep their
    ``run`` span open for the whole loop, so intervals nest correctly —
    and appends the stage row to ``RunTelemetry.pane_stages``.
    """

    __slots__ = ("_telemetry", "_laps", "_t0", "_last")

    def __init__(self, telemetry: RunTelemetry) -> None:
        self._telemetry = telemetry
        self._laps: List[tuple] = []
        self._t0 = 0.0
        self._last = 0.0

    def open(self) -> None:
        self._t0 = self._last = perf_counter()
        self._laps = []

    def lap(self, stage: str) -> None:
        now = perf_counter()
        self._laps.append((stage, self._last, now))
        self._last = now

    def close(self, index: int, end: Optional[float] = None, **attrs) -> None:
        now = perf_counter()
        stages: Dict[str, float] = {}
        for stage, t0, t1 in self._laps:
            stages[stage] = stages.get(stage, 0.0) + (t1 - t0)
        row: Dict[str, object] = {"index": index, "stages": stages}
        if end is not None:
            row["end"] = end
        self._telemetry.pane_stages.append(row)

        tracer = self._telemetry.tracer
        if tracer.enabled:
            span_attrs: Dict[str, object] = {"index": index}
            if end is not None:
                span_attrs["end"] = end
            span_attrs.update(attrs)
            interval = tracer.add_span("interval", self._t0, now, span_attrs)
            for stage, t0, t1 in self._laps:
                tracer.add_span(stage, t0, t1, parent=interval)


class _NullPaneTimer:
    """Disabled timer: the telemetry-off fast path inside the run loops."""

    __slots__ = ()

    def open(self) -> None:
        pass

    def lap(self, stage: str) -> None:
        pass

    def close(self, index: int, end: Optional[float] = None, **attrs) -> None:
        pass


NULL_PANE_TIMER = _NullPaneTimer()


def run_telemetry(
    telemetry: Union[None, TelemetryConfig, RunTelemetry],
) -> Optional[RunTelemetry]:
    """Resolve ``SystemConfig.telemetry`` into a live collector (or None)."""
    if telemetry is None:
        return None
    if isinstance(telemetry, RunTelemetry):
        return telemetry
    return RunTelemetry(telemetry)
