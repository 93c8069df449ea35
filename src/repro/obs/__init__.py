"""Runtime observability: a metrics registry and a structured tracer.

The paper's evaluation is throughput/latency/accuracy curves computed
*after* a run; this package is the live counterpart — where does time go
while a run is in flight, and why did the control loops decide what they
decided.  Two primitives:

* `MetricsRegistry` — named counters, gauges, and fixed-bucket
  histograms.  Disabled registries hand out shared module-level no-op
  instruments, so instrumented code hoists one ``registry.counter(name)``
  lookup out of its loop and pays a single no-op method call per
  increment when telemetry is off.
* `Tracer` — nested spans (``run → interval → {ingest, offer, estimate,
  checkpoint}`` on the execution side, ``service → admission →
  execution → pane`` on the serving side) plus instant events, exported
  as JSON-lines or Chrome ``trace_event`` JSON for chrome://tracing.

`TelemetryConfig` is the declarative knob (``SystemConfig(telemetry=…)``);
`RunTelemetry` is the live per-run bundle the drivers fill in and surface
as ``SystemReport.telemetry``.  Neither primitive touches RNG state or
estimates — telemetry-on runs are bitwise identical to telemetry-off
runs (pinned by the golden suite).  See ``docs/observability.md``.
"""

from .metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_METRICS,
    NullMetricsRegistry,
)
from .telemetry import (
    NULL_PANE_TIMER,
    PaneTimer,
    RunTelemetry,
    TelemetryConfig,
    run_telemetry,
)
from .trace import NULL_TRACER, NullTracer, Span, Tracer, write_chrome_trace

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_METRICS",
    "NULL_PANE_TIMER",
    "NULL_TRACER",
    "NullMetricsRegistry",
    "NullTracer",
    "PaneTimer",
    "RunTelemetry",
    "Span",
    "TelemetryConfig",
    "Tracer",
    "run_telemetry",
    "write_chrome_trace",
]
