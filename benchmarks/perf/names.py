"""The benchmark's fixed vocabulary: workloads and metric names.

Later perf and simplicity PRs cite workloads and metrics by these names, so
they are written once here; ``BENCHMARK.json`` at the repo root lists the
same names (``test_perf_smoke.py`` checks the two agree).

Every invocation reports every metric of its mode — ``--trace 0`` all of
`END_TO_END`, ``--trace 1`` all of `PER_LAYER` — on every workload.  A
per-layer metric of a layer the workload never enters reads 0.
"""

from __future__ import annotations

from math import ceil
from typing import Dict, List, Sequence, Tuple

#: A run's timed part is this many equal rounds; throughput is the median
#: over rounds, so one scheduler hiccup (about one round in twenty reads 20%
#: low on the reference box) cannot move it.
ROUNDS = 5

#: name -> why the workload exists (one line each, ≤200 chars).
WORKLOADS: Dict[str, str] = {
    "direct-hot": (
        "direct/oasrs mean over the 1.2M-item skewed 3-strata stream with columns "
        "already built: the sampler kernel does the work, so an offer gain shows here"
    ),
    "direct-cold": (
        "same plan, but every pass gets a fresh RecordBatch with columns unbuilt: "
        "column build is ~90% of the pass, so an ingest gain shows here and an offer gain must not"
    ),
    "many-strata": (
        "direct/oasrs mean over 400 equal-rate strata: per-stratum Python dispatch "
        "dominates, so a fuse-across-strata kernel wins here and may cost on direct-hot"
    ),
    "merge-path": (
        "alternating p90-quantile and grouped-sum queries: panes re-merge kept samples, "
        "so merge+estimate do the work and an offer gain predicts no change"
    ),
    "engines": (
        "pipelined then batched engine with a checkpoint every pane: guard-rail for the "
        "one-pane-loop refactor, which must hold this flat"
    ),
    "svc-storm": (
        "python -m repro serve subprocess, closed loop, 2 tenant connections, small shared "
        "stream: the only workload where service.* and plan build are a visible share"
    ),
}

#: (name, unit, better, bound) — what a user of the system sees.  A bound is
#: the share of the parent's median a metric may worsen before a PR is
#: rejected, and it has to sit above the run-to-run spread of one checkout.
#: On the reference box the vCPU itself changes speed every 3–10 s, so
#: single runs of any timing spread 5–13% (interquartile, README.md "Noise
#: floor") even with the timed passes spread over the whole run; the timing
#: bounds are therefore the contract's widest.  Medians of five to ten runs
#: agree within 10%, mostly within 5%.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("items_per_s", "items/s", "higher", 0.25),
    ("tta_ms_p50", "ms", "lower", 0.25),
    ("ttfp_ms_p50", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("setup_s", "s", "lower", 0.25),
]

#: (name, unit, better) — single-layer numbers from the traced run.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("workloads.generate_s", "s", "lower"),
    ("workloads.items", "count", "higher"),
    ("core.records.build_columns_s", "s", "lower"),
    ("core.records.build_ns_per_item", "ns", "lower"),
    ("core.records.columns_s", "s", "lower"),
    ("core.records.project_s", "s", "lower"),
    ("core.records.bytes_columns", "bytes", "lower"),
    ("runtime.plan.build_plan_us", "us", "lower"),
    ("runtime.strategies.bind_us", "us", "lower"),
    ("runtime.driver.execute_s", "s", "lower"),
    ("runtime.driver.self_s", "s", "lower"),
    ("runtime.driver.panes", "count", "higher"),
    ("runtime.driver.stage_coverage", "share", "higher"),
    ("core.oasrs.process_chunk_s", "s", "lower"),
    ("core.oasrs.process_chunk_calls", "count", "lower"),
    ("core.oasrs.close_interval_s", "s", "lower"),
    ("core.oasrs.items_in", "count", "higher"),
    ("core.oasrs.items_kept", "count", "higher"),
    ("core.oasrs.strata", "count", "higher"),
    ("core.oasrs.ns_per_item", "ns", "lower"),
    ("core.reservoir.offer_many_s", "s", "lower"),
    ("core.reservoir.offer_many_calls", "count", "lower"),
    ("core.reservoir.kept_share", "share", "higher"),
    ("core.strata.combine_s", "s", "lower"),
    ("runtime.report.estimate_s", "s", "lower"),
    ("runtime.report.estimate_calls", "count", "lower"),
    ("core.error.estimate_error_s", "s", "lower"),
    ("core.quantiles.bound_s", "s", "lower"),
    ("runtime.checkpoint.save_s", "s", "lower"),
    ("runtime.checkpoint.saves", "count", "lower"),
    ("runtime.checkpoint.bytes", "bytes", "lower"),
    ("engine.pipelined.run_s", "s", "lower"),
    ("engine.pipelined.items_per_s", "items/s", "higher"),
    ("engine.batched.run_s", "s", "lower"),
    ("engine.batched.items_per_s", "items/s", "higher"),
    ("core.distributed.intervals", "count", "higher"),
    ("core.distributed.items_shipped", "count", "lower"),
    ("core.distributed.fallbacks", "count", "lower"),
    ("service.protocol.decode_us", "us", "lower"),
    ("service.protocol.encode_us", "us", "lower"),
    ("service.protocol.bytes_out_per_query", "bytes", "lower"),
    ("service.protocol.lines_out_per_query", "count", "lower"),
    ("service.hub.resolve_us", "us", "lower"),
    ("service.hub.materializations", "count", "lower"),
    ("service.scheduler.admit_us", "us", "lower"),
    ("service.scheduler.acquire_wait_us", "us", "lower"),
    ("service.scheduler.settle_us", "us", "lower"),
    ("service.scheduler.rejected", "count", "lower"),
    ("service.service.submit_us", "us", "lower"),
    ("service.service.run_us", "us", "lower"),
    ("service.service.hop_us", "us", "lower"),
    ("service.service.inproc_tta_us", "us", "lower"),
    ("service.service.wire_us", "us", "lower"),
    ("service.service.queries_per_s", "1/s", "higher"),
    ("service.service.tta_ms_p90", "ms", "lower"),
    ("service.service.tta_ms_p99", "ms", "lower"),
    ("svc.client_cpu_share", "share", "lower"),
    ("runtime.report.accuracy_loss_pct", "%", "lower"),
    ("core.error.ci_coverage", "share", "higher"),
    ("obs.trace_overhead_pct", "%", "lower"),
    ("obs.span_coverage", "share", "higher"),
]


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (the convention of the repo's §6 tables)."""
    ordered = sorted(values)
    return ordered[min(max(0, ceil(p / 100.0 * len(ordered)) - 1), len(ordered) - 1)]


def manifest(run_seconds: int) -> dict:
    """The ``BENCHMARK.json`` document these names define."""
    return {
        "command": ["python3", "benchmarks/perf/run.py"],
        "paths": ["benchmarks/perf"],
        "run_seconds": run_seconds,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
