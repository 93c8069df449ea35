"""Service load benchmark: N tenants × M queries through `QueryService`.

Unlike the figure benchmarks (simulated throughput on the cost model),
this one measures the serving layer itself with real wall clocks: four
tenants submit eight queries each — mixed means, grouped sums, and p90
quantiles over a shared stream plus per-tenant synthetic workloads — at a
paced submission rate, and we record per-query **time-to-first-pane**
(submission → first streamed pane) and **time-to-answer** (submission →
final `QueryAnswer`), reporting p50/p99 of each.

Asserted claims:

* the run completes — every admitted query finishes with an answer;
* **zero cross-tenant budget leakage** — after the storm, every tenant's
  ledger satisfies ``sampled <= observed * budget`` (the ratio-accounting
  invariant), and the half-budget tenant's achieved ratio stays at or
  below its budget (settle-up swaps each admitted estimate for the
  smaller measured actual, so refunds land every ratio under its cap);
* **observability under load** — ``metrics_snapshot()`` (the payload
  behind the wire ``metrics`` op) reports the storm faithfully:
  service counters reconcile with the outcome, and every tenant's
  latency histograms saw its completed queries;
* **determinism under load** — each admitted query's answer is bitwise
  identical to running its plan standalone through `execute_plan`;
* (env-gated) ``REPRO_SERVICE_MAX_P99_MS`` bounds the p99 time-to-answer
  in milliseconds — unset by default, since absolute latency is a
  property of the machine; CI's service-smoke job arms it at 150: this
  storm's ``time_to_answer_ms.p99`` reads 22 ms on the 2-vCPU reference
  box (``BENCH_service.json``), and ≈7× that is the room a throttled
  shared runner gets — armed near the measured value, not 100× above it.

Every run writes ``benchmarks/results/BENCH_service.json`` — the serving
companion to ``BENCH_fig4a.json``/``BENCH_fig6a.json`` perf artifacts.
"""

import asyncio
import json
import os
from math import ceil

from repro.runtime import SystemConfig, execute_plan
from repro.service import QueryService, QuerySubmission, TenantScheduler
from repro.workloads.synthetic import stream_by_rates

from conftest import RESULTS_DIR

#: tenant -> budget fraction; dave is deliberately half-budgeted so the
#: storm exercises rejections alongside admissions.
TENANTS = {"alice": 1.0, "bravo": 1.0, "carol": 1.0, "dave": 0.5}
QUERIES_PER_TENANT = 8
#: Paced submission rate (per tenant round, submissions/s).
SUBMIT_RATE = 200.0
#: Global in-flight sample-cost capacity — sized so a handful of queries
#: run concurrently and the rest exercise the fair-share queue.
CAPACITY = 10_000.0

MAX_P99_MS = os.environ.get("REPRO_SERVICE_MAX_P99_MS")


def _percentile(values, p):
    """Nearest-rank percentile (the convention of the paper's §6 tables)."""
    ordered = sorted(values)
    return ordered[min(max(0, ceil(p / 100.0 * len(ordered)) - 1), len(ordered) - 1)]


def _submission(tenant, i):
    """The i-th query of a tenant: cycle mean / grouped-sum / quantile."""
    seed = 100 * (sorted(TENANTS).index(tenant) + 1) + i
    config = SystemConfig(sampling_fraction=0.3, seed=seed)
    if i % 3 == 2:
        return QuerySubmission(
            tenant_id=tenant, source="shared-ticks", config=config,
            kind="quantile", q=0.9, name=f"{tenant}-q{i}-p90",
        )
    if i % 3 == 1:
        return QuerySubmission(
            tenant_id=tenant,
            source={"workload": "gaussian", "rate": 150, "duration": 12,
                    "seed": 7 + i % 2},
            config=config, name=f"{tenant}-q{i}-workload",
        )
    return QuerySubmission(
        tenant_id=tenant, source="shared-ticks", config=config,
        kind="sum" if i % 2 else "mean", name=f"{tenant}-q{i}",
    )


async def _storm():
    service = QueryService(
        scheduler=TenantScheduler(capacity=CAPACITY), max_workers=4
    )
    for tenant, budget in TENANTS.items():
        service.register_tenant(tenant, budget)
    service.hub.register(
        "shared-ticks",
        stream_by_rates({"A": 500, "B": 120, "C": 30}, duration=12, seed=9),
    )
    handles, rejections = [], []
    try:
        for i in range(QUERIES_PER_TENANT):
            for tenant in sorted(TENANTS):  # round-robin, paced
                try:
                    handles.append(await service.submit(_submission(tenant, i)))
                except Exception as exc:  # AdmissionRejected
                    rejections.append((tenant, str(exc)))
                await asyncio.sleep(1.0 / SUBMIT_RATE)
        answers = await asyncio.gather(*(h.result() for h in handles))
        return handles, answers, rejections, service.metrics_snapshot(), \
            service.hub.materializations
    finally:
        await service.close()


def test_service_load_p50_p99():
    handles, answers, rejections, metrics, materializations = asyncio.run(_storm())
    snapshot = metrics["tenants"]

    total = QUERIES_PER_TENANT * len(TENANTS)
    assert len(answers) + len(rejections) == total
    assert len(answers) == len(handles)  # every admitted query answered
    # Only the half-budget tenant is ever rejected, and roughly half the time.
    assert all(t == "dave" for t, _ in rejections)
    assert rejections, "dave's 0.5 budget should reject some submissions"

    # -- zero cross-tenant budget leakage ---------------------------------
    for tenant, ledger in snapshot.items():
        assert ledger["sampled"] <= ledger["observed"] * ledger["budget"] + 1e-6, (
            f"tenant {tenant} leaked budget: {ledger}"
        )
        assert ledger["active_cost"] == 0.0  # everything released
        # Settle-up traded every admitted estimate for its measured actual
        # (refunds, on this workload: actual <= estimate).
        assert ledger["settles"] == ledger["admitted"]
        assert ledger["settled"] <= 0.0
    assert 0 < snapshot["dave"]["ratio"] <= 0.5 + 1e-9
    for tenant in ("alice", "bravo", "carol"):
        assert 0 < snapshot[tenant]["ratio"] <= 1.0 + 1e-9

    # -- the metrics snapshot reports the storm faithfully -----------------
    service_stats = metrics["service"]
    assert service_stats["submitted"] == total
    assert service_stats["admitted"] == len(answers)
    assert service_stats["rejected"] == len(rejections)
    assert service_stats["completed"] == len(answers)
    assert service_stats["failed"] == 0
    assert service_stats["in_flight"] == 0 and service_stats["queue_depth"] == 0
    assert service_stats["time_to_answer"]["count"] == len(answers)
    for tenant in TENANTS:
        per_tenant = snapshot[tenant]
        assert per_tenant["time_to_answer"]["count"] == per_tenant["admitted"]
        assert per_tenant["time_to_first_pane"]["count"] == per_tenant["admitted"]

    # -- shared sources ingested once -------------------------------------
    # shared-ticks + the two distinct gaussian workload specs.
    assert materializations == 3

    # -- determinism under load: bitwise equal to standalone runs ---------
    for handle, answer in zip(handles, answers):
        standalone, _cluster = execute_plan(handle.plan)
        assert answer.report.results == standalone, (
            f"query {handle.query_id} ({handle.plan.name}) diverged from "
            "its standalone execute_plan run"
        )

    # -- latency distribution ---------------------------------------------
    ttfp = [a.time_to_first_pane for a in answers if a.time_to_first_pane is not None]
    tta = [a.time_to_answer for a in answers]
    stats = {
        "completed": len(answers),
        "rejected": len(rejections),
        "time_to_first_pane_ms": {
            "p50": round(_percentile(ttfp, 50) * 1000, 3),
            "p99": round(_percentile(ttfp, 99) * 1000, 3),
        },
        "time_to_answer_ms": {
            "p50": round(_percentile(tta, 50) * 1000, 3),
            "p99": round(_percentile(tta, 99) * 1000, 3),
        },
    }
    print(
        f"\nservice load: {len(TENANTS)} tenants x {QUERIES_PER_TENANT} queries, "
        f"{len(answers)} completed / {len(rejections)} rejected\n"
        f"  time-to-first-pane  p50 {stats['time_to_first_pane_ms']['p50']:.1f} ms"
        f"   p99 {stats['time_to_first_pane_ms']['p99']:.1f} ms\n"
        f"  time-to-answer      p50 {stats['time_to_answer_ms']['p50']:.1f} ms"
        f"   p99 {stats['time_to_answer_ms']['p99']:.1f} ms"
    )

    RESULTS_DIR.mkdir(exist_ok=True)
    payload = {
        "benchmark": "service_load",
        "workload": {
            "tenants": TENANTS,
            "queries_per_tenant": QUERIES_PER_TENANT,
            "submit_rate_per_s": SUBMIT_RATE,
            "capacity": CAPACITY,
        },
        "machine": {"cpu_count": os.cpu_count()},
        "gates": {
            "max_p99_ms": float(MAX_P99_MS) if MAX_P99_MS is not None else None
        },
        "latency": stats,
        "tenants": snapshot,
    }
    (RESULTS_DIR / "BENCH_service.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    # Absolute latency is machine-dependent; the gate arms only where CI
    # knows the hardware.
    if MAX_P99_MS is not None:
        assert stats["time_to_answer_ms"]["p99"] <= float(MAX_P99_MS), (
            f"p99 time-to-answer {stats['time_to_answer_ms']['p99']:.1f} ms "
            f"exceeds gate {MAX_P99_MS} ms"
        )
