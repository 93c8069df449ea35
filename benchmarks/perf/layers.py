"""Which entry points the traced run wraps, and how spans become metrics.

Layer = module name.  Only public callables are wrapped — class methods on
the class, module functions in the namespace their caller reads them from —
so nothing under ``src/`` is edited and a refactor that keeps the public
surface keeps its spans.  What a layer does *between* those boundaries is
its parent's self time: on the direct engine's mean path the per-interval
moment pooling lives inside ``runtime/driver.py`` and therefore counts as
``runtime.driver.self_s``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from spans import Span, Tracer, layer_rows


def install(tracer: Tracer) -> None:
    """Patch the wrappers in; `Tracer.unpatch` takes them out again."""
    import repro.core.quantiles as quantiles
    import repro.runtime.driver as driver
    import repro.runtime.report as report
    import repro.service.protocol as protocol
    import repro.service.service as service
    from repro.core.oasrs import OASRSSampler
    from repro.core.records import RecordBatch
    from repro.core.reservoir import Reservoir
    from repro.runtime.checkpoint import CheckpointStore
    from repro.runtime.strategies import OASRSStrategy
    from repro.service.hub import SourceHub
    from repro.service.scheduler import TenantScheduler

    def spanned(name, **options):
        return lambda fn: tracer.wrap(name, fn, **options)

    def spanned_async(name, **options):
        return lambda fn: tracer.wrap_async(name, fn, **options)

    patch = tracer.patch
    # core.records: any public column accessor may be the one that builds.
    for accessor in ("ts", "codes", "values", "key_table", "has_columns", "columnar_reason"):
        patch(RecordBatch, accessor, spanned("core.records.columns"))
    patch(RecordBatch, "project", spanned("core.records.project"))
    patch(OASRSStrategy, "bind", spanned("runtime.strategies.bind"))
    patch(OASRSSampler, "process_chunk", spanned(
        "core.oasrs.process_chunk",
        attrs_of=lambda _result, _sampler, items: {"items_in": len(items)},
    ))
    patch(OASRSSampler, "close_interval", spanned(
        "core.oasrs.close_interval",
        attrs_of=lambda sample, sampler: {
            "items_kept": sample.total_items, "strata": sampler.strata_seen,
        },
    ))
    patch(Reservoir, "offer_many",
          lambda fn: tracer.wrap_run("core.reservoir.offer_many", fn))
    patch(driver, "combine_worker_samples", spanned("core.strata.combine"))
    patch(driver, "estimate_pane_stats", spanned("runtime.report.estimate"))
    patch(driver, "estimate_pane", spanned("runtime.report.estimate"))
    patch(driver, "estimate_error", spanned("core.error.estimate_error"))
    patch(report, "estimate_error", spanned("core.error.estimate_error"))
    patch(quantiles, "approximate_quantile", spanned("core.quantiles.bound"))
    patch(quantiles, "quantile_bound", spanned("core.quantiles.bound"))
    patch(CheckpointStore, "save", spanned("runtime.checkpoint.save"))
    # The service: a query crosses a connection task, a scheduler task and
    # an executor thread, so these name their trace from what they are
    # handed (the client puts its query id in both ``id`` and ``name``).
    patch(protocol, "decode_line", spanned(
        "service.protocol.decode", trace_of_result=lambda message: message.get("id"),
    ))
    patch(protocol, "submission_from_message", spanned(
        "service.protocol.decode", trace_of=lambda message: message.get("id"),
    ))
    patch(protocol, "encode_line", spanned(
        "service.protocol.encode",
        trace_of=lambda payload: payload.get("id"),
        attrs_of=lambda line, _payload: {"bytes": len(line)},
    ))
    patch(SourceHub, "resolve", spanned("service.hub.resolve"))
    patch(service, "build_plan", spanned("runtime.plan.build_plan"))
    patch(TenantScheduler, "admit", spanned("service.scheduler.admit"))
    patch(TenantScheduler, "acquire", spanned_async("service.scheduler.acquire"))
    patch(TenantScheduler, "settle", spanned("service.scheduler.settle"))
    patch(service.QueryService, "submit", spanned_async(
        "service.service.submit", trace_of=lambda _service, sub: sub.name,
    ))
    patch(service, "execute_plan", spanned(
        "service.service.run", trace_of=lambda plan, **_kwargs: plan.name,
    ))


def _attr_sum(spans: Iterable[Span], name: str, key: str) -> float:
    return float(sum(s.attrs.get(key, 0) for s in spans if s.name == name and s.attrs))


def span_metrics(tracer: Tracer, root: str) -> Dict[str, float]:
    """The span-derived per-layer metrics, per operation (pass or query).

    ``*_s`` are seconds per pass, ``*_us`` microseconds per call, counts are
    per operation.  A name whose span never opened reads 0.
    """
    rows: List[dict] = layer_rows(tracer.spans, root)
    by_name = {row["name"]: row for row in rows}
    ops = by_name[root]["calls"] if root in by_name else 0
    scoped = [s for s in tracer.spans if s.trace in tracer.roots]

    def per_op(name: str, field: str = "busy") -> float:
        return by_name[name][field] / ops if name in by_name and ops else 0.0

    def per_call_us(name: str) -> float:
        row = by_name.get(name)
        return 1e6 * row["busy"] / row["calls"] if row and row["calls"] else 0.0

    items_in = _attr_sum(scoped, "core.oasrs.process_chunk", "items_in")
    offered = _attr_sum(scoped, "core.reservoir.offer_many", "n_in")
    accepted = _attr_sum(scoped, "core.reservoir.offer_many", "n_out")
    oasrs_busy = (
        by_name.get("core.oasrs.process_chunk", {}).get("busy", 0.0)
        + by_name.get("core.oasrs.close_interval", {}).get("busy", 0.0)
    )
    strata = [
        s.attrs["strata"] for s in scoped
        if s.name == "core.oasrs.close_interval" and s.attrs
    ]
    return {
        "core.records.columns_s": per_op("core.records.columns"),
        # The first projection of a stream does the work (later ones hit the
        # batch's cache), and it may run in a warm-up outside any root.
        "core.records.project_s": max(
            (s.busy for s in tracer.spans if s.name == "core.records.project"), default=0.0
        ),
        "runtime.plan.build_plan_us": per_call_us("runtime.plan.build_plan"),
        "runtime.strategies.bind_us": per_call_us("runtime.strategies.bind"),
        "runtime.driver.execute_s": per_op("runtime.driver.execute"),
        "runtime.driver.self_s": per_op("runtime.driver.execute", "self"),
        "core.oasrs.process_chunk_s": per_op("core.oasrs.process_chunk"),
        "core.oasrs.process_chunk_calls": per_op("core.oasrs.process_chunk", "calls"),
        "core.oasrs.close_interval_s": per_op("core.oasrs.close_interval"),
        "core.oasrs.items_in": items_in / ops if ops else 0.0,
        "core.oasrs.items_kept": (
            _attr_sum(scoped, "core.oasrs.close_interval", "items_kept") / ops if ops else 0.0
        ),
        "core.oasrs.strata": float(max(strata, default=0)),
        "core.oasrs.ns_per_item": 1e9 * oasrs_busy / items_in if items_in else 0.0,
        "core.reservoir.offer_many_s": per_op("core.reservoir.offer_many"),
        "core.reservoir.offer_many_calls": per_op("core.reservoir.offer_many", "calls"),
        "core.reservoir.kept_share": accepted / offered if offered else 0.0,
        "core.strata.combine_s": per_op("core.strata.combine"),
        "runtime.report.estimate_s": per_op("runtime.report.estimate"),
        "runtime.report.estimate_calls": per_op("runtime.report.estimate", "calls"),
        "core.error.estimate_error_s": per_op("core.error.estimate_error"),
        "core.quantiles.bound_s": per_op("core.quantiles.bound"),
        "runtime.checkpoint.save_s": per_op("runtime.checkpoint.save"),
        "runtime.checkpoint.saves": per_op("runtime.checkpoint.save", "calls"),
        "service.protocol.decode_us": 1e6 * per_op("service.protocol.decode"),
        "service.protocol.encode_us": 1e6 * per_op("service.protocol.encode"),
        "service.protocol.bytes_out_per_query": (
            _attr_sum(scoped, "service.protocol.encode", "bytes") / ops if ops else 0.0
        ),
        "service.protocol.lines_out_per_query": per_op("service.protocol.encode", "calls"),
        "service.hub.resolve_us": per_call_us("service.hub.resolve"),
        "service.scheduler.admit_us": per_call_us("service.scheduler.admit"),
        "service.scheduler.acquire_wait_us": per_call_us("service.scheduler.acquire"),
        "service.scheduler.settle_us": per_call_us("service.scheduler.settle"),
        "service.service.submit_us": per_call_us("service.service.submit"),
        "service.service.run_us": per_call_us("service.service.run"),
        "service.service.hop_us": 1e6 * per_op("svc.query", "self"),
        "service.service.inproc_tta_us": 1e6 * per_op("svc.query"),
        "obs.span_coverage": rows[0]["coverage"] if rows else 0.0,
    }
