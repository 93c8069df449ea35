"""The observability layer: metrics, tracing, pane timing, and neutrality.

Three layers of coverage:

* unit behaviour of the instruments (`Counter`/`Gauge`/`Histogram`), the
  registry get-or-create semantics, and the `Tracer` span algebra
  (nesting, retroactive attachment, exports);
* the disabled twins (`NULL_METRICS`, `NULL_TRACER`, `NULL_PANE_TIMER`)
  — shared no-op singletons, so the telemetry-off hot path allocates
  nothing;
* end-to-end properties on real runs: span *structure* is deterministic
  (two identical runs produce identical trees — no clock fields
  asserted), the driver's stage table covers every pane, budget
  re-targets surface as trace events, and the sharded executor's
  worker-pool counters reconcile with the driver's item counters.
"""

import json

import pytest

from repro import StreamQuery, SystemConfig, WindowConfig
from repro.core.budget import AccuracyBudget
from repro.obs import (
    DEFAULT_BUCKETS,
    Histogram,
    MetricsRegistry,
    NULL_METRICS,
    NULL_PANE_TIMER,
    NULL_TRACER,
    RunTelemetry,
    TelemetryConfig,
    Tracer,
    run_telemetry,
    write_chrome_trace,
)
from repro.runtime import (
    CheckpointPolicy,
    CheckpointStore,
    ListSource,
    PlanError,
    build_plan,
    execute_plan,
)
from repro.system.native import NativeStreamApproxSystem
from repro.workloads.synthetic import stream_by_rates

WINDOW = WindowConfig(length=10.0, slide=5.0)
QUERY = StreamQuery(key_fn=lambda it: it[0], value_fn=lambda it: it[1])


def _stream(seed=11):
    return stream_by_rates({"A": 400, "B": 100, "C": 10}, duration=12, seed=seed)


# ---------------------------------------------------------------------------
# metrics instruments


def test_counter_and_gauge_basics():
    registry = MetricsRegistry()
    counter = registry.counter("items")
    counter.inc()
    counter.inc(4)
    assert counter.value == 5.0
    gauge = registry.gauge("depth")
    gauge.set(7)
    gauge.inc()
    gauge.dec(3)
    assert gauge.value == 5.0


def test_registry_get_or_create_returns_same_instrument():
    registry = MetricsRegistry()
    assert registry.counter("x") is registry.counter("x")
    with pytest.raises(TypeError, match="already registered"):
        registry.gauge("x")


def test_histogram_buckets_and_percentiles():
    h = Histogram("lat", bounds=(0.01, 0.1, 1.0))
    for value in (0.005, 0.02, 0.02, 0.5, 5.0):
        h.observe(value)
    assert h.count == 5
    assert h.max == 5.0
    assert h.mean == pytest.approx(sum((0.005, 0.02, 0.02, 0.5, 5.0)) / 5)
    # Nearest-rank estimates land on bucket upper edges...
    assert h.percentile(50) == 0.1
    # ...and the overflow bucket reports the observed max.
    assert h.percentile(99) == 5.0
    summary = h.summary()
    assert summary["count"] == 5 and summary["p99"] == 5.0


def test_histogram_empty_summary_is_zeroes():
    h = Histogram("lat")
    assert h.percentile(99) == 0.0
    assert h.summary()["count"] == 0
    assert tuple(h.bounds) == DEFAULT_BUCKETS


def test_registry_snapshot_is_name_sorted():
    registry = MetricsRegistry()
    registry.counter("zeta").inc()
    registry.counter("alpha").inc(2)
    registry.gauge("mid").set(1.5)
    registry.histogram("lat").observe(0.02)
    snap = registry.snapshot()
    assert list(snap["counters"]) == ["alpha", "zeta"]
    assert snap["counters"]["alpha"] == 2.0
    assert snap["gauges"]["mid"] == 1.5
    assert snap["histograms"]["lat"]["count"] == 1


def test_null_registry_is_shared_noop():
    assert NULL_METRICS.enabled is False
    counter = NULL_METRICS.counter("anything")
    assert counter is NULL_METRICS.counter("something-else")
    counter.inc(10)
    assert counter.value == 0.0
    NULL_METRICS.histogram("h").observe(1.0)
    assert NULL_METRICS.snapshot() == {
        "counters": {}, "gauges": {}, "histograms": {},
    }


# ---------------------------------------------------------------------------
# tracer


def _fake_clock(start=0.0, step=1.0):
    state = {"now": start - step}

    def clock():
        state["now"] += step
        return state["now"]

    return clock


def test_tracer_nesting_and_structure():
    tracer = Tracer(clock=_fake_clock())
    tracer.begin("run", system="s")
    with tracer.span("interval", index=1):
        tracer.event("mark")
    tracer.end()
    assert tracer.structure() == [{
        "name": "run",
        "attrs": {"system": "s"},
        "children": [{
            "name": "interval",
            "attrs": {"index": 1},
            "children": [{"name": "mark"}],
        }],
    }]


def test_tracer_add_span_attaches_retroactively():
    tracer = Tracer(clock=_fake_clock())
    tracer.begin("run")
    interval = tracer.add_span("interval", 1.0, 5.0, {"index": 1})
    tracer.add_span("ingest", 1.0, 2.0, parent=interval)
    tracer.close()
    (run,) = tracer.roots
    assert [c.name for c in run.children] == ["interval"]
    assert [c.name for c in run.children[0].children] == ["ingest"]
    assert run.children[0].duration == pytest.approx(4.0)


def test_tracer_close_ends_open_spans():
    tracer = Tracer(clock=_fake_clock())
    tracer.begin("run")
    tracer.begin("interval")
    tracer.close()
    for span, _depth in tracer.spans():
        assert span.end is not None


def test_jsonl_export_shape():
    tracer = Tracer(clock=_fake_clock())
    with tracer.span("run", system="x"):
        with tracer.span("interval"):
            pass
    lines = [json.loads(line) for line in tracer.jsonl_lines()]
    assert [(l["name"], l["depth"]) for l in lines] == [("run", 0), ("interval", 1)]
    assert lines[0]["start_us"] == 0.0
    assert lines[0]["attrs"] == {"system": "x"}


def test_chrome_trace_export(tmp_path):
    tracer = Tracer(clock=_fake_clock())
    with tracer.span("run"):
        tracer.event("mark")
    path = tmp_path / "trace.json"
    write_chrome_trace(path, [("sys-a", tracer)])
    with open(path) as fh:
        doc = json.load(fh)
    events = doc["traceEvents"]
    meta = [e for e in events if e["ph"] == "M"]
    assert meta[0]["args"]["name"] == "sys-a"
    spans = {e["name"]: e for e in events if e["ph"] != "M"}
    assert spans["run"]["ph"] == "X" and spans["run"]["dur"] > 0
    assert spans["mark"]["ph"] == "i"


def test_null_tracer_is_inert():
    assert NULL_TRACER.enabled is False
    span = NULL_TRACER.begin("x", a=1)
    with NULL_TRACER.span("y"):
        pass
    assert NULL_TRACER.add_span("z", 0, 1) is span
    assert NULL_TRACER.structure() == []
    assert list(NULL_TRACER.jsonl_lines()) == []


# ---------------------------------------------------------------------------
# telemetry bundle and pane timer


def test_telemetry_config_flags_pick_implementations():
    both = RunTelemetry(TelemetryConfig())
    assert both.tracer.enabled and both.metrics.enabled
    no_trace = RunTelemetry(TelemetryConfig(tracing=False))
    assert no_trace.tracer is NULL_TRACER and no_trace.metrics.enabled
    no_metrics = RunTelemetry(TelemetryConfig(metrics=False))
    assert no_metrics.metrics is NULL_METRICS and no_metrics.tracer.enabled


def test_telemetry_config_rejects_non_bools():
    with pytest.raises(TypeError, match="bools"):
        TelemetryConfig(tracing="yes")


def test_run_telemetry_resolution():
    assert run_telemetry(None) is None
    live = RunTelemetry()
    assert run_telemetry(live) is live
    built = run_telemetry(TelemetryConfig(metrics=False))
    assert isinstance(built, RunTelemetry) and built.metrics is NULL_METRICS


def test_system_config_validates_telemetry():
    SystemConfig(telemetry=TelemetryConfig())
    SystemConfig(telemetry=RunTelemetry())
    with pytest.raises(ValueError, match="telemetry"):
        SystemConfig(telemetry=True)


def test_pane_timer_builds_stage_rows_and_interval_spans():
    telemetry = RunTelemetry(TelemetryConfig())
    telemetry.tracer._clock = _fake_clock()
    timer = telemetry.pane_timer()
    telemetry.tracer.begin("run")
    timer.open()
    timer.lap("ingest")
    timer.lap("offer")
    timer.lap("offer")  # same-stage laps accumulate
    timer.close(1, end=5.0)
    telemetry.tracer.close()
    (row,) = telemetry.pane_stages
    assert row["index"] == 1 and row["end"] == 5.0
    assert set(row["stages"]) == {"ingest", "offer"}
    (run,) = telemetry.tracer.roots
    (interval,) = run.children
    assert interval.name == "interval" and interval.attrs["index"] == 1
    assert [c.name for c in interval.children] == ["ingest", "offer", "offer"]
    assert telemetry.stage_seconds()["offer"] == row["stages"]["offer"]


def test_null_pane_timer_is_inert():
    NULL_PANE_TIMER.open()
    NULL_PANE_TIMER.lap("ingest")
    NULL_PANE_TIMER.close(1, end=5.0)  # no state, no error


# ---------------------------------------------------------------------------
# end-to-end: deterministic span trees, stage coverage, attribution


def _run(config=None):
    config = config or SystemConfig(telemetry=TelemetryConfig())
    return NativeStreamApproxSystem(QUERY, WINDOW, config).run(_stream())


def test_span_structure_is_deterministic_across_runs():
    first = _run().telemetry
    second = _run().telemetry
    assert first.tracer.structure() == second.tracer.structure()
    assert [row["stages"].keys() for row in first.pane_stages] == [
        row["stages"].keys() for row in second.pane_stages
    ]
    assert first.metrics.snapshot()["counters"] == (
        second.metrics.snapshot()["counters"]
    )


def test_stage_table_covers_every_pane():
    report = _run()
    telemetry = report.telemetry
    assert len(telemetry.pane_stages) == len(report.results)
    for row, pane in zip(telemetry.pane_stages, report.results):
        assert row["end"] == pane.end
        assert set(row["stages"]) >= {"ingest", "estimate"}
    # Draining the source and building (here: projecting) its columns is the
    # run's first stage: the first pane's row carries it, no other does.
    assert [i for i, row in enumerate(telemetry.pane_stages) if "columns" in row["stages"]] == [0]
    run = telemetry.tracer.roots[0]
    assert run.children[0].children[0].name == "columns"
    summary = telemetry.summary()
    assert summary["panes"] == len(report.results)
    assert summary["metrics"]["counters"]["items.observed"] == report.items_total


def test_refused_run_leaves_a_closed_span_tree():
    # The run span opens before the source is drained; a plan refused after
    # that (here: a checkpoint from another engine) must still close it.
    store, collector = CheckpointStore(), RunTelemetry()
    source = ListSource(_stream())
    checkpointed = SystemConfig(checkpoint=CheckpointPolicy(every=1))

    def plan(engine, config):
        return build_plan(QUERY, WINDOW, config, engine=engine, strategy="oasrs", source=source)

    execute_plan(plan("direct", checkpointed), checkpoint_store=store)
    with pytest.raises(PlanError):
        execute_plan(
            plan("pipelined", SystemConfig(telemetry=collector)), resume_from=store.latest()
        )
    (run,) = collector.tracer.roots
    assert run.name == "run" and run.end is not None
    collector.tracer.begin("next")
    assert [root.name for root in collector.tracer.roots] == ["run", "next"]


def test_telemetry_off_report_carries_none():
    report = NativeStreamApproxSystem(QUERY, WINDOW, SystemConfig()).run(_stream())
    assert report.telemetry is None


def test_budget_retargets_surface_as_trace_events():
    config = SystemConfig(
        telemetry=TelemetryConfig(), budget=AccuracyBudget(target_margin=0.5)
    )
    report = _run(config)
    telemetry = report.telemetry
    events = [
        span for span, _depth in telemetry.tracer.spans()
        if span.name == "budget.retarget"
    ]
    assert len(events) == len(report.adaptation)
    for event, point in zip(events, report.adaptation):
        assert event.attrs["sample_budget"] == point.sample_budget
        assert event.attrs["interval_end"] == point.interval_end
    counters = telemetry.metrics.snapshot()["counters"]
    assert counters["budget.retargets"] == len(report.adaptation)


def test_sharded_run_reconciles_worker_counters():
    config = SystemConfig(telemetry=TelemetryConfig(), parallelism=3)
    report = _run(config)
    counters = report.telemetry.metrics.snapshot()["counters"]
    # The shards saw every item exactly once; they run in the run's own
    # process, so no pool or transport instrument exists.
    assert counters["items.observed"] == report.items_total
    assert counters["panes"] == len(report.results)
    assert not [name for name in counters if name.startswith(("pool.", "transport."))]
    stages = report.telemetry.stage_seconds()
    assert "offer" in stages and "transport" not in stages


def test_run_telemetry_instance_can_be_shared_by_caller():
    # The CLI holds the collector directly to merge traces across systems.
    collector = RunTelemetry()
    config = SystemConfig(telemetry=collector)
    report = NativeStreamApproxSystem(QUERY, WINDOW, config).run(_stream())
    assert report.telemetry is collector
    assert collector.pane_stages
