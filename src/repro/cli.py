"""Command-line interface for quick experiments.

Run single comparisons without writing a script::

    python -m repro compare --workload gaussian --fraction 0.6
    python -m repro compare --workload netflow --systems spark-streamapprox spark-sts
    python -m repro sweep --workload taxi --metric accuracy_loss
    python -m repro systems

Subcommands:

* ``systems`` — list the available systems (the paper's six plus the
  chunked/sharded ``native-streamapprox`` executor),
* ``compare`` — run chosen systems once at one sampling fraction and print
  throughput / accuracy / latency plus an ASCII bar chart,
* ``sweep`` — sweep the sampling fraction and print the resulting figure
  table and an ASCII line chart.

``--chunk-size K`` makes the pipelined systems charge virtual seconds in
runs of K items (every system accepts it; no sample changes) and
``--parallelism N`` shards interval sampling over N real processes.  Combinations the
planner cannot support (e.g. ``--parallelism`` with ``spark-srs``, whose
sampling needs the whole batch) exit with a clear error instead of being
silently ignored.  ``--via-broker`` replays the workload through the
in-memory Kafka-style aggregator first and feeds every system from a
consumer group over the topic's partitions.

Instead of a fixed ``--fraction``, a *query budget* turns on the paper's
§4.2 adaptive loop — the sample size then re-derives every interval from
the observed statistics (at most one of):

* ``--target-margin M`` — accuracy budget: hold the CI half-width ≤ M,
* ``--latency-budget S`` — token-cost latency budget: fit each interval
  into S seconds,
* ``--cores-budget N``  — resource budget: stay within N cores.

Budget runs print the per-interval adaptation trajectory (sample budget
chosen vs. margin measured).  The ``drift`` workload (a rate swap between
sub-streams mid-run) is the natural stress test:
``python -m repro compare --workload drift --target-margin 0.5``.

Fault tolerance is exposed the same way: ``--checkpoint-every K`` snapshots
each sampled system's sampler/controller state every K panes,
``compare --resume`` then resumes every system from its latest checkpoint
and verifies the remaining panes match the uninterrupted run, and
``--kill-shard W@I[:FRAC]`` (repeatable, needs ``--parallelism >= 2``)
injects a worker loss into the sharded sampling path — the run recovers by
discard-and-rewiden and reports the per-pane recovery events::

    python -m repro compare --systems native-streamapprox \
        --parallelism 4 --kill-shard 1@2 --checkpoint-every 1 --resume

The CLI is a thin veneer over the same public API the benchmarks use; it
exists so a fresh checkout can produce paper-shaped numbers in one line.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List

from .aggregator.broker import Broker
from .aggregator.producer import Producer
from .core.budget import AccuracyBudget, LatencyBudget, ResourceBudget
from .core.recovery import FaultSchedule, ShardKill
from .metrics.adaptation import format_trajectory
from .metrics.ascii_chart import bar_chart, line_chart
from .metrics.collector import ExperimentCollector
from .obs import TelemetryConfig, write_chrome_trace
from .runtime import CheckpointPolicy, PlanError, TopicSource
from .system import (
    ALL_SYSTEMS,
    NativeStreamApproxSystem,
    StreamQuery,
    SystemConfig,
    WindowConfig,
)
from .workloads.drift import drifting_stream, rate_swap_schedule
from .workloads.netflow import flow_bytes, flow_protocol, netflow_stream
from .workloads.synthetic import stream_by_rates
from .workloads.taxi import ride_borough, ride_distance, taxi_stream

__all__ = ["main", "build_parser", "make_workload"]

# The paper's six plus this repo's chunked/sharded native executor.
_CLI_SYSTEMS = {**ALL_SYSTEMS, NativeStreamApproxSystem.name: NativeStreamApproxSystem}
_DEFAULT_SYSTEMS = list(ALL_SYSTEMS)
# Systems that process everything — the sampling fraction does not apply.
_UNSAMPLED = {"native-spark", "native-flink"}


def make_workload(name: str, rate: float, duration: float, seed: int):
    """Return (stream, query) for a named workload."""
    if name == "gaussian":
        stream = stream_by_rates(
            {"A": rate * 0.8, "B": rate * 0.19, "C": rate * 0.01},
            duration=duration,
            seed=seed,
        )
        query = StreamQuery(
            key_fn=lambda it: it[0], value_fn=lambda it: it[1], kind="mean",
            name="window-mean",
        )
    elif name == "drift":
        # Rate swap halfway through the run: A dominates, then C does — the
        # §1 adaptivity scenario, and the stress test for budget-driven runs.
        # All three sub-streams scale with --rate (same 80/19/1 shares as the
        # gaussian workload), so the aggregate rate and the dominance swap
        # hold at any --rate.
        stream = drifting_stream(
            rate_swap_schedule(
                high=rate * 0.8, low=rate * 0.01,
                phase_seconds=duration / 2, mid=rate * 0.19,
            ),
            seed=seed,
        )
        query = StreamQuery(
            key_fn=lambda it: it[0], value_fn=lambda it: it[1], kind="mean",
            name="drift-mean",
        )
    elif name == "netflow":
        stream = netflow_stream(total_rate=rate, duration=duration, seed=seed)
        query = StreamQuery(
            key_fn=flow_protocol, value_fn=flow_bytes, kind="sum",
            group_fn=flow_protocol, name="traffic-per-protocol",
        )
    elif name == "taxi":
        stream = taxi_stream(total_rate=rate, duration=duration, seed=seed)
        query = StreamQuery(
            key_fn=ride_borough, value_fn=ride_distance, kind="mean",
            group_fn=ride_borough, name="distance-per-borough",
        )
    else:
        raise ValueError(f"unknown workload {name!r}")
    return stream, query


def _broker_with_stream(stream, query, partitions: int) -> Broker:
    """Replay an in-memory stream into a fresh aggregator topic.

    Records are keyed by the query's stratum key, so each sub-stream stays
    ordered within its partition — the Figure 1 ingestion shape.
    """
    broker: Broker = Broker()
    broker.create_topic("cli-input", num_partitions=partitions)
    producer: Producer = Producer(broker, "cli-input")
    key_fn = query.key_fn
    for timestamp, item in stream:
        producer.send(timestamp, item, key=key_fn(item))
    return broker


def _budget_from_args(args):
    """Build the query budget from the (mutually exclusive) budget flags."""
    chosen = [
        flag
        for flag, value in (
            ("--target-margin", args.target_margin),
            ("--latency-budget", args.latency_budget),
            ("--cores-budget", args.cores_budget),
        )
        if value is not None
    ]
    if len(chosen) > 1:
        raise PlanError(
            f"at most one query budget may be given, got {' and '.join(chosen)}"
        )
    if args.target_margin is not None:
        return AccuracyBudget(target_margin=args.target_margin)
    if args.latency_budget is not None:
        return LatencyBudget(max_seconds=args.latency_budget)
    if args.cores_budget is not None:
        return ResourceBudget(workers=args.cores_budget)
    return None


def _parse_kill_shard(spec: str) -> ShardKill:
    """Parse one ``--kill-shard W@I[:FRACTION]`` spec into a `ShardKill`."""
    try:
        worker_part, _, rest = spec.partition("@")
        if not rest:
            raise ValueError("missing '@'")
        interval_part, _, fraction_part = rest.partition(":")
        return ShardKill(
            worker=int(worker_part),
            interval=int(interval_part),
            after_fraction=float(fraction_part) if fraction_part else 0.5,
        )
    except ValueError as exc:
        raise PlanError(
            f"bad --kill-shard spec {spec!r} (expected WORKER@INTERVAL or "
            f"WORKER@INTERVAL:FRACTION, e.g. 1@2:0.5): {exc}"
        ) from None


def _run_systems(
    names: List[str],
    stream,
    query,
    fraction: float,
    window: WindowConfig,
    chunk_size: int = 0,
    parallelism: int = 1,
    broker=None,
    broker_members: int = 2,
    budget=None,
    checkpoint=None,
    faults=None,
    telemetry=None,
):
    """Run each named system once; returns (reports, system instances).

    The instances give ``compare --resume`` access to each run's collected
    checkpoints, and `StreamSystem.run` re-reads rewindable sources, so the
    same instance can replay for resume verification.
    """
    reports: Dict[str, object] = {}
    systems: Dict[str, object] = {}
    sources: Dict[str, object] = {}
    for name in names:
        cls = _CLI_SYSTEMS[name]
        config = SystemConfig(
            sampling_fraction=fraction if name not in _UNSAMPLED else 1.0,
            # Unsampled systems have no sample size to adapt and no sampler
            # state worth snapshotting or killing; they run as the exact
            # baselines alongside the budget/checkpoint/fault-driven ones.
            budget=budget if name not in _UNSAMPLED else None,
            checkpoint=checkpoint if name not in _UNSAMPLED else None,
            faults=faults if name not in _UNSAMPLED else None,
            chunk_size=chunk_size,
            parallelism=parallelism,
            telemetry=telemetry,
        )
        if broker is not None:
            # rewind (the default) re-reads the whole topic per run, so one
            # group per system is safe across sweep fractions.
            source = TopicSource(
                broker, "cli-input", group_id=f"cli-{name}", members=broker_members
            )
        else:
            source = stream
        system = cls(query, window, config)
        reports[name] = system.run(source)
        systems[name] = system
        sources[name] = source
    return reports, systems, sources


def _write_trace(path: str, named) -> None:
    """Write merged system traces: Chrome format, or JSON-lines for .jsonl."""
    if path.endswith(".jsonl"):
        import json

        with open(path, "w") as fh:
            for name, tracer in named:
                for line in tracer.jsonl_lines():
                    record = {"system": name}
                    record.update(json.loads(line))
                    fh.write(json.dumps(record, sort_keys=True) + "\n")
        return
    write_chrome_trace(path, named)


def cmd_systems(_args) -> int:
    print("available systems (engine/strategy):")
    for name, cls in _CLI_SYSTEMS.items():
        doc = (cls.__doc__ or "").strip().splitlines()[0]
        print(f"  {name:22s} [{cls.engine}/{cls.strategy}] {doc}")
    return 0


def cmd_compare(args) -> int:
    stream, query = make_workload(args.workload, args.rate, args.duration, args.seed)
    window = WindowConfig(args.window, args.slide)
    broker = (
        _broker_with_stream(stream, query, args.broker_partitions)
        if args.via_broker
        else None
    )
    try:
        budget = _budget_from_args(args)
        checkpoint = (
            CheckpointPolicy(every=args.checkpoint_every)
            if args.checkpoint_every is not None
            else None
        )
        if args.resume and checkpoint is None:
            raise PlanError("--resume needs --checkpoint-every to collect "
                            "checkpoints to resume from")
        faults = (
            FaultSchedule(kills=tuple(_parse_kill_shard(s) for s in args.kill_shard))
            if args.kill_shard
            else None
        )
        telemetry = (
            TelemetryConfig()
            if (args.trace_out or args.show_timings)
            else None
        )
        reports, systems, sources = _run_systems(
            args.systems, stream, query, args.fraction, window,
            chunk_size=args.chunk_size, parallelism=args.parallelism,
            broker=broker, broker_members=args.broker_members, budget=budget,
            checkpoint=checkpoint, faults=faults, telemetry=telemetry,
        )
    except PlanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    knob = (
        f"budget={budget}" if budget is not None else f"fraction={args.fraction}"
    )
    print(f"workload={args.workload} items={len(stream):,} {knob}\n")
    print(f"{'system':>22} {'items/s':>12} {'loss':>9} {'latency(s)':>11}")
    for name, report in reports.items():
        print(
            f"{name:>22} {report.throughput:12,.0f} "
            f"{report.mean_accuracy_loss():9.3%} {report.latency:11.3f}"
        )
    print()
    print(bar_chart(
        {name: r.throughput for name, r in reports.items()},
        title="throughput (items per simulated second)",
    ))
    if budget is not None:
        target = getattr(budget, "target_margin", None)
        for name, report in reports.items():
            if not report.adaptation:
                continue
            print(f"\nadaptation trajectory — {name}")
            print(format_trajectory(report, target))
    if faults is not None:
        print("\nworker-loss recovery (discard-and-rewiden):")
        for name, report in reports.items():
            events = report.recovery_events
            if not events:
                print(f"  {name:>22}: no recovery events")
                continue
            for ev in events:
                print(
                    f"  {name:>22}: interval {ev.interval} worker {ev.worker} "
                    f"lost {ev.items_lost} rerouted {ev.items_rerouted}"
                    f"{' (permanent)' if ev.permanent else ''}"
                )
            print(f"  {name:>22}: total items lost {report.items_lost}")
    if args.show_timings:
        print("\nper-stage timings (seconds summed over panes):")
        for name, report in reports.items():
            tel = report.telemetry
            if tel is None or not tel.pane_stages:
                continue
            stages = tel.stage_seconds()
            print()
            print(bar_chart(
                {stage: round(seconds, 6) for stage, seconds in stages.items()},
                title=f"{name} ({len(tel.pane_stages)} panes)",
            ))
        trajectory_series = {
            name: [(p.interval_end, float(p.sample_budget))
                   for p in report.adaptation]
            for name, report in reports.items()
            if report.adaptation
        }
        if trajectory_series:
            print()
            print(line_chart(
                trajectory_series,
                title="adaptive sample budget per interval",
            ))
    if args.trace_out:
        named = [
            (name, report.telemetry.tracer)
            for name, report in reports.items()
            if report.telemetry is not None
        ]
        _write_trace(args.trace_out, named)
        print(f"\nwrote trace of {len(named)} system runs to {args.trace_out}"
              + ("" if args.trace_out.endswith(".jsonl")
                 else " (load in chrome://tracing or ui.perfetto.dev)"))
    if args.resume:
        print("\nresume-from-checkpoint verification:")
        failures = 0
        for name, system in systems.items():
            store = system.checkpoints
            if store is None or len(store) == 0:
                print(f"  {name:>22}: no checkpoints collected")
                continue
            checkpoint_at = store.latest()
            try:
                resumed = system.run(sources[name], resume_from=checkpoint_at)
            except PlanError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            base_panes = [
                (r.end, r.estimate, r.sampled_items) for r in reports[name].results
            ]
            resumed_panes = [
                (r.end, r.estimate, r.sampled_items) for r in resumed.results
            ]
            match = resumed_panes == base_panes
            failures += 0 if match else 1
            print(
                f"  {name:>22}: resumed from pane {checkpoint_at.pane_index} "
                f"(t={checkpoint_at.pane_end:g}) — panes "
                f"{'match' if match else 'DIVERGED'}"
            )
        if failures:
            return 1
    return 0


def cmd_sweep(args) -> int:
    stream, query = make_workload(args.workload, args.rate, args.duration, args.seed)
    window = WindowConfig(args.window, args.slide)
    broker = (
        _broker_with_stream(stream, query, args.broker_partitions)
        if args.via_broker
        else None
    )
    collector = ExperimentCollector(f"sweep_{args.workload}")
    try:
        if _budget_from_args(args) is not None:
            raise PlanError(
                "sweep varies the sampling fraction; budget flags only apply "
                "to 'compare'"
            )
        faults = (
            FaultSchedule(kills=tuple(_parse_kill_shard(s) for s in args.kill_shard))
            if args.kill_shard
            else None
        )
        for fraction in args.fractions:
            sampled = [name for name in args.systems if name not in _UNSAMPLED]
            reports, _systems, _sources = _run_systems(
                sampled, stream, query, fraction, window,
                chunk_size=args.chunk_size, parallelism=args.parallelism,
                broker=broker, broker_members=args.broker_members,
                faults=faults,
            )
            for report in reports.values():
                collector.record(fraction, report)
    except PlanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(collector.table(args.metric))
    series = {
        system: collector.series(system, args.metric)
        for system in collector.systems()
    }
    print()
    print(line_chart(series, title=f"{args.metric} vs sampling fraction"))
    return 0


def cmd_serve(args) -> int:
    """Run the multi-tenant query service on a TCP endpoint until ^C."""
    import asyncio

    from .service import QueryService, TenantScheduler

    tenants = []
    for spec in args.tenant or ["default"]:
        name, _, budget = spec.partition(":")
        if not name:
            print(f"invalid --tenant {spec!r}: expected NAME[:BUDGET]",
                  file=sys.stderr)
            return 2
        try:
            tenants.append((name, float(budget) if budget else 1.0))
        except ValueError:
            print(f"invalid --tenant budget in {spec!r}", file=sys.stderr)
            return 2

    async def run() -> None:
        service = QueryService(
            scheduler=TenantScheduler(capacity=args.capacity),
            max_workers=args.workers,
        )
        for name, budget in tenants:
            service.register_tenant(name, budget)
        host, port = await service.serve_tcp(args.host, args.port)
        print(f"serving on {host}:{port} "
              f"(tenants: {', '.join(f'{n}:{b:g}' for n, b in tenants)}; "
              f"capacity {args.capacity:g}); newline-JSON protocol, "
              "Ctrl-C to stop", flush=True)
        try:
            await service.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await service.close()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("shutting down")
    return 0


def cmd_metrics(args) -> int:
    """Fetch and render a running service's metrics over the wire."""
    import json
    import socket

    try:
        with socket.create_connection(
            (args.host, args.port), timeout=args.timeout
        ) as sock:
            sock.sendall(b'{"op":"metrics"}\n')
            buf = b""
            while not buf.endswith(b"\n"):
                data = sock.recv(65536)
                if not data:
                    break
                buf += data
    except OSError as exc:
        print(f"error: cannot reach service at {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 2
    try:
        reply = json.loads(buf.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"error: malformed metrics reply: {exc}", file=sys.stderr)
        return 2
    if reply.get("type") != "metrics":
        print(f"error: unexpected reply {reply.get('type')!r}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(reply, indent=2, sort_keys=True))
        return 0
    service = reply["service"]
    print(f"service @ {args.host}:{args.port}")
    print(f"  submitted={service['submitted']:g} admitted={service['admitted']:g} "
          f"rejected={service['rejected']:g} completed={service['completed']:g} "
          f"failed={service['failed']:g}")
    print(f"  in_flight={service['in_flight']} queue_depth={service['queue_depth']} "
          f"active_cost={service['active_cost']:g} / capacity {service['capacity']:g}")
    tta = service.get("time_to_answer") or {}
    if tta.get("count"):
        print(f"  time_to_answer: p50={tta['p50']:g}s p99={tta['p99']:g}s "
              f"max={tta['max']:.3f}s over {tta['count']:g} queries")
    tenants = reply.get("tenants", {})
    if tenants:
        print(f"\n{'tenant':>16} {'budget':>7} {'ratio':>7} {'admit':>6} "
              f"{'reject':>6} {'queue':>6} {'settled':>10} {'tta p99':>8}")
        for tenant_id in sorted(tenants):
            t = tenants[tenant_id]
            t_tta = t.get("time_to_answer") or {}
            p99 = f"{t_tta['p99']:g}s" if t_tta.get("count") else "-"
            print(f"{tenant_id:>16} {t['budget']:7g} {t['ratio']:7.3f} "
                  f"{t['admitted']:6g} {t['rejected']:6g} {t['queue_depth']:6g} "
                  f"{t['settled']:10.1f} {p99:>8}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="StreamApprox reproduction experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("systems", help="list available systems").set_defaults(
        func=cmd_systems
    )

    def add_common(p):
        p.add_argument("--workload", choices=("gaussian", "drift", "netflow", "taxi"),
                       default="gaussian")
        p.add_argument("--rate", type=float, default=20_000,
                       help="aggregate arrival rate, items/s")
        p.add_argument("--duration", type=float, default=12, help="stream seconds")
        p.add_argument("--window", type=float, default=10.0)
        p.add_argument("--slide", type=float, default=5.0)
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--systems", nargs="+", choices=list(_CLI_SYSTEMS),
                       default=_DEFAULT_SYSTEMS)
        p.add_argument("--chunk-size", type=int, default=0, dest="chunk_size",
                       help="the pipelined engine's virtual-cost charging "
                            "run (0 = item by item); changes no sample")
        p.add_argument("--parallelism", type=int, default=1,
                       help="real worker processes for interval sampling "
                            "(OASRS-based systems; others reject it)")
        p.add_argument("--via-broker", action="store_true", dest="via_broker",
                       help="replay the workload through the in-memory "
                            "aggregator and feed systems from a consumer group")
        p.add_argument("--broker-partitions", type=int, default=4,
                       dest="broker_partitions",
                       help="topic partitions when --via-broker is set")
        p.add_argument("--broker-members", type=int, default=2,
                       dest="broker_members",
                       help="consumer-group members when --via-broker is set")
        p.add_argument("--target-margin", type=float, default=None,
                       dest="target_margin", metavar="M",
                       help="accuracy budget: adapt the sample size per "
                            "interval until the CI half-width stays ≤ M "
                            "(replaces --fraction)")
        p.add_argument("--latency-budget", type=float, default=None,
                       dest="latency_budget", metavar="S",
                       help="latency budget: per-interval sample size from "
                            "the token cost model for S seconds/interval")
        p.add_argument("--cores-budget", type=int, default=None,
                       dest="cores_budget", metavar="N",
                       help="resource budget: per-interval sample size from "
                            "an N-core allotment")
        p.add_argument("--checkpoint-every", type=int, default=None,
                       dest="checkpoint_every", metavar="K",
                       help="snapshot sampler/controller state every K panes "
                            "(fault-tolerance service; sampled systems only)")
        p.add_argument("--kill-shard", action="append", default=[],
                       dest="kill_shard", metavar="W@I[:FRAC]",
                       help="inject a worker loss: kill shard worker W during "
                            "interval I after FRAC of its items (default 0.5); "
                            "repeatable; needs --parallelism >= 2")

    compare = sub.add_parser("compare", help="run systems at one fraction")
    add_common(compare)
    compare.add_argument("--fraction", type=float, default=0.6)
    compare.add_argument("--resume", action="store_true",
                         help="after the run, resume each system from its "
                              "latest checkpoint and verify the remaining "
                              "panes match (needs --checkpoint-every)")
    compare.add_argument("--trace-out", default=None, dest="trace_out",
                         metavar="PATH",
                         help="run with telemetry and write the merged span "
                              "trace: chrome://tracing JSON (default) or "
                              "JSON-lines when PATH ends in .jsonl")
    compare.add_argument("--show-timings", action="store_true",
                         dest="show_timings",
                         help="run with telemetry and print per-stage timings "
                              "plus the adaptation trajectory chart")
    compare.set_defaults(func=cmd_compare)

    sweep = sub.add_parser("sweep", help="sweep the sampling fraction")
    add_common(sweep)
    sweep.add_argument("--fractions", nargs="+", type=float,
                       default=[0.1, 0.2, 0.4, 0.6, 0.8])
    sweep.add_argument("--metric", choices=("throughput", "accuracy_loss", "latency"),
                       default="throughput")
    sweep.set_defaults(func=cmd_sweep)

    serve = sub.add_parser(
        "serve",
        help="run the multi-tenant approximate-query service (TCP, "
             "newline-JSON)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7071)
    serve.add_argument("--tenant", action="append", metavar="NAME[:BUDGET]",
                       default=None,
                       help="register a tenant with a sample-budget fraction "
                            "in (0, 1] (default 1.0); repeatable; defaults to "
                            "a single 'default:1.0' tenant")
    serve.add_argument("--capacity", type=float, default=1_000_000.0,
                       help="global in-flight sample-cost capacity shared "
                            "fair-share across tenants")
    serve.add_argument("--workers", type=int, default=4,
                       help="query-execution worker threads")
    serve.set_defaults(func=cmd_serve)

    metrics = sub.add_parser(
        "metrics",
        help="fetch a running service's admission/latency metrics over TCP",
    )
    metrics.add_argument("--host", default="127.0.0.1")
    metrics.add_argument("--port", type=int, default=7071)
    metrics.add_argument("--timeout", type=float, default=5.0,
                         help="connection timeout in seconds")
    metrics.add_argument("--json", action="store_true",
                         help="print the raw JSON reply instead of the table")
    metrics.set_defaults(func=cmd_metrics)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
