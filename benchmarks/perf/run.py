"""One perf benchmark for the repo: six workloads, end to end and per layer.

    python3 benchmarks/perf/run.py --workload direct-hot --seed 7 --seconds 8 --trace 0
    python3 benchmarks/perf/run.py --workload svc-storm  --seed 7 --seconds 8 --trace 1
    python3 benchmarks/perf/run.py                       # every workload, both modes

``--trace 0`` measures the end-to-end metrics with no tracing installed;
``--trace 1`` is a separate, shorter run with the span wrappers of
``layers.py`` in place and yields the per-layer metrics, each layer's share
of the pass / query span, and the tracing overhead.  Inputs are generated
from ``--seed``; every output is checked against a reference computed in
set-up, and a failed check makes the command exit non-zero.

Every metric is printed by name with its unit and sample count; the last
line of standard output is one JSON object ``{"correct", "attempted",
"failed", "metrics"}`` holding the mode's metrics as named in
``BENCHMARK.json``.  The full record (environment, secondary figures) goes
to ``<--out>/<workload>.trace<0|1>.json``; the all-workloads command merges
them into ``<--out>/results.json``.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
sys.path.insert(0, str(HERE))

# One BLAS thread, set before NumPy loads (the server child inherits it).  The
# program's only BLAS call is a dot product over an interval's kept values;
# it wakes OpenBLAS's pool, whose idle worker then spin-waits on the second
# core — doubling CPU use and making identical runs differ by ±10%.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")

import names  # noqa: E402

#: Set-up is repeated and the median reported, so that one slow set-up does
#: not read as work moved into set-up.
SETUP_REPEATS = 3
#: The traced run times a quarter of the passes, untraced then traced.
TRACED_SHARE = 0.25

Metrics = Dict[str, Tuple[float, int]]


def _import_program() -> None:
    """Put the checkout's ``src/`` on the path; without it there is no run."""
    if not (REPO / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {REPO / 'src' / 'repro'} not found: nothing to benchmark",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(REPO / "src"))


def _peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


# -- batch workloads ----------------------------------------------------------


def run_batch(args) -> dict:
    import batch

    workload = batch.BATCH_WORKLOADS[args.workload]
    count = batch.pass_count(workload, args.seconds)
    if args.trace:
        return _run_batch_traced(args, batch, workload, count)
    # A third of the timed passes follows each set-up, so the passes sample
    # the whole run's wall rather than one stretch of it: the box's vCPU
    # changes speed by ~10% every 3-10 s (README, noise floor), and one
    # contiguous 5-8 s stretch mostly sits inside a single phase.
    setups: List[float] = []
    passes: list = []
    state = None
    for segment in _segments(count, len(workload.legs), SETUP_REPEATS):
        state = None
        gc.collect()
        started = perf_counter()
        state = batch.setup(workload, args.seed, args.scale)
        setups.append(perf_counter() - started)
        if args.corrupt_reference:
            batch.corrupt_reference(state)
        batch.settle_heap()  # the references, on top of set-up's own call
        passes += batch.timed_passes(state, segment, start=len(passes))
    metrics: Metrics = batch.end_to_end(state, passes)
    metrics["setup_s"] = (median(setups), len(setups))
    metrics["peak_rss_mb"] = (_peak_rss_mb(resource.RUSAGE_SELF), 1)
    secondary: Metrics = {
        "accuracy_loss_pct": (state.accuracy_loss_pct, state.reference_panes),
        "ci_coverage": (state.ci_coverage, state.reference_panes),
        "ci_coverage_floor": (state.coverage_floor, 1),
    }
    for leg in workload.legs:
        walls = [p.wall for p in passes if p.leg == leg.label]
        secondary[f"{leg.label}.items_per_s"] = (state.items / median(walls), len(walls))
    for key, value in state.timings.items():
        secondary[f"setup.{key}"] = (value, 1)
    return _result(
        args, metrics, secondary, units=_END_TO_END_UNITS,
        attempted=len(passes), failures=_failures(passes, state),
    )


def _segments(count: int, cycle: int, parts: int) -> List[int]:
    """``count`` passes as ``parts`` near-equal runs of whole leg cycles."""
    cycles = count // cycle
    return [cycle * (cycles // parts + (i < cycles % parts)) for i in range(parts)]


def _failures(passes, state) -> List[str]:
    failures = [f"pass {i} ({p.leg}): {p.failure}" for i, p in enumerate(passes) if p.failure]
    if state.ci_coverage < state.coverage_floor:
        failures.append(
            f"ci_coverage {state.ci_coverage:.3f} below the floor {state.coverage_floor:.3f}"
        )
    return failures


def _run_batch_traced(args, batch, workload, count) -> dict:
    import layers
    import spans

    cycle = len(workload.legs)
    count = max(2 * cycle, cycle * round(count * TRACED_SHARE / cycle))
    state = batch.setup(workload, args.seed, args.scale)
    if args.corrupt_reference:
        batch.corrupt_reference(state)
    batch.settle_heap()
    tracer = spans.Tracer()
    untraced, traced = [], []
    # Interleaved, one leg cycle at a time, so drift hits both sides alike.
    for start in range(0, count, cycle):
        untraced += batch.timed_passes(state, cycle, label="untraced", start=start)
        layers.install(tracer)
        try:
            traced += batch.timed_passes(state, cycle, tracer, start=start)
        finally:
            tracer.unpatch()
    metrics = _zero_layers()
    metrics.update(layers.span_metrics(tracer, "pass"))
    overhead = 100.0 * (
        median(p.wall for p in traced) / median(p.wall for p in untraced) - 1.0
    )
    metrics.update({
        "workloads.generate_s": state.timings["generate_s"],
        "workloads.items": float(state.items),
        "core.records.build_columns_s": state.timings["build_columns_s"],
        "core.records.build_ns_per_item": 1e9 * state.timings["build_columns_s"] / state.items,
        "core.records.bytes_columns": float(state.bytes_columns),
        "runtime.driver.panes": state.panes / cycle,
        "runtime.driver.stage_coverage": batch.stage_coverage(state),
        "runtime.checkpoint.bytes": float(max(p.checkpoint_bytes for p in traced)),
        "runtime.report.accuracy_loss_pct": state.accuracy_loss_pct,
        "core.error.ci_coverage": state.ci_coverage,
        "obs.trace_overhead_pct": overhead,
    })
    for engine in ("pipelined", "batched"):
        walls = [p.wall for p in traced if p.leg == engine]
        if walls:
            metrics[f"engine.{engine}.run_s"] = median(walls)
            metrics[f"engine.{engine}.items_per_s"] = state.items / median(walls)
    if workload.name == "direct-hot":
        metrics.update(batch.distributed_counts(state))
    _write_trace(args, tracer, spans, "pass")
    passes = untraced + traced
    return _result(
        args, {k: (v, len(traced)) for k, v in metrics.items()}, {},
        units=_PER_LAYER_UNITS, attempted=len(passes), failures=_failures(passes, state),
    )


# -- svc-storm ----------------------------------------------------------------


def run_svc(args) -> dict:
    import svc

    per_client = svc.per_client_count(args.seconds)
    if args.trace:
        return _run_svc_traced(args, svc, per_client)
    setups: List[float] = []
    state = None
    try:
        for _ in range(SETUP_REPEATS):
            if state is not None:
                state.server.stop()
            started = perf_counter()
            state = svc.setup(args.seed, args.scale)
            setups.append(perf_counter() - started)
        if args.corrupt_reference:
            svc.corrupt_reference(state)
        result = asyncio.run(
            svc.storm(state.server.port, per_client, state.seed, state.spec, state.refs)
        )
    finally:
        if state is not None:
            state.server.stop()
    metrics: Metrics = svc.end_to_end(state, result)
    metrics["setup_s"] = (median(setups), len(setups))
    # The program under test is the server: its peak, not the client's.
    metrics["peak_rss_mb"] = (_peak_rss_mb(resource.RUSAGE_CHILDREN), 1)
    secondary = _svc_secondary(result, svc)
    for key, value in state.timings.items():
        secondary[f"setup.{key}"] = (value, 1)
    return _result(
        args, metrics, secondary, units=_END_TO_END_UNITS,
        attempted=len(result.queries),
        failures=[f"query {i}: {q.failure}" for i, q in enumerate(result.queries) if q.failure],
    )


def _svc_secondary(result, svc) -> Metrics:
    """The tail, the rate and the generator's own cost, from a TCP storm."""
    ttas = [q.tta for q in result.queries]
    n = len(ttas)
    return {
        "queries_per_s": (median(svc.round_rates(result)), names.ROUNDS),
        "tta_ms_p90": (1e3 * names.percentile(ttas, 90), n),
        "tta_ms_p99": (1e3 * names.percentile(ttas, 99), n),
        "server_tta_ms_p50": (1e3 * median(q.server_tta for q in result.queries), n),
        "client_cpu_share": (result.client_cpu / result.wall, 1),
    }


def _run_svc_traced(args, svc, per_client) -> dict:
    import layers
    import spans

    per_client = max(2, 2 * round(per_client * TRACED_SHARE / 2))
    state = svc.setup(args.seed, args.scale)
    try:
        if args.corrupt_reference:
            svc.corrupt_reference(state)
        wire = asyncio.run(
            svc.storm(state.server.port, per_client, state.seed, state.spec, state.refs)
        )
    finally:
        state.server.stop()
    untraced, _snapshot, _mats = asyncio.run(
        svc.in_process_storm(per_client, state.seed, state.spec, state.refs)
    )
    tracer = spans.Tracer()
    layers.install(tracer)
    try:
        traced, snapshot, materializations = asyncio.run(
            svc.in_process_storm(per_client, state.seed, state.spec, state.refs, tracer)
        )
    finally:
        tracer.unpatch()
    metrics = _zero_layers()
    metrics.update(layers.span_metrics(tracer, "svc.query"))
    tail = _svc_secondary(wire, svc)
    metrics.update({
        "workloads.generate_s": state.timings["generate_s"],
        "workloads.items": float(state.items),
        "service.hub.materializations": float(materializations),
        "service.scheduler.rejected": float(snapshot["service"]["rejected"]),
        # What TCP + a second process add: the client's view of a query minus
        # the server's own submit→answer clock for the same queries.
        "service.service.wire_us": 1e3 * (
            1e3 * median(q.tta for q in wire.queries) - tail["server_tta_ms_p50"][0]
        ),
        "service.service.queries_per_s": tail["queries_per_s"][0],
        "service.service.tta_ms_p90": tail["tta_ms_p90"][0],
        "service.service.tta_ms_p99": tail["tta_ms_p99"][0],
        "svc.client_cpu_share": tail["client_cpu_share"][0],
        "obs.trace_overhead_pct": 100.0 * (
            median(q.tta for q in traced.queries) / median(q.tta for q in untraced.queries)
            - 1.0
        ),
    })
    _write_trace(args, tracer, spans, "svc.query")
    queries = wire.queries + untraced.queries + traced.queries
    return _result(
        args, {k: (v, len(traced.queries)) for k, v in metrics.items()}, {},
        units=_PER_LAYER_UNITS, attempted=len(queries),
        failures=[f"query {i}: {q.failure}" for i, q in enumerate(queries) if q.failure],
    )


# -- results ------------------------------------------------------------------

_END_TO_END_UNITS = {name: unit for name, unit, _better, _bound in names.END_TO_END}
_PER_LAYER_UNITS = {name: unit for name, unit, _better in names.PER_LAYER}


def _zero_layers() -> Dict[str, float]:
    """A layer the workload never enters reads 0."""
    return {name: 0.0 for name in _PER_LAYER_UNITS}


def _write_trace(args, tracer, spans, root: str) -> None:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    tracer.write_jsonl(out / f"{args.workload}.spans.jsonl")
    table = spans.format_table(
        f"{args.workload}: per-layer table (share of the {root} span)",
        spans.layer_rows(tracer.spans, root),
    )
    (out / f"{args.workload}.layers.txt").write_text(table + "\n")
    print(table)


def _git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "-C", str(REPO), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"  # the driver's checkout is not a git repository


def environment(args) -> dict:
    import numpy

    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
    }


def _result(args, metrics: Metrics, secondary: Metrics, units, attempted, failures) -> dict:
    """Print every metric by name and write the run's record."""
    for failure in failures[:10]:
        print(f"FAILED {failure}", file=sys.stderr)
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(args),
        "attempted": attempted,
        "failed": len(failures),
        "failed_share": len(failures) / attempted,
        "failures": failures[:50],
        "metrics": {
            name: {"value": value, "unit": units[name], "n": n}
            for name, (value, n) in metrics.items() if name in units
        },
        "secondary": {
            name: {"value": value, "n": n} for name, (value, n) in secondary.items()
        },
    }
    for name, entry in record["metrics"].items():
        print(f"{args.workload:<12} {name:<38} {entry['value']:>16.6g} {entry['unit']:<8} n={entry['n']}")
    for name, entry in record["secondary"].items():
        print(f"{args.workload:<12} ({name:<36}) {entry['value']:>16.6g}          n={entry['n']}")
    print(f"{args.workload:<12} failed_share {record['failed_share']:.6g} "
          f"({len(failures)} of {attempted} operations)")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{args.workload}.trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    return record


def summary_line(record: dict) -> str:
    """The contract's last line: exactly the mode's metrics, value and unit."""
    return json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": entry["value"], "unit": entry["unit"]}
            for name, entry in record["metrics"].items()
        },
    })


# -- every workload, each in its own child process -----------------------------


def run_all(args) -> int:
    """Untraced then traced, one child per workload (so peak RSS and heap
    state are per workload); merged into ``results.json``."""
    out = Path(args.out)
    merged = {"environment": None, "workloads": {}}
    status = 0
    for workload in names.WORKLOADS:
        for trace in (0, 1):
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--scale", str(args.scale), "--trace", str(trace), "--out", str(out),
            ]
            child = subprocess.run(command, check=False)
            status = status or child.returncode
            path = out / f"{workload}.trace{trace}.json"
            if child.returncode in (0, 1) and path.is_file():
                record = json.loads(path.read_text())
                environment_ = record.pop("environment")
                merged["environment"] = merged["environment"] or environment_
                merged["workloads"].setdefault(workload, {})[
                    "per_layer" if trace else "end_to_end"
                ] = record
    (out / "results.json").write_text(json.dumps(merged, indent=2) + "\n")
    print(f"wrote {out / 'results.json'}")
    return status


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *names.WORKLOADS])
    parser.add_argument("--seed", type=int, default=7,
                        help="generates every input; the same seed gives the same inputs")
    parser.add_argument("--seconds", type=float, default=8.0,
                        help="length of the timed part on the reference box; fixes the "
                             "pass / query counts")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="0: end-to-end metrics, nothing installed; "
                             "1: per-layer metrics from the span wrappers")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies stream rates (the smoke test uses 0.03)")
    parser.add_argument("--out", default=str(HERE / "out"),
                        help="directory for result records and span dumps")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="self-test: perturb one reference answer; the run must fail")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    _import_program()
    if args.workload == "all":
        return run_all(args)
    record = run_svc(args) if args.workload == "svc-storm" else run_batch(args)
    print(summary_line(record))
    return 0 if record["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
