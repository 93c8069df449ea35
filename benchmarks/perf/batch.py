"""The five batch workloads: streams through ``build_plan`` / ``execute_plan``.

An *operation* is one pass of one plan over the workload's stream.  A
workload is a stream shape plus one or two *legs* (the plans it alternates
between); its passes cycle through a few sampler seeds whose results were
computed once in set-up, so every timed pass is checked bitwise against a
reference and every accuracy figure repeats exactly for a given ``--seed``.

Why these five: see ``names.WORKLOADS`` and README.md.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field, replace
from math import sqrt
from statistics import median
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.records import RecordBatch, item_key
from repro.runtime import (
    CheckpointPolicy,
    CheckpointStore,
    ListSource,
    StreamQuery,
    SystemConfig,
    TelemetryConfig,
    WindowConfig,
    build_plan,
    exact_panes,
    execute_plan,
    join_ground_truth,
)
from repro.workloads.synthetic import SubStreamSpec, make_stream, stream_by_rates

from names import ROUNDS
from spans import null_span

WINDOW = WindowConfig(length=10.0, slide=5.0)
FRACTION = 0.4
CHUNK = 4096
DURATION = 30


def s3_stream(seed: int, scale: float) -> RecordBatch:
    """"S3": three skewed Gaussian strata, 1.212 M items at scale 1."""
    rates = {"A": 32000 * scale, "B": 8000 * scale, "C": 400 * scale}
    return stream_by_rates(rates, duration=DURATION, seed=seed)


def many_strata_stream(seed: int, scale: float) -> RecordBatch:
    """400 equal-rate Gaussian strata, the same 1.212 M items at scale 1."""
    specs = [
        SubStreamSpec(f"s{i:03d}", "gaussian", mu=10.0 * (i + 1), sigma=1.0 + i % 7)
        for i in range(400)
    ]
    rates = {spec.source: 101.0 * scale for spec in specs}
    return make_stream(specs, rates, DURATION, seed=seed)


@dataclass(frozen=True)
class Leg:
    """One plan a workload runs: a query on an engine."""

    label: str
    query: StreamQuery
    engine: str = "direct"
    checkpoint: bool = False


MEAN = StreamQuery(kind="mean", name="mean")


@dataclass(frozen=True)
class BatchWorkload:
    name: str
    make_stream: Callable[[int, float], RecordBatch]
    legs: Tuple[Leg, ...]
    #: Timed passes per second of ``--seconds`` on the reference box: pass
    #: counts are a fixed function of ``--seconds``, identical on every
    #: commit, so counts and accuracy repeat exactly.
    passes_per_second: float
    #: Distinct sampler seeds per leg (= reference passes run in set-up).
    sampler_seeds: int
    #: Every pass gets a fresh `RecordBatch` whose columns are unbuilt.
    cold: bool = False


BATCH_WORKLOADS: Dict[str, BatchWorkload] = {
    w.name: w
    for w in (
        BatchWorkload("direct-hot", s3_stream, (Leg("mean", MEAN),), 9.0, 4),
        BatchWorkload("direct-cold", s3_stream, (Leg("mean", MEAN),), 1.0, 4, cold=True),
        BatchWorkload("many-strata", many_strata_stream, (Leg("mean", MEAN),), 1.0, 2),
        BatchWorkload(
            "merge-path",
            s3_stream,
            (
                Leg("p90", StreamQuery(kind="quantile", q=0.9, name="p90")),
                Leg("grouped-sum", StreamQuery(kind="sum", group_fn=item_key, name="grouped-sum")),
            ),
            2.0,
            1,
        ),
        BatchWorkload(
            "engines",
            s3_stream,
            (
                Leg("pipelined", MEAN, engine="pipelined", checkpoint=True),
                Leg("batched", MEAN, engine="batched", checkpoint=True),
            ),
            4.0,
            2,
        ),
    )
}


@dataclass
class Pass:
    """What one timed pass produced."""

    leg: str
    wall: float
    ttfp: float
    failure: Optional[str]
    checkpoint_bytes: int = 0
    telemetry: object = None


@dataclass
class BatchState:
    """Everything set-up hands to the timed part."""

    workload: BatchWorkload
    seed: int
    stream: RecordBatch
    source: ListSource
    items: int
    bytes_columns: int
    timings: Dict[str, float]
    #: leg label -> sampler-seed index -> reference pane results.
    refs: Dict[str, List[list]] = field(default_factory=dict)
    #: Panes one cycle through the legs produces.
    panes: int = 0
    #: Reference panes the accuracy figures are taken over.
    reference_panes: int = 0
    accuracy_loss_pct: float = 0.0
    ci_coverage: float = 0.0
    coverage_floor: float = 0.0


def coverage_floor(panes: int) -> float:
    """The lowest 95%-interval coverage accepted over ``panes`` panes.

    The check is "coverage ≥ 0.90", loosened by what sampling noise alone
    allows: a pane shares each slide interval with its neighbour, so about
    ``panes / 2`` are independent, and the floor sits four binomial standard
    deviations below 0.90.  Without the allowance a correct program would
    fail about one run in ten on the workloads with few reference panes.
    """
    return max(0.0, 0.90 - 4.0 * sqrt(0.05 * 0.95 / max(1.0, panes / 2.0)))


def run_pass(
    state: BatchState,
    leg: Leg,
    seed_index: int,
    tracer=None,
    trace: Optional[str] = None,
    telemetry: bool = False,
    check: bool = True,
    cold: bool = False,
    parallelism: int = 1,
) -> Tuple[Pass, list]:
    """One operation: build the leg's plan and execute it over the stream."""
    span = tracer.span if tracer is not None else null_span
    source = state.source
    if cold:
        # Fresh data: same events, columns unbuilt (what a CLI run, a broker
        # drain or a first query on a new source pays).  Made off the clock.
        source = ListSource(RecordBatch(list(state.stream)))
    config = SystemConfig(
        sampling_fraction=FRACTION,
        seed=state.seed + seed_index,
        chunk_size=CHUNK,
        parallelism=parallelism,
        checkpoint=CheckpointPolicy(every=1) if leg.checkpoint else None,
        telemetry=TelemetryConfig() if telemetry else None,
    )
    store = CheckpointStore() if leg.checkpoint else None
    info: dict = {}
    first_pane: List[float] = []

    def on_pane(_result) -> None:
        if not first_pane:
            first_pane.append(perf_counter())

    with span("pass", trace=trace, root=True, leg=leg.label):
        started = perf_counter()
        with span("runtime.plan.build_plan"):
            plan = build_plan(
                leg.query, WINDOW, config, engine=leg.engine, strategy="oasrs",
                source=source, name=leg.label,
            )
        with span("runtime.driver.execute"):
            results, _cluster = execute_plan(
                plan, checkpoint_store=store, run_info=info, on_pane=on_pane
            )
        finished = perf_counter()

    failure = None
    if info.get("columnar_fallback") or info.get("parallel_fallback"):
        failure = (
            f"fallback: columnar={info.get('columnar_fallback')!r} "
            f"parallel={info.get('parallel_fallback')!r}"
        )
    elif not first_pane:
        failure = "no pane was delivered"
    elif check:
        reference = state.refs[leg.label][seed_index]
        if len(results) != len(reference):
            failure = f"{len(results)} panes, reference has {len(reference)}"
        elif results != reference:
            failure = f"panes differ from the seed-{seed_index} reference"
    return (
        Pass(
            leg=leg.label,
            wall=finished - started,
            ttfp=(first_pane[0] - started) if first_pane else 0.0,
            failure=failure,
            # Pickling 2 MB per pass is only worth it when someone reads it.
            checkpoint_bytes=(
                len(store.latest().to_bytes()) if tracer is not None and store else 0
            ),
            telemetry=info.get("telemetry"),
        ),
        results,
    )


def setup(workload: BatchWorkload, seed: int, scale: float) -> BatchState:
    """Generate the stream, compute references and ground truth, warm up.

    The reference passes double as the untimed warm-up (at least two per
    workload).  References always run over the set-up batch with its
    columns built, so on ``direct-cold`` the check "timed pass == reference"
    is the hot-versus-cold bitwise comparison; the cold path's own code
    (the column build) is warmed by building the set-up batch's columns.
    """
    timings: Dict[str, float] = {}
    started = perf_counter()
    stream = workload.make_stream(seed, scale)
    timings["generate_s"] = perf_counter() - started
    started = perf_counter()
    codes = stream.codes  # first access on a fresh batch builds every column
    timings["build_columns_s"] = perf_counter() - started
    if codes is None:
        raise RuntimeError(f"stream has no item columns: {stream.columnar_reason}")
    settle_heap()
    state = BatchState(
        workload=workload, seed=seed, stream=stream, source=ListSource(stream),
        items=len(stream), timings=timings,
        bytes_columns=stream.ts.nbytes + stream.codes.nbytes + stream.values.nbytes,
    )
    losses: List[float] = []
    covered: List[bool] = []
    started = perf_counter()
    for leg in workload.legs:
        truth = exact_panes(stream, leg.query, WINDOW)
        state.refs[leg.label] = []
        for index in range(workload.sampler_seeds):
            done, results = run_pass(state, leg, index, check=False)
            if done.failure:
                raise RuntimeError(f"{workload.name} reference pass: {done.failure}")
            panes = join_ground_truth(results, truth)
            # The simulated engines do not flush the final partial interval.
            if len(panes) < len(truth) - 1:
                raise RuntimeError(
                    f"{workload.name}/{leg.label}: {len(panes)} panes for "
                    f"{len(truth)} slide boundaries"
                )
            state.refs[leg.label].append(results)
            for pane in panes:
                if pane.exact:
                    losses.append(abs(pane.estimate - pane.exact) / abs(pane.exact))
                covered.append(bool(pane.error.covers(pane.exact)))
        state.panes += len(state.refs[leg.label][0])
    timings["references_s"] = perf_counter() - started
    state.accuracy_loss_pct = 100.0 * sum(losses) / len(losses)
    state.ci_coverage = sum(covered) / len(covered)
    state.reference_panes = len(covered)
    state.coverage_floor = coverage_floor(len(covered))
    return state


def pass_count(workload: BatchWorkload, seconds: float) -> int:
    """Timed passes for ``--seconds``: whole rounds of whole leg cycles."""
    cycle = len(workload.legs)
    per_round = max(1, round(workload.passes_per_second * seconds / ROUNDS / cycle))
    return ROUNDS * per_round * cycle


def timed_passes(
    state: BatchState, count: int, tracer=None, label: str = "pass", start: int = 0
) -> List[Pass]:
    """Passes ``start .. start+count``, cycling legs fastest, sampler seeds slowest."""
    workload = state.workload
    legs = workload.legs
    passes: List[Pass] = []
    for i in range(start, start + count):
        leg = legs[i % len(legs)]
        seed_index = (i // len(legs)) % workload.sampler_seeds
        done, _ = run_pass(
            state, leg, seed_index, tracer=tracer, trace=f"{label}-{i}",
            cold=workload.cold,
        )
        passes.append(done)
    return passes


def corrupt_reference(state: BatchState) -> None:
    """Self-test hook: perturb one reference so the output check must fire."""
    reference = state.refs[state.workload.legs[0].label][0]
    reference[0] = replace(reference[0], estimate=reference[0].estimate + 1.0)


def end_to_end(state: BatchState, passes: List[Pass]) -> Dict[str, Tuple[float, int]]:
    """``items_per_s`` (median over rounds) and the latency medians."""
    per_round = len(passes) // ROUNDS
    rates = []
    for r in range(ROUNDS):
        chunk = passes[r * per_round : (r + 1) * per_round]
        rates.append(state.items * len(chunk) / sum(p.wall for p in chunk))
    # A two-leg workload's passes are two populations (a p90 pass is not a
    # grouped-sum pass); the median of their mix is whichever values happen
    # to sit at the seam.  So: the median of each leg, averaged over legs.
    labels = [leg.label for leg in state.workload.legs]

    def leg_median(field_of) -> float:
        return sum(
            median(field_of(p) for p in passes if p.leg == label) for label in labels
        ) / len(labels)

    return {
        "items_per_s": (median(rates), ROUNDS),
        "tta_ms_p50": (1e3 * leg_median(lambda p: p.wall), len(passes)),
        "ttfp_ms_p50": (1e3 * leg_median(lambda p: p.ttfp), len(passes)),
    }


def settle_heap() -> None:
    """Collect set-up garbage and park the survivors outside the collector.

    The stream is 2.4 M long-lived tuples; left in the young generations,
    every full collection during timing walks them (≈0.1 s, at unpredictable
    moments).  A resident service would do the same after loading a source.
    """
    gc.collect()
    gc.freeze()


# -- the traced run's two extra probes ----------------------------------------


def stage_coverage(state: BatchState) -> float:
    """The program's own ``stage_seconds()`` summed over the pass wall.

    One extra telemetry-on pass of the first leg; ROADMAP item 1's
    reconciliation target is ≥ 0.95 (reported, not gated).
    """
    done, _ = run_pass(
        state, state.workload.legs[0], 0, telemetry=True, cold=state.workload.cold
    )
    if done.telemetry is None:
        return 0.0
    return sum(done.telemetry.stage_seconds().values()) / done.wall


def stop_resource_tracker() -> None:
    """End multiprocessing's resource-tracker process and wait for it.

    The sharded executor starts the tracker before it forks its pool.  The
    pool is joined when the pass ends, but the tracker only exits once this
    process has closed its pipe — i.e. *after* this process is gone, so it
    would outlive the run by a moment.  Close the pipe and reap it now.
    """
    from multiprocessing import resource_tracker

    # No public call does this; `_stop` (CPython 3.8+) closes the pipe and
    # waits for the process, and is a no-op when the tracker never started.
    resource_tracker._resource_tracker._stop()


def distributed_counts(state: BatchState) -> Dict[str, float]:
    """Counts only, from one ``parallelism=2`` pass (no wall-clock scaling:
    on a 2-core box the workers time-slice the parent's cores)."""
    try:
        done, _ = run_pass(
            state, state.workload.legs[0], 0, telemetry=True, check=False, parallelism=2
        )
    finally:
        stop_resource_tracker()
    counters =done.telemetry.metrics.snapshot().get("counters", {}) if done.telemetry else {}
    intervals = sum(
        value for name, value in counters.items()
        if name.startswith("transport.") and name.endswith("_intervals")
    )
    fallbacks = counters.get("transport.codec_fallbacks", 0) + counters.get("pool.failures", 0)
    if done.failure:
        fallbacks += 1
    return {
        "core.distributed.intervals": float(intervals),
        "core.distributed.items_shipped": float(counters.get("pool.worker_items", 0)),
        "core.distributed.fallbacks": float(fallbacks),
    }
