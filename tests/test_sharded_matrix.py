"""The sharded plan matrix: one answer from every way of running it.

72 ``parallelism=3`` plans — 2 streams × 3 engines × mean / p90 /
grouped-sum × ``chunk_size`` 0 / 256 × with / without a permanent
`ShardKill` — must reproduce, pane for pane and bit for bit, the digests
in ``tests/golden/sharded_digest.json``, captured when the shards ran on
a forked worker pool (``python tests/test_sharded_matrix.py --capture``
rewrites the file, ``--only PATTERN`` just the matching cases; it needs
only the public plan API, so it runs on any commit).

A sharded plan starts no process: with process start patched to fail,
every engine still reproduces its digests, fault-free and with a kill.
"""

import argparse
import fnmatch
import hashlib
import itertools
import json
import multiprocessing.process
from pathlib import Path

import pytest

from repro.core.records import item_key
from repro.core.recovery import FaultSchedule, ShardKill
from repro.runtime import (
    ListSource,
    StreamQuery,
    SystemConfig,
    TelemetryConfig,
    WindowConfig,
    build_plan,
    execute_plan,
)
from repro.workloads.synthetic import SubStreamSpec, make_stream, stream_by_rates

DIGESTS = Path(__file__).parent / "golden" / "sharded_digest.json"

# Float-exact widths, so "one interval per distinct floor(ts / width)" below
# counts exactly the intervals the engines cut.
WINDOW = WindowConfig(length=10.0, slide=5.0)
BATCH_INTERVAL = 1.0
KILL_INTERVAL = 2


def skewed_stream():
    """Three skewed Gaussian strata (the perf benchmark's S3 shape, 2 %)."""
    return stream_by_rates({"A": 640, "B": 160, "C": 8}, duration=30, seed=7)


def wide_stream():
    """40 equal-rate strata: most shards see most strata."""
    specs = [
        SubStreamSpec(f"s{i:02d}", "gaussian", mu=10.0 * (i + 1), sigma=1.0 + i % 7)
        for i in range(40)
    ]
    return make_stream(specs, {spec.source: 20.0 for spec in specs}, 30, seed=11)


STREAMS = {"skewed": skewed_stream, "wide": wide_stream}
QUERIES = {
    "mean": StreamQuery(kind="mean", name="mean"),
    "p90": StreamQuery(kind="quantile", q=0.9, name="p90"),
    "grouped-sum": StreamQuery(kind="sum", group_fn=item_key, name="grouped-sum"),
}
CASES = list(
    itertools.product(
        STREAMS, ("direct", "pipelined", "batched"), QUERIES, (0, 256), (False, True)
    )
)


def case_id(case):
    stream, engine, query, chunk, kill = case
    return f"{stream}-{engine}-{query}-chunk{chunk}-{'kill' if kill else 'clean'}"


def run_case(case, stream, telemetry=False):
    _stream, engine, query, chunk, kill = case
    faults = None
    if kill:
        faults = FaultSchedule(
            kills=(ShardKill(interval=KILL_INTERVAL, worker=1, permanent=True),)
        )
    config = SystemConfig(
        sampling_fraction=0.4, seed=3, parallelism=3, chunk_size=chunk,
        batch_interval=BATCH_INTERVAL, faults=faults,
        telemetry=TelemetryConfig() if telemetry else None,
    )
    plan = build_plan(
        QUERIES[query], WINDOW, config, engine=engine, strategy="oasrs",
        source=ListSource(stream), name=case_id(case),
    )
    info = {}
    results, _cluster = execute_plan(plan, run_info=info)
    return results, info


def digest(results):
    """sha256 over every number a pane reports, ``repr``-exact."""
    rows = [
        (
            r.end, r.estimate, r.sampled_items, r.total_items,
            None if r.error is None else (r.error.margin, r.error.variance),
            sorted(r.groups.items()),
            [(e.interval, e.worker, e.items_lost, e.items_rerouted, e.permanent)
             for e in r.recovery],
        )
        for r in results
    ]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


@pytest.fixture(scope="module")
def streams():
    return {name: make() for name, make in STREAMS.items()}


@pytest.fixture(scope="module")
def expected():
    return json.loads(DIGESTS.read_text())


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_sharded_plan_matches_the_digest(case, streams, expected):
    results, _info = run_case(case, streams[case[0]])
    assert digest(results) == expected[case_id(case)], "a sharded plan left its digest"


@pytest.fixture
def no_process_start(monkeypatch):
    """Make every process start fail loudly; yields the list of attempts."""
    attempts = []

    def start(process):
        attempts.append(process)
        raise OSError("sharding must not start a process")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", start)
    return attempts


@pytest.mark.parametrize("engine", ("direct", "pipelined", "batched"))
@pytest.mark.parametrize("kill", (False, True), ids=("clean", "kill"))
def test_sharding_starts_no_process(engine, kill, streams, expected, no_process_start):
    case = ("skewed", engine, "mean", 0, kill)
    results, info = run_case(case, streams["skewed"], telemetry=True)
    assert no_process_start == []
    assert "parallel_fallback" not in info
    assert digest(results) == expected[case_id(case)]


def test_perf_distributed_pass_starts_no_process(no_process_start, monkeypatch):
    """The perf harness's ``parallelism=2`` pass (telemetry on, unchecked)
    ends with no fallback and no process started."""
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "benchmarks" / "perf"))
    import batch

    stream = skewed_stream()
    state = batch.BatchState(
        workload=batch.BATCH_WORKLOADS["direct-hot"], seed=7, stream=stream,
        source=ListSource(stream), items=len(stream), bytes_columns=0, timings={},
    )
    counts = batch.distributed_counts(state)
    assert no_process_start == []
    assert counts["core.distributed.fallbacks"] == 0


def test_records_off_the_columns_shard_like_column_rows():
    """Int payloads have no value column: the shards take tuple rows, and
    keep what the same values as column rows keep."""
    floats = [(ts, (key, float(int(value)))) for ts, (key, value) in skewed_stream()]
    ints = [(ts, (key, int(value))) for ts, (key, value) in floats]

    def run(stream):
        config = SystemConfig(
            sampling_fraction=0.4, seed=3, parallelism=3, batch_interval=BATCH_INTERVAL,
        )
        plan = build_plan(
            QUERIES["mean"], WINDOW, config, engine="batched", strategy="oasrs",
            source=ListSource(stream),
        )
        info = {}
        return execute_plan(plan, run_info=info)[0], info

    tuple_rows, info = run(ints)
    assert "columnar_fallback" in info
    column_rows, info = run(floats)
    assert "columnar_fallback" not in info
    assert [(r.end, r.estimate, r.sampled_items) for r in tuple_rows] == [
        (r.end, r.estimate, r.sampled_items) for r in column_rows
    ]


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="re-capture " + DIGESTS.name)
    parser.add_argument("--capture", action="store_true", required=True)
    parser.add_argument(
        "--only", metavar="PATTERN",
        help="re-capture the cases matching this fnmatch pattern, keep the rest",
    )
    only = parser.parse_args().only
    cases = [c for c in CASES if only is None or fnmatch.fnmatchcase(case_id(c), only)]
    if not cases:
        parser.error(f"--only {only!r} matches no case")
    captured = json.loads(DIGESTS.read_text()) if only is not None else {}
    made = {name: make() for name, make in STREAMS.items()}
    for case in cases:
        captured[case_id(case)] = digest(run_case(case, made[case[0]])[0])
    DIGESTS.write_text(json.dumps(captured, indent=1, sort_keys=True) + "\n")
    print(f"captured {len(cases)} of {len(captured)} digests -> {DIGESTS}")
