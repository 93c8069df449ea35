"""Figure 6(a) companion: real wall-clock scalability of the chunk/shard path.

Every other figure reports *simulated* throughput on the cost model; this
benchmark measures the repo's own execution speed.  It runs
`NativeStreamApproxSystem` — OASRS directly over the fig6a microbenchmark
workload at the figure's 40% sampling fraction — in three modes:

* ``default`` — ``chunk_size`` 0: each interval goes to
  `OASRSSampler.offer_many` in one call (decided in L2-sized slices),
* ``chunk=K`` — the interval fed as ``K``-row `OASRSSampler.process_chunk`
  calls,
* ``shard=4`` — the real multi-process `ShardedExecutor` (4 workers).

OASRS has one draw rule (`repro.core.reservoir.segmented_offer`, one
uniform per row in stream order), so ``chunk_size`` is a pure speed knob:
the default and every ``chunk=K`` row keep the same sample and report
``==`` pane estimates, which is asserted.  What the chunk size costs is a
kernel call (~16 us whatever its size) per chunk, so ``chunk=64`` is the
slow baseline the speedups are read against.

Two wall-clock throughputs are reported per mode: ``end-to-end`` (the
whole `timed_execute` processing path) and ``sampling path`` (only the
offer/process_chunk section — the stable basis for the speedup assertion;
the end-to-end ratio adds shared slicing/estimation time to both sides and
is noisier run to run).  Asserted claims: every single-process setting
gives the same pane estimates; the default and large chunks (>= 1024)
beat ``chunk=64`` on the sampling path by >= ``MIN_SPEEDUP``; chunk 4096
does not fall off a cache cliff against 1024; and 4-way sharding keeps
accuracy within the same error bounds as the single-process run.

Note on sharding: the sharded mode runs over the persistent worker pool
(processes spawned once per run, each interval named to the forked
workers as an index span of the stream, samples returned as value
columns).  Its row is *reported, not gated*: since the single-process
chunk kernel got an order of magnitude faster the sharded path does not
reach the best chunked row on any box measured (see the parallelism
table in ``docs/architecture.md``); the accuracy claim is always
asserted.  Every run also writes ``benchmarks/results/BENCH_fig6a.json``,
a machine-readable perf-trajectory artifact.
"""

import json
import os

from repro.system import NativeStreamApproxSystem, SystemConfig

from conftest import MICRO_QUERY, RESULTS_DIR, WINDOW

FRACTION = 0.4  # the fig6a operating point
CHUNKS = (64, 256, 1024, 4096)
BASELINE = "chunk=64"  # the kernel's call overhead at its largest share
REPEATS = 3  # best-of, to shrug off scheduler noise
# Required sampling-path speedup of the default and chunk >= 1024 over
# chunk=64.  The checked-in margin is well above 2x on an idle box; shared
# CI runners are throttled and noisy, so CI relaxes the gate via this env
# var rather than flaking unrelated PRs.
MIN_SPEEDUP = float(os.environ.get("REPRO_FIG6A_MIN_SPEEDUP", "2.0"))


def _throughput(stream, chunk_size=0, parallelism=1):
    """Best-of-REPEATS (end-to-end, sampling-path) items/s and the pane
    estimates for one mode."""
    best_total = 0.0
    best_sampling = 0.0
    for _ in range(REPEATS):
        config = SystemConfig(
            sampling_fraction=FRACTION,
            seed=21,
            chunk_size=chunk_size,
            parallelism=parallelism,
        )
        system = NativeStreamApproxSystem(MICRO_QUERY, WINDOW, config)
        results, _cluster, wall = system.timed_execute(stream)
        fallback = system._run_info.get("parallel_fallback")
        assert fallback is None, (
            f"parallelism={parallelism} silently degraded: {fallback}"
        )
        # The microbenchmark stream is a RecordBatch with the canonical
        # projections — the columnar path must actually engage, not shim.
        assert system._run_info.get("columnar_fallback") is None, (
            f"columnar path silently degraded: "
            f"{system._run_info.get('columnar_fallback')}"
        )
        best_total = max(best_total, len(stream) / wall)
        best_sampling = max(best_sampling, len(stream) / system.last_sampling_seconds)
    return best_total, best_sampling, [r.estimate for r in results]


def sweep(stream):
    rows = {}
    rows["default"] = _throughput(stream)
    for chunk in CHUNKS:
        rows[f"chunk={chunk}"] = _throughput(stream, chunk_size=chunk)
    rows["shard=4"] = _throughput(stream, chunk_size=4096, parallelism=4)
    return rows


def test_fig6a_chunked(benchmark, micro_stream):
    runs = benchmark.pedantic(sweep, args=(micro_stream,), rounds=1, iterations=1)
    rows = {setting: run[:2] for setting, run in runs.items()}

    base_total, base_sampling = rows[BASELINE]
    lines = ["fig6a_chunked_scalability — wall-clock throughput (items/s)"]
    lines.append(
        f"{'setting':<16}{'end-to-end':>14}{'speedup':>9}"
        f"{'sampling path':>16}{'speedup':>9}"
    )
    for setting, (total, sampling) in rows.items():
        lines.append(
            f"{setting:<16}{total:>14,.0f}{total / base_total:>8.2f}x"
            f"{sampling:>16,.0f}{sampling / base_sampling:>8.2f}x"
        )
    text = "\n".join(lines)
    print("\n" + text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "fig6a_chunked_scalability.txt").write_text(text + "\n")
    _write_bench_json(rows, base_total, base_sampling)
    for setting, (total, sampling) in rows.items():
        benchmark.extra_info[f"wall_throughput/{setting}"] = round(total, 1)
        benchmark.extra_info[f"sampling_throughput/{setting}"] = round(sampling, 1)

    # One draw rule: the chunk size changes no estimate...
    estimates = runs["default"][2]
    for chunk in CHUNKS:
        assert runs[f"chunk={chunk}"][2] == estimates, f"chunk={chunk} moved a pane"
    # ...only the speed: the default feed and large chunks amortise the
    # kernel's per-call cost that 64-row chunks pay >= MIN_SPEEDUP times over.
    for setting in ("default", "chunk=1024", "chunk=4096"):
        assert rows[setting][1] >= MIN_SPEEDUP * base_sampling, setting
    # Growing the chunk from 1024 to 4096 must not fall off a cache cliff:
    # L2-sized sub-slicing keeps the working set bounded, so throughput is
    # monotone-or-flat (10% tolerance for scheduler noise).
    assert rows["chunk=4096"][0] >= 0.9 * rows["chunk=1024"][0], (
        f"chunk=4096 ({rows['chunk=4096'][0]:,.0f} it/s) regressed below "
        f"chunk=1024 ({rows['chunk=1024'][0]:,.0f} it/s): cache spill"
    )


def _write_bench_json(rows, base_total, base_sampling):
    """Persist the sweep as a perf-trajectory artifact (BENCH_fig6a.json)."""
    payload = {
        "benchmark": "fig6a_chunked_scalability",
        "workload": {"fraction": FRACTION, "repeats": REPEATS},
        "machine": {"cpu_count": os.cpu_count()},
        "gates": {"min_speedup": MIN_SPEEDUP},
        "rows": [
            {
                "setting": setting,
                "end_to_end_items_per_s": round(total, 1),
                "end_to_end_speedup": round(total / base_total, 3),
                "sampling_items_per_s": round(sampling, 1),
                "sampling_speedup": round(sampling / base_sampling, 3),
            }
            for setting, (total, sampling) in rows.items()
        ],
    }
    (RESULTS_DIR / "BENCH_fig6a.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )


def test_fig6a_sharded_accuracy(micro_stream):
    """4 real worker processes stay within single-process error bounds."""
    single_cfg = SystemConfig(sampling_fraction=FRACTION, seed=21, chunk_size=1024)
    sharded_cfg = SystemConfig(
        sampling_fraction=FRACTION, seed=21, chunk_size=1024, parallelism=4
    )
    single = NativeStreamApproxSystem(MICRO_QUERY, WINDOW, single_cfg).run(micro_stream)
    sharded = NativeStreamApproxSystem(MICRO_QUERY, WINDOW, sharded_cfg).run(micro_stream)

    assert [r.end for r in single.results] == [r.end for r in sharded.results]
    # Absolute bar: the sharded estimates are accurate...
    assert sharded.mean_accuracy_loss() < 0.01
    # ...each pane's rigorous ±bound covers the exact answer...
    for pane in sharded.results:
        assert abs(pane.estimate - pane.exact) <= pane.error.margin
    # ...and sharding does not degrade accuracy beyond run-to-run noise.
    assert sharded.mean_accuracy_loss() <= max(
        2.5 * single.mean_accuracy_loss(), 0.005
    )
