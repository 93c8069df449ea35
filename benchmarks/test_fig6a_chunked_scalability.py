"""Figure 6(a) companion: real wall-clock speed of the sampling path.

Every other figure reports *simulated* throughput on the cost model; this
benchmark measures the repo's own execution speed.  It runs
`NativeStreamApproxSystem` — OASRS directly over the fig6a microbenchmark
workload at the figure's 40% sampling fraction — in two modes:

* ``default`` — one sampler per run,
* ``shard=4`` — the §3.2 `ShardedExecutor` with 4 workers, run in one
  process: four local reservoirs of ``⌈N_i / 4⌉`` per stratum, one merge.

Two wall-clock throughputs are reported per mode, with each row's ratio
to ``default``: ``end-to-end`` (the whole `timed_execute` processing
path) and ``sampling path`` (only the offer section).  Both rows are
*reported, not gated*: the sharded row samples every interval four times
over a quarter of it, so it trails the default by construction.  Asserted:
4-way sharding keeps accuracy within the same error bounds as the
single-process run (`test_fig6a_sharded_accuracy`).  ``chunk_size`` has
no row: it never reaches this engine, and that every ``chunk_size``
returns ``==`` panes is pinned by
``tests/test_segmented_kernel.py::test_chunk_size_changes_no_pane``.
Every run also writes ``benchmarks/results/BENCH_fig6a.json``, a
machine-readable perf-trajectory artifact.
"""

import json
import os

from repro.system import NativeStreamApproxSystem, SystemConfig

from conftest import MICRO_QUERY, RESULTS_DIR, WINDOW

FRACTION = 0.4  # the fig6a operating point
BASELINE = "default"
REPEATS = 5  # best-of, to shrug off scheduler noise
MODES = {"default": 1, "shard=4": 4}  # setting -> parallelism


def _pass(stream, parallelism=1):
    """One timed pass of a mode: (end-to-end, sampling-path) items/s."""
    config = SystemConfig(sampling_fraction=FRACTION, seed=21, parallelism=parallelism)
    system = NativeStreamApproxSystem(MICRO_QUERY, WINDOW, config)
    results, _cluster, wall = system.timed_execute(stream)
    # The microbenchmark stream is a RecordBatch with the canonical
    # projections — the columnar path must actually engage, not shim.
    assert system._run_info.get("columnar_fallback") is None, (
        f"columnar path silently degraded: "
        f"{system._run_info.get('columnar_fallback')}"
    )
    return len(stream) / wall, len(stream) / system.last_sampling_seconds


def sweep(stream):
    """Best-of-REPEATS per mode, after one untimed warm-up pass.  Each
    round runs every mode once, so a change of machine speed part-way
    through the sweep reaches every mode alike instead of one mode's
    whole best-of."""
    _pass(stream)
    runs = {setting: [] for setting in MODES}
    for _ in range(REPEATS):
        for setting, parallelism in MODES.items():
            runs[setting].append(_pass(stream, parallelism))
    return {
        setting: (
            max(total for total, _ in passes),
            max(sampling for _, sampling in passes),
        )
        for setting, passes in runs.items()
    }


def test_fig6a_chunked(benchmark, micro_stream):
    rows = benchmark.pedantic(sweep, args=(micro_stream,), rounds=1, iterations=1)

    base_total, base_sampling = rows[BASELINE]
    lines = ["fig6a_chunked_scalability — wall-clock throughput (items/s)"]
    lines.append(
        f"{'setting':<16}{'end-to-end':>14}{'ratio':>9}"
        f"{'sampling path':>16}{'ratio':>9}"
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


def _write_bench_json(rows, base_total, base_sampling):
    """Persist the sweep as a perf-trajectory artifact (BENCH_fig6a.json)."""
    payload = {
        "benchmark": "fig6a_chunked_scalability",
        "workload": {"fraction": FRACTION, "repeats": REPEATS},
        "machine": {"cpu_count": os.cpu_count()},
        "rows": [
            {
                "setting": setting,
                "end_to_end_items_per_s": round(total, 1),
                "end_to_end_ratio": round(total / base_total, 3),
                "sampling_items_per_s": round(sampling, 1),
                "sampling_ratio": round(sampling / base_sampling, 3),
            }
            for setting, (total, sampling) in rows.items()
        ],
    }
    (RESULTS_DIR / "BENCH_fig6a.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )


def test_fig6a_sharded_accuracy(micro_stream):
    """4 shards stay within single-process error bounds."""
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
