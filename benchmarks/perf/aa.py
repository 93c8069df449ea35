"""A/A control: two sets of runs of the same checkout must agree.

    python3 benchmarks/perf/aa.py                 # 2 sets x 3 runs per workload
    python3 benchmarks/perf/aa.py --runs 10 --record

Runs the untraced benchmark (``run.py --trace 0``) as two sets of ``--runs``
runs per workload — run *i* of both sets uses seed ``--seed + i``, the sets
interleaved so slow drift of the box hits both alike — and prints, per
workload and end-to-end metric, the two medians, their relative gap in the
metric's "worse" direction, and (from 4 runs up) each set's spread: the
distance between the first and third quartile as a share of the median.

The gap is the benchmark's noise floor: a later PR's delta smaller than it
is not a result.  Exit status is non-zero if any gap exceeds its metric's
bound.  ``--record`` writes the observed gaps and spreads to
``aa_floor.json`` beside this file (``BENCHMARK.json`` has a closed key
set, so the floor cannot live there).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import names  # noqa: E402


def one_run(workload: str, seed: int, seconds: float, scale: float, out: str) -> Dict[str, float]:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--scale", str(scale), "--trace", "0", "--out", out,
    ]
    done = subprocess.run(command, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed}: run.py exited with {done.returncode}")
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    return {name: entry["value"] for name, entry in summary["metrics"].items()}


def spread(values: List[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def compare(workloads, runs: int, seed: int, seconds: float, scale: float, out: str) -> dict:
    report: dict = {}
    for workload in workloads:
        sets: List[List[Dict[str, float]]] = [[], []]
        for i in range(runs):
            for which in (i % 2, 1 - i % 2):  # alternate which set goes first
                sets[which].append(one_run(workload, seed + i, seconds, scale, out))
        rows = {}
        for name, _unit, better, bound in names.END_TO_END:
            a = [run[name] for run in sets[0]]
            b = [run[name] for run in sets[1]]
            med_a, med_b = statistics.median(a), statistics.median(b)
            worse = (med_b - med_a) / med_a if better == "lower" else (med_a - med_b) / med_a
            rows[name] = {
                "median_a": med_a, "median_b": med_b, "gap": abs(med_b - med_a) / med_a,
                "worse_by": worse, "bound": bound,
                "spread_a": spread(a) if runs >= 4 else None,
                "spread_b": spread(b) if runs >= 4 else None,
            }
        report[workload] = rows
        _print_rows(workload, rows)
    return report


def _print_rows(workload: str, rows: dict) -> None:
    print(f"\n{workload}")
    print(f"  {'metric':<14}{'median A':>14}{'median B':>14}{'gap':>8}{'bound':>7}"
          f"{'spread A':>10}{'spread B':>10}")
    for name, row in rows.items():
        spreads = "".join(
            f"{row[key]:>10.1%}" if row[key] is not None else f"{'-':>10}"
            for key in ("spread_a", "spread_b")
        )
        flag = "  EXCEEDS BOUND" if row["worse_by"] > row["bound"] else ""
        print(f"  {name:<14}{row['median_a']:>14.6g}{row['median_b']:>14.6g}"
              f"{row['gap']:>8.1%}{row['bound']:>7.0%}{spreads}{flag}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=list(names.WORKLOADS),
                        help="repeatable; default every workload")
    parser.add_argument("--runs", type=int, default=3, help="runs per set (at least 3)")
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--out", default=str(HERE / "out" / "aa"),
                        help="directory the runs write their records to")
    parser.add_argument("--record", action="store_true",
                        help="write the observed gaps to aa_floor.json")
    args = parser.parse_args(argv)
    if args.runs < 3:
        parser.error("--runs must be at least 3")
    report = compare(
        args.workload or list(names.WORKLOADS), args.runs, args.seed, args.seconds,
        args.scale, args.out,
    )
    if args.record:
        record = {"runs_per_set": args.runs, "seconds": args.seconds, "scale": args.scale,
                  "workloads": report}
        (HERE / "aa_floor.json").write_text(json.dumps(record, indent=2) + "\n")
    exceeded = [
        f"{workload}/{name}" for workload, rows in report.items()
        for name, row in rows.items() if row["worse_by"] > row["bound"]
    ]
    if exceeded:
        print(f"\nA/A gap exceeds the bound on: {', '.join(exceeded)}")
        return 1
    print("\nA/A: every gap is within its metric's bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
