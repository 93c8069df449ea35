"""Smoke test of the perf benchmark: every workload, untraced and traced.

Runs the real command at ``--scale 0.03`` (36 k-item streams, a 30-query
storm) into ``tmp_path`` and checks the contract later PRs rely on: every
name in ``BENCHMARK.json`` comes out with a finite value, no operation
fails, span parents resolve, and a corrupted reference answer makes the
command exit non-zero.  Timing values are not asserted — at this scale they
mean nothing.
"""

import importlib.util
import json
import math
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
RUN = [sys.executable, str(HERE / "run.py"), "--scale", "0.03", "--seconds", "0.5", "--seed", "3"]


def _names():
    spec = importlib.util.spec_from_file_location("perf_names", HERE / "names.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(*extra, cwd=None):
    return subprocess.run([*RUN, *extra], capture_output=True, text=True, timeout=120, cwd=cwd)


def test_manifest_lists_the_harness_names():
    manifest = json.loads((REPO / "BENCHMARK.json").read_text())
    assert manifest == _names().manifest(manifest["run_seconds"])


def test_every_workload_reports_every_metric(tmp_path):
    manifest = json.loads((REPO / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in manifest["end_to_end"]},
        1: {m["name"]: m["unit"] for m in manifest["per_layer"]},
    }
    jobs = [(w["name"], trace) for w in manifest["workloads"] for trace in (0, 1)]
    with ThreadPoolExecutor(max_workers=2) as pool:  # the box has two cores
        done = list(pool.map(
            lambda job: _run("--workload", job[0], "--trace", str(job[1]), "--out", str(tmp_path)),
            jobs,
        ))
    for (workload, trace), child in zip(jobs, done):
        assert child.returncode == 0, f"{workload} trace={trace}:\n{child.stderr}"
        summary = json.loads(child.stdout.strip().splitlines()[-1])
        assert set(summary) == {"correct", "attempted", "failed", "metrics"}
        assert summary["correct"] is True and summary["failed"] == 0
        assert summary["attempted"] >= 1
        assert {n: m["unit"] for n, m in summary["metrics"].items()} == expected[trace]
        for name, metric in summary["metrics"].items():
            assert math.isfinite(metric["value"]), f"{workload}: {name} is not finite"
            if trace == 0:
                assert metric["value"] > 0, f"{workload}: end-to-end {name} is 0"
            # Every metric is also printed by name, with its unit.
            assert f" {name} " in child.stdout
        record = json.loads((tmp_path / f"{workload}.trace{trace}.json").read_text())
        assert record["failed_share"] == 0
        assert {"git_sha", "python", "numpy", "cpu_count", "seed", "scale"} <= set(
            record["environment"]
        )
        if trace == 1:
            _check_spans(tmp_path / f"{workload}.spans.jsonl", summary)
            assert (tmp_path / f"{workload}.layers.txt").read_text().startswith(workload)


def _check_spans(path: Path, summary: dict) -> None:
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    assert spans, "the traced run recorded no span"
    by_id = {span["id"]: span for span in spans}
    rooted = {span["trace"] for span in spans if span["name"] in ("pass", "svc.query")}
    for span in spans:
        assert span["end"] >= span["start"]
        if span["parent"] is not None:
            parent = by_id[span["parent"]]
            assert parent["trace"] == span["trace"]
        elif span["trace"] in rooted:
            assert span["name"] in ("pass", "svc.query"), f"orphan span {span}"
    assert summary["metrics"]["obs.span_coverage"]["value"] >= 0.95


def test_a_corrupted_reference_fails_the_run(tmp_path):
    child = _run("--workload", "direct-hot", "--trace", "0", "--corrupt-reference",
                 "--out", str(tmp_path))
    assert child.returncode != 0
    summary = json.loads(child.stdout.strip().splitlines()[-1])
    assert summary["correct"] is False and summary["failed"] >= 1


def _session_members(session: int) -> list:
    """Pids (zombies too) whose session id is ``session``, from /proc."""
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # gone between the glob and the read
        if int(fields[3]) == session:
            members.append(int(stat.parent.name))
    return members


@pytest.mark.skipif(not Path("/proc/self/stat").is_file(), reason="needs Linux /proc")
@pytest.mark.parametrize("workload, trace", [("direct-hot", "1"), ("svc-storm", "0")])
def test_no_process_outlives_a_run(tmp_path, workload, trace):
    """The sharded probe's resource tracker and the server child are reaped."""
    child = subprocess.Popen(
        [*RUN, "--workload", workload, "--trace", trace, "--out", str(tmp_path)],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    _, stderr = child.communicate(timeout=120)
    assert child.returncode == 0, stderr
    assert _session_members(child.pid) == []


def test_without_the_program_there_is_no_result(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    child = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "direct-hot",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert child.returncode != 0
    assert not child.stdout.strip()
