"""Pane outputs do not depend on ``PYTHONHASHSEED``.

Merged stratum order feeds order-sensitive float accumulation (the variance
behind every `ErrorBound`), so a merge that walks a *set* of stratum keys
makes the last bits of a pane's bound depend on the interpreter's string
hash seed.  One small plan per engine runs in a subprocess under two hash
seeds; estimates, bounds and groups must be ``repr``-equal.  A chunked
direct plan over 400 string-keyed strata pins the sampler's side of it:
strata are numbered — and emitted — in arrival order, never in the order
some set of keys happens to iterate.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
from repro.core.records import item_key
from repro.runtime import (
    ListSource, StreamQuery, SystemConfig, WindowConfig, build_plan, execute_plan,
)
from repro.workloads.synthetic import SubStreamSpec, make_stream, stream_by_rates

stream = stream_by_rates({"A": 1600, "B": 400, "C": 20}, duration=20, seed=7)
specs = [
    SubStreamSpec(f"stratum-{i}", "gaussian", mu=10.0 * (i + 1), sigma=1.0 + i % 7)
    for i in range(400)
]
wide = make_stream(specs, {spec.source: 5.0 for spec in specs}, 20, seed=7)
PLANS = [
    ("direct", StreamQuery(kind="quantile", q=0.9, name="p90"), stream),
    ("direct", StreamQuery(kind="sum", group_fn=item_key, name="grouped-sum"), stream),
    ("pipelined", StreamQuery(kind="mean", name="mean"), stream),
    ("batched", StreamQuery(kind="mean", name="mean"), stream),
    ("direct", StreamQuery(kind="mean", name="mean-400-strata"), wide),
    ("direct", StreamQuery(kind="sum", group_fn=item_key, name="grouped-400-strata"), wide),
]
for engine, query, events in PLANS:
    plan = build_plan(
        query, WindowConfig(10.0, 5.0),
        SystemConfig(sampling_fraction=0.4, seed=7, chunk_size=512),
        engine=engine, strategy="oasrs", source=ListSource(events), name=query.name,
    )
    results, _cluster = execute_plan(plan)
    assert results
    for pane in results:
        print(engine, query.name, repr(pane.end), repr(pane.estimate),
              repr(pane.error), repr(list(pane.groups.items())))
"""


def _run(hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_every_engine_is_hash_seed_independent():
    first, second = _run("1"), _run("2")
    assert first.count("\n") >= 18
    assert first == second
