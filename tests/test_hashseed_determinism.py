"""Pane outputs do not depend on ``PYTHONHASHSEED``.

Merged stratum order feeds order-sensitive float accumulation (the variance
behind every `ErrorBound`), so a merge that walks a *set* of stratum keys
makes the last bits of a pane's bound depend on the interpreter's string
hash seed.  One small plan per engine runs in a subprocess under two hash
seeds; estimates, bounds and groups must be ``repr``-equal.  A chunked
direct plan over 400 string-keyed strata pins the sampler's side of it:
strata are numbered — and emitted — in arrival order, never in the order
some set of keys happens to iterate.  The p90 quantile pane runs on every
engine, from a ``parallelism=3`` worker pool, and under an accuracy budget
whose controller re-targets from the pane's stratum stats; the budget
trajectory is printed too.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
from repro.core.budget import AccuracyBudget
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
p90 = StreamQuery(kind="quantile", q=0.9, name="p90")
PLANS = [
    ("direct", p90, stream, {}),
    ("pipelined", p90, stream, {}),
    ("batched", p90, stream, {}),
    # Shard samples merge into one.
    ("direct", p90, stream, {"parallelism": 3}),
    # The controller path: looser than every pane's margin, so the
    # Equation-9 model floor (the pane's stratum stats) sets each budget.
    ("direct", p90, stream, {"budget": AccuracyBudget(target_margin=30.0)}),
    ("direct", StreamQuery(kind="sum", group_fn=item_key, name="grouped-sum"), stream, {}),
    ("pipelined", StreamQuery(kind="mean", name="mean"), stream, {}),
    ("batched", StreamQuery(kind="mean", name="mean"), stream, {}),
    ("direct", StreamQuery(kind="mean", name="mean-400-strata"), wide, {}),
    ("direct", StreamQuery(kind="sum", group_fn=item_key, name="grouped-400-strata"), wide, {}),
]
for engine, query, events, overrides in PLANS:
    plan = build_plan(
        query, WindowConfig(10.0, 5.0),
        SystemConfig(sampling_fraction=0.4, seed=7, chunk_size=512, **overrides),
        engine=engine, strategy="oasrs", source=ListSource(events), name=query.name,
    )
    info, adaptation = {}, []
    results, _cluster = execute_plan(plan, run_info=info, adaptation_log=adaptation)
    assert results, info
    assert bool(adaptation) == ("budget" in overrides)
    for pane in results:
        print(engine, query.name, sorted(overrides), repr(pane.end),
              repr(pane.estimate), repr(pane.error), repr(list(pane.groups.items())))
    for point in adaptation:
        print(engine, query.name, repr(point))
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
    assert first.count("\n") >= 33
    assert first == second
