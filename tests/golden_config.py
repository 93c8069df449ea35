"""Shared fixture for the cross-system golden-equivalence suite.

Defines the fixed workload, queries, and configurations the golden
reference (``tests/golden/systems_golden.json``) was captured with, plus
the fingerprinting that flattens a `SystemReport` into JSON-comparable
numbers.  Used by both the capture script (``tests/golden/capture_golden.py``)
and the regression test (``tests/test_golden_equivalence.py``).
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.core.budget import AccuracyBudget
from repro.system import (
    FlinkStreamApproxSystem,
    NativeFlinkSystem,
    NativeSparkSystem,
    NativeStreamApproxSystem,
    SparkSRSSystem,
    SparkSTSSystem,
    SparkStreamApproxSystem,
    StreamQuery,
    SystemConfig,
    WindowConfig,
)
from repro.core.records import item_key, item_value
from repro.workloads.synthetic import stream_by_rates

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "systems_golden.json")

WINDOW = WindowConfig(length=10.0, slide=5.0)

#: Looser than every p90 margin the golden stream reaches (13–31): the
#: feedback trim decays and the Equation-9 model floor, computed from the
#: pane's stratum stats, sets each re-targeted budget — so the goldens
#: depend on those stats, not only on the DKW margin.
BUDGET_P90 = AccuracyBudget(target_margin=40.0)

_SEVEN = [
    NativeSparkSystem,
    NativeFlinkSystem,
    NativeStreamApproxSystem,
    SparkSRSSystem,
    SparkSTSSystem,
    SparkStreamApproxSystem,
    FlinkStreamApproxSystem,
]

# Systems whose chunk_size > 1 output is part of the golden contract too:
# the pipelined engine charges virtual seconds per run, so chunk 256 reads
# different seconds there.  The direct and batched StreamApprox systems
# return the default case bit for bit at every chunk size
# (tests/test_segmented_kernel.py pins the panes on all three engines).
_CHUNKED = [
    NativeFlinkSystem,
    FlinkStreamApproxSystem,
]


def golden_stream() -> List[Tuple[float, object]]:
    """Skewed three-strata stream, small enough for a fast test run."""
    return stream_by_rates({"A": 800, "B": 200, "C": 20}, duration=12, seed=7)


def golden_query(grouped: bool = False, q: Optional[float] = None) -> StreamQuery:
    # Canonical projections: their identity is what arms the runtime's
    # columnar path, so the golden suite exercises it by default.
    if q is not None:
        return StreamQuery(kind="quantile", q=q, name=f"golden-p{round(q * 100)}")
    return StreamQuery(
        key_fn=item_key,
        value_fn=item_value,
        kind="mean",
        group_fn=item_key if grouped else None,
        name="golden-mean",
    )


def golden_config(**overrides) -> SystemConfig:
    base = dict(sampling_fraction=0.5, seed=42)
    base.update(overrides)
    return SystemConfig(**base)


def report_fingerprint(report) -> Dict[str, object]:
    """Flatten a `SystemReport` to plain JSON-comparable numbers."""
    panes = []
    for r in report.results:
        panes.append(
            {
                "end": r.end,
                "estimate": r.estimate,
                "exact": r.exact,
                "margin": r.error.margin if r.error is not None else None,
                "groups": {str(g): v for g, v in sorted(r.groups.items())},
                "sampled_items": r.sampled_items,
                "total_items": r.total_items,
                "accuracy_loss": r.accuracy_loss,
            }
        )
    return {
        "system": report.system,
        "items_total": report.items_total,
        "virtual_seconds": report.virtual_seconds,
        "mean_accuracy_loss": report.mean_accuracy_loss(),
        "panes": panes,
    }


def golden_cases(**config_overrides) -> Iterator[Tuple[str, Callable[[], object]]]:
    """Yield (case name, runner) pairs covering all seven systems.

    Per-item execution for every system; the pre-existing chunked paths at
    chunk_size=256; a grouped query and a p90 quantile through each engine
    family's StreamApprox variant; and one accuracy-budget p90 run, whose
    controller re-targets the sample size from the DKW margin and the
    Equation-9 stratum stats.  ``config_overrides`` apply on top of every
    case's config (the telemetry-neutrality suite re-runs the whole matrix
    with ``telemetry=TelemetryConfig()``).
    """
    stream = golden_stream()

    def runner(cls, query, config):
        return lambda: cls(query, WINDOW, config).run(stream)

    for cls in _SEVEN:
        yield cls.name, runner(cls, golden_query(), golden_config(**config_overrides))
    for cls in _CHUNKED:
        yield (
            f"{cls.name}@chunk256",
            runner(cls, golden_query(), golden_config(chunk_size=256, **config_overrides)),
        )
    for cls in (SparkStreamApproxSystem, FlinkStreamApproxSystem, NativeStreamApproxSystem):
        yield (
            f"{cls.name}@grouped",
            runner(cls, golden_query(grouped=True), golden_config(**config_overrides)),
        )
    for cls in (SparkStreamApproxSystem, FlinkStreamApproxSystem, NativeStreamApproxSystem):
        yield (
            f"{cls.name}@p90",
            runner(cls, golden_query(q=0.9), golden_config(**config_overrides)),
        )
    yield (
        f"{NativeStreamApproxSystem.name}@budget-p90",
        runner(
            NativeStreamApproxSystem,
            golden_query(q=0.9),
            golden_config(budget=BUDGET_P90, **config_overrides),
        ),
    )
