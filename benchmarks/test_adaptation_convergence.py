"""Budget-driven adaptation: convergence to a target margin under drift.

The paper's user contract (§2.3, §4.2) is a *query budget*, not a sampling
fraction: the user states the accuracy they need and the system adapts its
per-interval sample size to deliver it.  This benchmark runs that loop on
the rate-swap drift workload (A dominates, then C does — the §1 scenario a
pre-defined fraction cannot follow) and asserts the §4.2 controller:

* starting from a deliberately starved seed (2% sampling), the measured CI
  half-width reaches the target within ``REPRO_ADAPT_MAX_INTERVALS``
  intervals and *holds* it through the end of the run, despite the swap
  disrupting the variance structure mid-stream,
* the per-interval sample-budget trajectory is recorded on the report
  (visible, not inferred),
* a fixed-fraction run at the same starved seed never meets the target —
  the adaptation is doing the work, not the workload.

``REPRO_ADAPT_MAX_INTERVALS`` (default 8) loosens the convergence deadline
on throttled CI runners.
"""

import os

from repro.core.budget import AccuracyBudget
from repro.metrics.adaptation import convergence_interval, format_trajectory
from repro.system import NativeStreamApproxSystem, SystemConfig, WindowConfig
from repro.workloads.drift import drifting_stream, rate_swap_schedule

from conftest import KEY, RESULTS_DIR, VAL
from repro.system import StreamQuery

QUERY = StreamQuery(key_fn=KEY, value_fn=VAL, kind="mean", name="drift-mean")
WINDOW = WindowConfig(10.0, 5.0)

TARGET_MARGIN = 0.5
SEED_FRACTION = 0.02  # starved on purpose: the loop has to grow
MAX_INTERVALS = int(os.environ.get("REPRO_ADAPT_MAX_INTERVALS", "8"))


def sweep():
    stream = drifting_stream(rate_swap_schedule(4000, 50, 20.0), seed=61)
    adaptive = NativeStreamApproxSystem(
        QUERY, WINDOW,
        SystemConfig(
            sampling_fraction=SEED_FRACTION,
            budget=AccuracyBudget(target_margin=TARGET_MARGIN),
        ),
    ).run(stream)
    fixed = NativeStreamApproxSystem(
        QUERY, WINDOW, SystemConfig(sampling_fraction=SEED_FRACTION)
    ).run(stream)
    return stream, adaptive, fixed


def test_adaptation_convergence(benchmark):
    stream, adaptive, fixed = benchmark.pedantic(sweep, rounds=1, iterations=1)

    reached = convergence_interval(adaptive, TARGET_MARGIN)
    lines = [
        "adaptation_convergence — AccuracyBudget(target_margin="
        f"{TARGET_MARGIN}) on the rate-swap drift stream "
        f"({len(stream):,} items, swap at t=20 s)",
        "",
        format_trajectory(adaptive, TARGET_MARGIN),
        "",
        f"fixed fraction {SEED_FRACTION:.0%} margins: "
        + ", ".join(f"{r.error.margin:.3g}" for r in fixed.results),
    ]
    benchmark.extra_info["convergence_interval"] = reached
    benchmark.extra_info["budgets"] = [
        p.sample_budget for p in adaptive.adaptation
    ]

    # One control decision per pane — the trajectory is fully visible.
    assert len(adaptive.adaptation) == len(adaptive.results) > 0

    # The §4.2 loop reaches the target and holds it to the end of the run,
    # within the (CI-tunable) interval deadline.
    assert reached is not None, "target margin never held"
    assert reached <= MAX_INTERVALS, (
        f"converged at interval {reached}, deadline {MAX_INTERVALS}"
    )

    # The budget genuinely adapted upward from the starved seed…
    budgets = [p.sample_budget for p in adaptive.adaptation]
    assert max(budgets) > 2 * budgets[0]

    # …and adaptation, not the workload, is what meets the target: the same
    # starved fraction held fixed stays above the target margin throughout.
    assert all(r.error.margin > TARGET_MARGIN for r in fixed.results)

    text = "\n".join(lines)
    print("\n" + text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "adaptation_convergence.txt").write_text(text + "\n")
