"""Cross-system golden equivalence: the runtime reproduces the seed outputs.

``tests/golden/systems_golden.json`` was captured from the *pre-refactor*
implementations — the seven per-system ``_execute`` loops that predate the
unified `repro.runtime` layer — for a fixed workload and seed.  These
tests assert that every refactored system still produces the same
`SystemReport` (estimates, error bounds, accuracy loss, sampled counts,
virtual time) number for number.

The three ``*-streamapprox@chunk256`` cases were re-captured
(``capture_golden.py --only '*-streamapprox@chunk256'``; the other eleven
carried over byte for byte) when the segmented chunk kernel replaced the
per-stratum batched draws: multi-row chunks now take their uniforms from
one NumPy generator in stream-row order instead of from the shared
``random.Random`` stratum by stratum, so those samples are different draws
from the same distribution — the *i*-th arrival of a stratum is still kept
with probability ``N / i`` and evicts a uniform slot
(``tests/test_segmented_kernel.py`` checks inclusion frequencies,
``tests/test_statistical_validation.py`` interval coverage).  Runs with
``chunk_size <= 1`` never reach the kernel and are unchanged.

Every number is compared exactly.  ``spark-sts`` was re-captured once
(``--only spark-sts``) because the original capture merged strata in set
order, which left its pane-1 margin one ulp from what first-appearance
order gives.  The ``*@p90`` and ``native-streamapprox@budget-p90`` cases
pin the DKW quantile pane and, on the budget run, the controller path that
reads the pane's Equation-9 stratum stats.

Ten cases were re-captured (``--only``, one name at a time: ``native-spark``,
``native-flink``, ``native-flink@chunk256``, ``spark-srs``, ``spark-sts``,
``spark-streamapprox``, ``spark-streamapprox@chunk256``,
``flink-streamapprox``, ``flink-streamapprox@grouped``,
``native-streamapprox@grouped``) when SUM / MEAN got one numerical form on
every engine.  Their panes used to take per-stratum moments of the merged
pane sample by an ``fsum`` two-pass (NumPy ``sum`` / ``var`` above 4 096
kept items); now the pane pools per-interval moments — pivot, shift and
the corrected two-pass ``Σd² − (Σd)²/Y`` of Chan, Golub & LeVeque —
exactly as the direct engine's ``native-streamapprox`` pane already did.
Both forms compute the same real numbers; they differ only in rounding,
and the pooled one is the more accurate (≤ 5.2e-16 relative error against
the exact ``statistics.variance``, ``tests/test_direct_moments.py``).  So
``estimate`` and ``margin`` moved by at most one ulp, the accuracy losses
derived from them followed (the full-weight ``native-spark`` /
``native-flink`` panes now hit the exact mean: loss 7.1e-17 → 0.0), and
sampled counts, pane counts and virtual seconds did not move.  The cases
this change left byte-identical are the proof that the shared pane close
*is* the direct engine's kernel: ``native-streamapprox``, its
``@chunk256``, ``flink-streamapprox@chunk256``,
``spark-streamapprox@grouped``, every ``*@p90`` and
``native-streamapprox@budget-p90``.

Ten default-chunk StreamApprox cases were re-captured (``--only`` with
``'*-streamapprox'``, ``'*-streamapprox@grouped'``, ``'*-streamapprox@p90'``
and ``native-streamapprox@budget-p90``) when OASRS got one draw rule: the
default ``chunk_size`` 0 used to decide steady arrivals on the Python RNG
(``random()``, then ``randrange(N)``) and now goes through the segmented
kernel like every other chunk size.  Same law — the *i*-th arrival of a
stratum is kept with probability ``N / i`` in a uniform slot — different
draws: ``estimate``, ``margin``, group sums and accuracy losses moved;
sampled counts, pane counts and virtual seconds did not.  The evidence is
``tests/test_statistical_validation.py``: the 200-seed coverage cells at
chunk 0 stay in band before and after, and a two-sample test on the kept
arrivals of the item rule and the segmented rule.  The
``native-streamapprox@chunk256`` and ``spark-streamapprox@chunk256``
cases now equal their default cases bit for bit and were deleted;
``flink-streamapprox@chunk256`` stays, because the pipelined engine
charges virtual seconds per run.  Every other case is byte-identical.
"""

import json

import pytest

from golden_config import GOLDEN_PATH, golden_cases

with open(GOLDEN_PATH) as fh:
    GOLDEN = json.load(fh)

CASES = dict(golden_cases())


def assert_matches(got, want, path=""):
    assert type(got) is type(want) or (
        isinstance(got, (int, float)) and isinstance(want, (int, float))
    ), f"{path}: type {type(got).__name__} != {type(want).__name__}"
    if isinstance(want, dict):
        assert set(got) == set(want), f"{path}: keys differ"
        for key in want:
            assert_matches(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{path}: length {len(got)} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{path}[{i}]")
    else:
        assert got == want, f"{path}: {got!r} != {want!r}"


def test_golden_file_covers_all_seven_systems():
    systems = {name.split("@")[0] for name in GOLDEN}
    assert systems == {
        "native-spark",
        "native-flink",
        "native-streamapprox",
        "spark-srs",
        "spark-sts",
        "spark-streamapprox",
        "flink-streamapprox",
    }
    assert set(CASES) == set(GOLDEN)


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_refactored_system_matches_seed_output(case):
    from golden_config import report_fingerprint

    got = report_fingerprint(CASES[case]())
    assert_matches(got, GOLDEN[case], path=case)


# ---------------------------------------------------------------------------
# Telemetry neutrality: tracing + metrics leave every number untouched
#
# The observability layer promises to be loss-free: a run with
# ``SystemConfig(telemetry=TelemetryConfig())`` fingerprints *identically*
# to the golden JSON — spans and counters observe the run, they never touch
# the RNG stream, the sampled sets, or the estimates.  The whole golden
# matrix re-runs with telemetry on to pin that.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_telemetry_enabled_run_matches_golden(case):
    from golden_config import golden_cases, report_fingerprint
    from repro.obs import TelemetryConfig

    report = dict(golden_cases(telemetry=TelemetryConfig()))[case]()
    assert_matches(report_fingerprint(report), GOLDEN[case], path=f"{case}@telemetry")
    telemetry = report.telemetry
    assert telemetry is not None
    assert telemetry.pane_stages, "stage table should cover the run's panes"
    assert [root["name"] for root in telemetry.tracer.structure()] == ["run"]
    counters = telemetry.metrics.snapshot()["counters"]
    assert counters["panes"] == len(telemetry.pane_stages)
    assert counters["items.observed"] > 0


# ---------------------------------------------------------------------------
# Budget-driven plans across the seven systems
#
# ``SystemConfig(budget=…)`` cannot be compared number-for-number against the
# golden JSON (adapting the sample size is the point), but it must not change
# the *shape* of a run: the five sampled systems still fire the same panes
# over the same populations with the same ground truth, and the two native
# systems — whose ``none`` strategy has nothing to adapt — are rejected at
# plan-build time.  Running these in the same harness also pins that adding
# ``budget`` to `SystemConfig` left the fixed-fraction cases above bitwise
# intact.
# ---------------------------------------------------------------------------


def _budget_report(cls):
    from golden_config import WINDOW, golden_config, golden_query, golden_stream
    from repro.core.budget import AccuracyBudget

    config = golden_config(budget=AccuracyBudget(target_margin=0.5))
    return cls(golden_query(), WINDOW, config).run(golden_stream())


@pytest.mark.parametrize("case", sorted(
    {name.split("@")[0] for name in GOLDEN}
    - {"native-spark", "native-flink"}
))
def test_budget_driven_run_keeps_golden_pane_structure(case):
    from golden_config import _SEVEN

    cls = {c.name: c for c in _SEVEN}[case]
    report = _budget_report(cls)
    golden_panes = GOLDEN[case]["panes"]
    assert len(report.results) == len(golden_panes)
    for got, want in zip(report.results, golden_panes):
        assert got.end == want["end"]
        assert got.total_items == want["total_items"]
        assert got.exact == want["exact"]
    # The adaptive loop actually ran: one decision per pane.
    assert len(report.adaptation) == len(report.results)


def test_budget_p90_golden_case_retargets():
    """The golden budget case exercises the controller, not a fixed size."""
    report = CASES["native-streamapprox@budget-p90"]()
    budgets = [point.sample_budget for point in report.adaptation]
    assert len(budgets) == len(report.results)
    assert len(set(budgets)) > 1, budgets


@pytest.mark.parametrize("case", ["native-spark", "native-flink"])
def test_budget_driven_native_systems_rejected(case):
    from golden_config import _SEVEN
    from repro.runtime import PlanError

    cls = {c.name: c for c in _SEVEN}[case]
    with pytest.raises(PlanError, match="requires a sampling strategy"):
        _budget_report(cls)


# ---------------------------------------------------------------------------
# Checkpoint / resume against the golden reference
#
# The fault-tolerance service must be invisible to the numbers: a run that
# checkpoints every pane still fingerprints identically to the golden JSON,
# and a run killed after pane k and resumed from its checkpoint reproduces
# the golden panes bit for bit — one case per engine (batched / pipelined /
# direct), which between them cover all three driver loops.
# ---------------------------------------------------------------------------

_RESUME_CASES = ["spark-streamapprox", "flink-streamapprox", "native-streamapprox"]


def _checkpointed_system(cls):
    from golden_config import WINDOW, golden_config, golden_query
    from repro.runtime import CheckpointPolicy

    config = golden_config(checkpoint=CheckpointPolicy(every=1))
    return cls(golden_query(), WINDOW, config)


@pytest.mark.parametrize("case", _RESUME_CASES)
def test_checkpointed_run_still_matches_golden(case):
    from golden_config import _SEVEN, golden_stream, report_fingerprint

    cls = {c.name: c for c in _SEVEN}[case]
    system = _checkpointed_system(cls)
    got = report_fingerprint(system.run(golden_stream()))
    assert_matches(got, GOLDEN[case], path=f"{case}@checkpointed")
    assert system.checkpoints is not None and len(system.checkpoints) >= 2


@pytest.mark.parametrize("case", _RESUME_CASES)
def test_resume_from_every_checkpoint_matches_golden(case):
    from golden_config import _SEVEN, golden_stream, report_fingerprint

    cls = {c.name: c for c in _SEVEN}[case]
    stream = golden_stream()
    system = _checkpointed_system(cls)
    system.run(stream)
    store = system.checkpoints
    for index in store.indices():
        resumed = _checkpointed_system(cls).run(
            stream, resume_from=store.get(index)
        )
        # Pane-level comparison only: the resumed run re-processes just the
        # stream suffix, so its virtual-time charge is legitimately lower.
        assert_matches(
            report_fingerprint(resumed)["panes"], GOLDEN[case]["panes"],
            path=f"{case}@resume[{index}]",
        )
