"""One pane-close contract for all three engines.

Every engine ends a pane through `repro.runtime.driver._Run.close_pane`,
so what a caller can observe about a pane boundary — the ``on_pane``
stream, the checkpoints, the telemetry rows and counters, the budget
trajectory — must line up with the returned results the same way
whatever the engine, strategy, budget mode or checkpoint cadence.  The
stream ends mid-interval on purpose: the pipelined engine then drops an
end-of-stream flush pane, which must leave no trace in any of them.
"""

import gc
import random
import sys

import pytest

from repro.core.budget import AccuracyBudget
from repro.obs import TelemetryConfig
from repro.runtime import driver, strategies
from repro.runtime import (
    CheckpointPolicy,
    CheckpointStore,
    ListSource,
    PlanError,
    StreamQuery,
    SystemConfig,
    WindowConfig,
    build_plan,
    execute_plan,
    full_weight_sample,
)

QUERY = StreamQuery(key_fn=lambda it: it[0], value_fn=lambda it: it[1], kind="mean")
WINDOW = WindowConfig(10.0, 5.0)

#: (engine, strategy) pairs the planner accepts.
PAIRS = [
    ("batched", "oasrs"),
    ("batched", "none"),
    ("pipelined", "oasrs"),
    ("pipelined", "none"),
    ("direct", "oasrs"),
]


def stream_30s():
    """~29.9 s of three strata: the sixth slide interval is partial."""
    rng = random.Random(5)
    return [
        (i / 100.0, (rng.choice("abc"), rng.gauss(10.0, 2.0))) for i in range(2990)
    ]


def plan_for(engine, strategy, budget, every, **config):
    return build_plan(
        QUERY, WINDOW,
        SystemConfig(
            sampling_fraction=0.3,
            seed=3,
            budget=AccuracyBudget(target_margin=0.2) if budget else None,
            checkpoint=CheckpointPolicy(every=every) if every else None,
            telemetry=TelemetryConfig(),
            **config,
        ),
        engine=engine, strategy=strategy,
        source=ListSource(stream_30s()), name="contract",
    )


#: ... × {fixed fraction, budget}; ``none`` has nothing to adapt, so the
#: planner rejects it with a budget.
ROWS = [
    pytest.param(engine, strategy, budget, id=f"{engine}-{strategy}-{mode}")
    for engine, strategy in PAIRS
    for budget, mode in ((False, "fraction"), (True, "budget"))
    if not (budget and strategy == "none")
]


@pytest.mark.parametrize("every", [1, 2, 0], ids=["every1", "every2", "off"])
@pytest.mark.parametrize("engine,strategy,budget", ROWS)
def test_pane_close_contract(engine, strategy, budget, every):
    delivered, log, info, store = [], [], {}, CheckpointStore()
    results, _cluster = execute_plan(
        plan_for(engine, strategy, budget, every),
        adaptation_log=log,
        checkpoint_store=store,
        run_info=info,
        on_pane=delivered.append,
    )
    assert len(results) >= 5
    assert delivered == results

    telemetry = info["telemetry"]
    counters = telemetry.metrics.snapshot()["counters"]
    assert counters["panes"] == len(results)
    assert [(row["index"], row["end"]) for row in telemetry.pane_stages] == [
        (i + 1, pane.end) for i, pane in enumerate(results)
    ]
    # The column build / projection is a stage of the first pane, only.
    assert [i for i, row in enumerate(telemetry.pane_stages) if "columns" in row["stages"]] == [0]
    assert info["sampled_total"] == counters["items.sampled"]
    assert len(log) == (len(results) if budget else 0)

    assert len(store) == (len(results) // every if every else 0)
    for index in store.indices():
        checkpoint = store.get(index)
        assert index % every == 0
        assert list(checkpoint.results) == results[:index]
        assert checkpoint.pane_end == results[index - 1].end


@pytest.mark.parametrize("engine,strategy", PAIRS)
def test_resumed_run_delivers_and_counts_only_its_own_panes(
    monkeypatch, engine, strategy
):
    store = CheckpointStore()
    base, _ = execute_plan(plan_for(engine, strategy, False, 1), checkpoint_store=store)
    # The restored sampler ignores a stratum hint, so resume computes none.
    def no_hint(items, key_fn):
        raise AssertionError("a resumed run counted strata for a hint")

    monkeypatch.setattr(driver, "count_strata", no_hint)
    monkeypatch.setattr(strategies, "count_strata", no_hint)
    delivered, info = [], {}
    resumed, _ = execute_plan(
        plan_for(engine, strategy, False, 1),
        resume_from=store.get(2), run_info=info, on_pane=delivered.append,
    )
    assert resumed == base
    assert delivered == base[2:]
    telemetry = info["telemetry"]
    assert telemetry.metrics.snapshot()["counters"]["panes"] == len(base) - 2
    assert [row["index"] for row in telemetry.pane_stages] == list(
        range(3, len(base) + 1)
    )


def test_exact_pipelined_pane_ends_are_the_operators_fire_times():
    """A slide with no exact binary form: what ``on_pane`` and the
    checkpoints see must be the very ends the results carry (the window
    operator's accumulated fire times), and resume must continue them."""
    rng = random.Random(9)
    stream = [(i / 200.0, (rng.choice("ab"), rng.gauss(5.0, 1.0))) for i in range(1500)]
    plan = build_plan(
        QUERY, WindowConfig(0.9, 0.3),
        SystemConfig(seed=1, checkpoint=CheckpointPolicy(every=5)),
        engine="pipelined", strategy="none", source=ListSource(stream),
    )
    delivered, store = [], CheckpointStore()
    base, _ = execute_plan(plan, checkpoint_store=store, on_pane=delivered.append)
    assert delivered == base
    for index in store.indices():
        assert store.get(index).pane_end == base[index - 1].end
        resumed, _ = execute_plan(plan, resume_from=store.get(index))
        assert resumed == base


def test_adhoc_handle_batch_cannot_checkpoint_or_resume():
    def handle(ctx, items):
        return full_weight_sample(items, QUERY.key_fn)

    results, _ = execute_plan(plan_for("batched", "none", False, 0), handle_batch=handle)
    assert results
    with pytest.raises(PlanError, match="cannot snapshot"):
        execute_plan(plan_for("batched", "none", False, 1), handle_batch=handle)
    store = CheckpointStore()
    execute_plan(plan_for("batched", "none", False, 1), checkpoint_store=store)
    with pytest.raises(PlanError, match="cannot snapshot"):
        execute_plan(
            plan_for("batched", "none", False, 0),
            handle_batch=handle, resume_from=store.latest(),
        )


# ---------------------------------------------------------------------------
# One sampler per run: one owner, one feed, one budget hook, one snapshot


@pytest.mark.parametrize("budget", [False, True], ids=["fraction", "budget"])
@pytest.mark.parametrize("parallelism", [1, 3], ids=["p1", "p3"])
@pytest.mark.parametrize("chunk_size", [0, 256], ids=["item", "chunk256"])
@pytest.mark.parametrize("engine", ["batched", "pipelined", "direct"])
def test_one_sampler_fed_and_checkpointed_one_way(
    monkeypatch, engine, chunk_size, parallelism, budget
):
    from repro.runtime.strategies import _BoundOASRS

    built, fed, targets = [], [], []
    build, feed, hook = (
        _BoundOASRS.interval_sampler, _BoundOASRS.sample_interval, _BoundOASRS.set_budget
    )

    def spy_build(self, total, strata_hint):
        built.append(build(self, total, strata_hint))
        return built[-1]

    def spy_feed(self, rows):
        fed.append(len(rows))
        return feed(self, rows)

    def spy_hook(self, total, interval_items):
        targets.append(total)
        return hook(self, total, interval_items)

    monkeypatch.setattr(_BoundOASRS, "interval_sampler", spy_build)
    monkeypatch.setattr(_BoundOASRS, "sample_interval", spy_feed)
    monkeypatch.setattr(_BoundOASRS, "set_budget", spy_hook)

    log, info, store = [], {}, CheckpointStore()
    results, _cluster = execute_plan(
        plan_for(engine, "oasrs", budget, 1, chunk_size=chunk_size, parallelism=parallelism),
        adaptation_log=log, checkpoint_store=store, run_info=info,
    )
    assert len(results) >= 5 and len(built) == 1

    # The snapshot has one home, whatever the engine or execution mode.
    kind = "sharded" if parallelism > 1 else "oasrs"
    for index in store.indices():
        state = store.get(index).state
        assert "sampler" not in state
        assert set(state) == {"strategy", "controller", "history"}
        assert state["strategy"]["sampler"]["kind"] == kind

    # Every re-target — the seed before the first pane, then one per pane —
    # went through the one hook, in the controller's order.
    if budget:
        assert targets[1:] == [point.sample_budget for point in log]
        assert len(targets) == len(results) + 1
    else:
        assert targets == []

    # Whole-interval engines feed each interval exactly once; the pipelined
    # loop offers items (or chunk runs) as they stream in instead.
    observed = info["telemetry"].metrics.snapshot()["counters"]["items.observed"]
    assert observed == len(stream_30s())
    if engine == "pipelined":
        assert fed == []
    else:
        assert sum(fed) == observed
        assert len(fed) == (30 if engine == "batched" else len(results))


# ---------------------------------------------------------------------------
# Kept samples stay columns: no Python object per kept or offered item


@pytest.mark.parametrize("chunk_size", [4096, 0], ids=["chunk4096", "item"])
def test_columnar_batched_run_builds_no_member_tuples(monkeypatch, chunk_size):
    from repro.core.records import _StratumMembers

    def materialized(self):
        raise AssertionError("a kept value was turned back into an item tuple")

    info = {}
    plan = plan_for("batched", "oasrs", False, 1, chunk_size=chunk_size)
    base, _ = execute_plan(plan)
    monkeypatch.setattr(_StratumMembers, "_materialized", materialized)
    results, _ = execute_plan(plan, run_info=info)
    assert info.get("columnar_fallback") is None
    assert results == base and info["sampled_total"] > 0


def test_offer_many_makes_no_python_call_per_fill_row():
    from repro.core.oasrs import FixedPerStratum, OASRSSampler
    from repro.core.records import L2_SLICE, RecordBatch, item_key

    def python_calls(rows):
        rng = random.Random(rows)
        batch = RecordBatch(
            [(float(i), (rng.choice("abc"), rng.random())) for i in range(rows)]
        )
        view = batch.item_slice(0, rows)
        sampler = OASRSSampler(FixedPerStratum(rows), item_key, random.Random(0))
        calls = []
        gc.collect()
        gc.disable()  # no finalizer of another test's garbage runs in the window
        sys.setprofile(lambda frame, event, arg: event == "call" and calls.append(1))
        try:
            sampler.offer_many(view)
        finally:
            sys.setprofile(None)
            gc.enable()
        assert sampler.close_interval().total_items == rows  # all fill rows
        return len(calls)

    python_calls(200)  # the first generator imports NumPy's lazy modules
    # Up to one L2 slice, the feed is one kernel call whatever its length;
    # longer feeds are decided slice by slice, so past the split their cost
    # grows by a fixed amount per slice, no more than a whole short feed.
    short = python_calls(200)
    assert python_calls(L2_SLICE) == short
    two, three, four = [python_calls(k * L2_SLICE) for k in (2, 3, 4)]
    assert four - three == three - two
    assert 0 < three - two <= short
