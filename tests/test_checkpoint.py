"""Checkpoint round-trip properties: snapshot → restore is exact.

The fault-tolerance service is only sound if restoring a checkpoint
reproduces the uninterrupted run bit for bit — same samples, same RNG
draws, same budget decisions.  These tests pin that property with
Hypothesis over arbitrary interval boundaries, item mixes, and seeds:

* `repro.core.recovery.sampler_state` / ``restore_sampler`` round-trip the
  OASRS sampler (reservoirs, counters, allocation policy, and both the
  Python and per-reservoir NumPy RNG streams),
* `repro.runtime.checkpoint.controller_state` / ``restore_controller``
  round-trip the §4.2 budget controller mid-trajectory,
* `repro.runtime.driver.execute_plan(resume_from=…)` resumes a direct- or
  batched-engine plan from any pane checkpoint to the uninterrupted panes.

Plus plain unit coverage of the `CheckpointStore` / `PaneCheckpoint`
surface (persistence, validation, plan-compatibility checks).
"""

import dataclasses
import os
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.budget import AccuracyBudget
from repro.core.error import ErrorBound
from repro.core.oasrs import OASRSSampler, WaterFillingAllocation
from repro.core.query import StratumStats
from repro.core.records import _StratumMembers, item_key
from repro.core.recovery import restore_sampler, sampler_state
from repro.core.strata import (
    StratumSample,
    WeightedSample,
    combine_worker_samples,
    stratum_weight,
)
from repro.runtime import (
    CheckpointPolicy,
    CheckpointStore,
    ListSource,
    PaneCheckpoint,
    PlanError,
    StreamQuery,
    SystemConfig,
    WindowConfig,
    build_plan,
    execute_plan,
)
from repro.runtime.checkpoint import (
    CHECKPOINT_FORMAT,
    controller_state,
    restore_controller,
)
from repro.runtime.control import BudgetController

KEY = lambda item: item[0]  # noqa: E731

items_strategy = st.lists(
    st.tuples(st.sampled_from("abc"), st.floats(-100, 100)),
    min_size=0,
    max_size=60,
)


def sample_fingerprint(sample):
    """Order-independent exact identity of a `WeightedSample`."""
    return sorted(
        (s.key, tuple(s.items), s.count, s.weight) for s in sample
    )


def make_sampler(seed, total=12):
    return OASRSSampler(
        WaterFillingAllocation(total), KEY, rng=random.Random(seed)
    )


def feed_interval(sampler, items, chunk):
    if chunk:
        for start in range(0, len(items), chunk):
            sampler.process_chunk(items[start : start + chunk])
    else:
        for item in items:
            sampler.offer(item)
    return sampler.close_interval()


class TestSamplerRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(
        before=items_strategy,
        after=items_strategy,
        seed=st.integers(0, 2**16),
        chunk=st.sampled_from([0, 5]),
    )
    def test_restore_at_interval_boundary_is_exact(
        self, before, after, seed, chunk
    ):
        # Uninterrupted sampler: two intervals back to back.
        original = make_sampler(seed)
        feed_interval(original, before, chunk)
        uninterrupted = feed_interval(original, after, chunk)

        # Crashed-and-restored sampler: snapshot at the boundary, restore
        # into a fresh instance built the way a resumed run builds it.
        crashed = make_sampler(seed)
        feed_interval(crashed, before, chunk)
        state = sampler_state(crashed)
        restored = make_sampler(0)
        restore_sampler(restored, state)
        resumed = feed_interval(restored, after, chunk)

        assert sample_fingerprint(resumed) == sample_fingerprint(uninterrupted)
        assert restored._rng.getstate() == original._rng.getstate()

    @settings(max_examples=25, deadline=None)
    @given(before=items_strategy, seed=st.integers(0, 2**16))
    def test_snapshot_does_not_perturb_the_sampler(self, before, seed):
        # Taking a checkpoint must be a pure observation.
        observed = make_sampler(seed)
        plain = make_sampler(seed)
        feed_interval(observed, before, 0)
        feed_interval(plain, before, 0)
        sampler_state(observed)
        extra = [("a", 1.0), ("b", 2.0)] * 10
        assert sample_fingerprint(feed_interval(observed, extra, 0)) == (
            sample_fingerprint(feed_interval(plain, extra, 0))
        )
        assert observed._rng.getstate() == plain._rng.getstate()

    def test_vectorized_reservoir_rng_round_trips(self):
        # Every row is decided on the sampler's NumPy generator; its
        # bit-stream position must survive the round-trip.
        chunk = [("a", float(i)) for i in range(256)]
        original = make_sampler(99, total=8)
        original.process_chunk(chunk)
        original.close_interval()

        state = sampler_state(original)
        restored = make_sampler(0, total=8)
        restore_sampler(restored, state)

        follow_up = [("a", float(-i)) for i in range(512)]
        original.process_chunk(follow_up)
        restored.process_chunk(follow_up)
        assert sample_fingerprint(restored.close_interval()) == (
            sample_fingerprint(original.close_interval())
        )


def synthetic_pane(values, population):
    """One pane's (strata, bound) from a list of per-stratum sample sizes."""
    strata = []
    for index, y in enumerate(values):
        c = max(y, population)
        strata.append(
            StratumStats(
                key=f"s{index}", y=y, c=c, weight=stratum_weight(c, y),
                total=float(y), mean=1.0, variance=1.0 + index,
            )
        )
    sampled = sum(s.y for s in strata)
    bound = ErrorBound(value=1.0, variance=1.0, confidence=0.95,
                       margin=1.0 / (sampled + 1))
    return strata, bound


class TestControllerRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(
        panes=st.lists(
            st.lists(st.integers(1, 400), min_size=1, max_size=4),
            min_size=1,
            max_size=6,
        ),
        split=st.integers(0, 5),
    )
    def test_restored_controller_makes_identical_decisions(self, panes, split):
        split = min(split, len(panes))
        config = SystemConfig(sampling_fraction=0.5, seed=3)
        window = WindowConfig(10.0, 5.0)
        budget = AccuracyBudget(target_margin=0.05)

        uninterrupted = BudgetController(budget, config, window)
        decisions = []
        for values in panes:
            strata, bound = synthetic_pane(values, 1000)
            decisions.append(uninterrupted.on_pane(strata, bound, 1000))

        crashed = BudgetController(budget, config, window)
        for values in panes[:split]:
            strata, bound = synthetic_pane(values, 1000)
            crashed.on_pane(strata, bound, 1000)
        state = controller_state(crashed)
        restored = BudgetController(budget, config, window)
        restore_controller(restored, state)

        resumed = []
        for values in panes[split:]:
            strata, bound = synthetic_pane(values, 1000)
            resumed.append(restored.on_pane(strata, bound, 1000))
        assert resumed == decisions[split:]
        assert [p.sample_budget for p in restored.trajectory] == (
            [p.sample_budget for p in uninterrupted.trajectory]
        )


# ---------------------------------------------------------------------------
# Plan-level resume on the direct engine
# ---------------------------------------------------------------------------


def tiny_stream(seed, n=400):
    rng = random.Random(seed)
    return [
        (i * (12.0 / n), (rng.choice("abc"), rng.gauss(10.0, 2.0)))
        for i in range(n)
    ]


def tiny_plan(stream, engine="direct", **config_overrides):
    query = StreamQuery(key_fn=KEY, value_fn=lambda it: it[1], kind="mean")
    config = SystemConfig(sampling_fraction=0.4, seed=11, **config_overrides)
    return build_plan(
        query, WindowConfig(6.0, 3.0), config,
        engine=engine, strategy="oasrs",
        source=ListSource(stream), name="tiny",
    )


def pane_fingerprint(results):
    return [
        (r.end, r.estimate, r.sampled_items, r.total_items,
         r.error.margin if r.error else None)
        for r in results
    ]


class TestPlanLevelResume:
    """Default ``chunk_size`` 0: whole intervals through ``offer_many`` — the
    column feed on these (projected, columnar) streams, item tuples under
    ``REPRO_NO_COLUMNAR``; one draw rule decides both, so they agree pane
    for pane."""

    @pytest.mark.parametrize("engine", ["direct", "batched"])
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**16))
    def test_resume_matches_uninterrupted_from_every_checkpoint(self, engine, seed):
        stream = tiny_stream(seed)
        info = {}
        base, _ = execute_plan(tiny_plan(stream, engine), run_info=info)
        assert info.get("columnar_fallback") is None
        os.environ["REPRO_NO_COLUMNAR"] = "1"
        try:
            shim, _ = execute_plan(tiny_plan(stream, engine), run_info=info)
        finally:
            del os.environ["REPRO_NO_COLUMNAR"]
        assert "REPRO_NO_COLUMNAR" in info["columnar_fallback"]
        assert shim == base
        store = CheckpointStore()
        policy = CheckpointPolicy(every=1)
        observed, _ = execute_plan(
            tiny_plan(stream, engine, checkpoint=policy), checkpoint_store=store
        )
        assert pane_fingerprint(observed) == pane_fingerprint(base)
        assert len(store) == len(base)
        for index in store.indices():
            resumed, _ = execute_plan(
                tiny_plan(stream, engine, checkpoint=policy),
                resume_from=store.get(index),
            )
            assert pane_fingerprint(resumed) == pane_fingerprint(base)


class TestPipelinedResume:
    """The pipelined loop's checkpoints: the exact path (native-flink) keeps
    no window state, the sampled path (flink-streamapprox) its interval
    history; resuming from any of them, in memory or through ``to_bytes``,
    gives the uninterrupted run's panes bit for bit."""

    @pytest.mark.parametrize("chunk_size", [0, 256])
    @pytest.mark.parametrize("strategy", ["none", "oasrs"])
    def test_resume_from_every_checkpoint_is_bitwise(self, strategy, chunk_size):
        stream = tiny_stream(7, n=2000)
        policy = CheckpointPolicy(every=1)

        def plan(**overrides):
            return build_plan(
                StreamQuery(kind="mean"), WindowConfig(6.0, 3.0),
                SystemConfig(sampling_fraction=0.4, seed=11, chunk_size=chunk_size,
                             **overrides),
                engine="pipelined", strategy=strategy,
                source=ListSource(stream), name="pipelined-resume",
            )

        base, base_cluster = execute_plan(plan())
        store = CheckpointStore()
        observed, _ = execute_plan(plan(checkpoint=policy), checkpoint_store=store)
        assert observed == base and len(store) == len(base) == 3
        for index in store.indices():
            checkpoint = store.get(index)
            assert set(checkpoint.state) == {"strategy", "controller", "history"}
            # The window's last two interval samples; nothing on the exact path.
            history = checkpoint.state["history"]
            assert len(history) == (min(index, 2) if strategy == "oasrs" else 0)
            for resume_from in (
                checkpoint, PaneCheckpoint.from_bytes(checkpoint.to_bytes())
            ):
                resumed, cluster = execute_plan(
                    plan(checkpoint=policy), resume_from=resume_from
                )
                assert resumed == base
                assert cluster.stats.items_ingested == (
                    len(stream) - checkpoint.stream_position
                )


MERGE_QUERIES = {
    "p90": StreamQuery(kind="quantile", q=0.9),
    "grouped-sum": StreamQuery(kind="sum", group_fn=item_key),
}


def merge_path_plan(stream, query, **config_overrides):
    """A direct-engine plan whose panes re-merge value-mode interval samples."""
    config = SystemConfig(
        sampling_fraction=0.4, seed=11, chunk_size=64, **config_overrides
    )
    return build_plan(
        query, WindowConfig(9.0, 3.0), config,
        engine="direct", strategy="oasrs",
        source=ListSource(stream), name="merge-path",
    )


class TestMergePathResume:
    """Quantile / grouped panes keep their interval samples as state.

    In memory the checkpointed history holds value-mode (array-capable)
    members; through ``to_bytes`` they travel as the item tuples they stand
    for, so the first resumed panes merge tuple-mode history with fresh
    value-mode intervals — the per-item fallback — and must still come out
    bit for bit.
    """

    @pytest.mark.parametrize("kind", sorted(MERGE_QUERIES))
    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2**16))
    def test_resume_from_every_checkpoint_is_bitwise(self, kind, seed):
        stream = tiny_stream(seed)
        query = MERGE_QUERIES[kind]
        info = {}
        base, _ = execute_plan(merge_path_plan(stream, query), run_info=info)
        assert info.get("columnar_fallback") is None
        store = CheckpointStore()
        policy = CheckpointPolicy(every=1)
        observed, _ = execute_plan(
            merge_path_plan(stream, query, checkpoint=policy), checkpoint_store=store
        )
        assert observed == base
        assert len(store) == len(base)
        for index in store.indices():
            checkpoint = store.get(index)
            for resume_from in (
                checkpoint, PaneCheckpoint.from_bytes(checkpoint.to_bytes())
            ):
                resumed, _ = execute_plan(
                    merge_path_plan(stream, query, checkpoint=policy),
                    resume_from=resume_from,
                )
                assert resumed == base

    def test_merged_members_round_trip_as_the_tuples_they_stand_for(self):
        parts = []
        for values in ([1.0, 2.5], [-0.0, 4.0, 4.0]):
            sample = WeightedSample()
            sample.add(StratumSample("a", _StratumMembers("a", values), 10, 10 / len(values)))
            parts.append(sample)
        merged = combine_worker_samples(parts)
        members = merged["a"].items
        assert type(members) is _StratumMembers and members.value_array().dtype == float
        checkpoint = PaneCheckpoint(
            plan_name="p", engine="direct", strategy="oasrs", pane_index=1,
            pane_end=3.0, stream_position=5, results=(),
            state={"history": (merged,)},
        )
        clone = PaneCheckpoint.from_bytes(checkpoint.to_bytes())
        restored = clone.state["history"][0]["a"]
        assert type(restored.items) is tuple
        assert repr(restored.items) == repr(tuple(members))
        assert members == restored.items
        assert (restored.count, restored.weight) == (20, 4.0)


# ---------------------------------------------------------------------------
# Store / checkpoint surface and validation
# ---------------------------------------------------------------------------


def one_checkpoint(stream=None):
    stream = stream if stream is not None else tiny_stream(5)
    store = CheckpointStore()
    execute_plan(
        tiny_plan(stream, checkpoint=CheckpointPolicy(every=1)),
        checkpoint_store=store,
    )
    return store


class _Unstamped:
    """Pickles as the `PaneCheckpoint` a pre-``format`` writer would have left."""

    def __init__(self, checkpoint):
        self.fields = {k: v for k, v in vars(checkpoint).items() if k != "format"}

    def __reduce__(self):
        return (object.__new__, (PaneCheckpoint,), self.fields)


class TestCheckpointSurface:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            CheckpointPolicy(every=0)
        with pytest.raises(ValueError):
            SystemConfig(checkpoint="yes")
        with pytest.raises(ValueError):
            SystemConfig(faults="chaos")

    def test_store_latest_and_indices(self):
        store = one_checkpoint()
        indices = store.indices()
        assert indices == sorted(indices)
        latest = store.latest()
        assert latest is not None
        assert latest.pane_index == max(indices)
        assert store.get(indices[0]).pane_index == indices[0]

    def test_checkpoint_bytes_round_trip(self):
        checkpoint = one_checkpoint().latest()
        clone = PaneCheckpoint.from_bytes(checkpoint.to_bytes())
        assert clone.pane_index == checkpoint.pane_index
        assert clone.pane_end == checkpoint.pane_end
        assert pane_fingerprint(clone.results) == (
            pane_fingerprint(checkpoint.results)
        )

    def test_from_bytes_rejects_other_pickles(self):
        with pytest.raises(TypeError):
            PaneCheckpoint.from_bytes(pickle.dumps({"not": "a checkpoint"}))

    def test_store_dump_load_round_trip(self, tmp_path):
        stream = tiny_stream(5)
        store = one_checkpoint(stream)
        path = tmp_path / "checkpoints.pkl"
        store.dump(path)
        loaded = CheckpointStore.load(path)
        assert loaded.indices() == store.indices()
        # A checkpoint that crossed the disk boundary still resumes exactly.
        base, _ = execute_plan(tiny_plan(stream))
        resumed, _ = execute_plan(
            tiny_plan(stream, checkpoint=CheckpointPolicy(every=1)),
            resume_from=loaded.latest(),
        )
        assert pane_fingerprint(resumed) == pane_fingerprint(base)

    def test_checkpoint_requires_replayable_source(self):
        class OneShotSource(ListSource):
            # A source that cannot re-produce its events (e.g. a live feed).
            replayable = False

        query = StreamQuery(key_fn=KEY, value_fn=lambda it: it[1])
        with pytest.raises(PlanError, match="replayable"):
            build_plan(
                query, WindowConfig(6.0, 3.0),
                SystemConfig(checkpoint=CheckpointPolicy(every=1)),
                engine="direct", strategy="oasrs",
                source=OneShotSource(tiny_stream(1)), name="bad",
            )

    def test_faults_require_shardable_parallel_plan(self):
        from repro.core.recovery import FaultSchedule, ShardKill

        query = StreamQuery(key_fn=KEY, value_fn=lambda it: it[1])
        faults = FaultSchedule(kills=(ShardKill(interval=0, worker=0),))
        with pytest.raises(PlanError, match="parallelism"):
            build_plan(
                query, WindowConfig(6.0, 3.0),
                SystemConfig(faults=faults),
                engine="direct", strategy="oasrs",
                source=ListSource(tiny_stream(1)), name="bad",
            )

    def test_resume_rejects_engine_mismatch(self):
        stream = tiny_stream(5)
        checkpoint = one_checkpoint(stream).latest()
        query = StreamQuery(key_fn=KEY, value_fn=lambda it: it[1])
        batched_plan = build_plan(
            query, WindowConfig(6.0, 3.0),
            SystemConfig(sampling_fraction=0.4, seed=11,
                         checkpoint=CheckpointPolicy(every=1)),
            engine="batched", strategy="oasrs",
            source=ListSource(stream), name="other",
        )
        with pytest.raises(PlanError, match="cannot resume"):
            execute_plan(batched_plan, resume_from=checkpoint)

    @pytest.mark.parametrize("engine", ["direct", "batched", "pipelined"])
    def test_resume_rejects_another_state_format(self, engine):
        stream = tiny_stream(5)
        policy = CheckpointPolicy(every=1)
        store = CheckpointStore()
        base, _ = execute_plan(
            tiny_plan(stream, engine, checkpoint=policy), checkpoint_store=store
        )
        current = store.get(1)
        assert current.format == CHECKPOINT_FORMAT
        revived = PaneCheckpoint.from_bytes(current.to_bytes())
        assert revived.format == CHECKPOINT_FORMAT
        resumed, _ = execute_plan(
            tiny_plan(stream, engine, checkpoint=policy), resume_from=revived
        )
        assert pane_fingerprint(resumed) == pane_fingerprint(base)
        # Hand-downgraded: the pickle of a checkpoint written before the
        # stamp existed has no "format" entry and reads as version 0.
        unstamped = pickle.loads(pickle.dumps(_Unstamped(current)))
        assert type(unstamped) is PaneCheckpoint and unstamped.format == 0
        # Formats 1 and 2 are the layouts whose direct-engine history held
        # (y, c, Σv, Σv²) tuples and moment records; 3 is the one whose
        # pipelined state held (end, sample) pairs and exact-pane items.
        stale_formats = (1, 2, 3, CHECKPOINT_FORMAT + 1)
        for stale in (
            unstamped,
            *(dataclasses.replace(current, format=f) for f in stale_formats),
        ):
            with pytest.raises(
                PlanError, match=f"format {stale.format}, .* format {CHECKPOINT_FORMAT}"
            ):
                execute_plan(
                    tiny_plan(stream, engine, checkpoint=policy), resume_from=stale
                )

    def test_resume_rejects_truncated_source(self):
        stream = tiny_stream(5)
        checkpoint = one_checkpoint(stream).latest()
        short = stream[: checkpoint.stream_position - 1]
        with pytest.raises(PlanError, match="beyond the source"):
            execute_plan(
                tiny_plan(short, checkpoint=CheckpointPolicy(every=1)),
                resume_from=checkpoint,
            )
