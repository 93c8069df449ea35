"""Worker-loss chaos: kill shard workers mid-interval, recover, stay honest.

`SystemConfig(faults=FaultSchedule(...))` injects worker losses into the
sharded sampling path; recovery is discard-and-rewiden (§ the
`repro.core.recovery` contract promoted into `ShardedExecutor`): the dead
worker's un-rerouted items are discarded, the surviving workers' reservoirs
re-widen over the remaining sub-population, and the pane reports the
incident instead of hiding it.  These tests pin the observable contract:

* loss accounting is exact — the affected panes' populations drop by
  precisely ``items_lost``, and every pane whose window excludes the
  killed interval stays bitwise identical to the healthy run,
* the estimate over the surviving sub-population stays near the ground
  truth (within twice the pane's own widened CI half-width),
* permanent kills keep the worker dead; killing every worker fails the
  run loudly; and fault runs checkpoint/resume exactly like healthy ones.
"""

import pytest

from chaos.harness import (
    CHAOS_WINDOW,
    chaos_plan,
    chaos_query,
    chaos_stream,
    pane_fingerprint,
)
from repro.runtime import (
    CheckpointPolicy,
    CheckpointStore,
    FaultSchedule,
    ShardKill,
    SystemConfig,
    execute_plan,
)
from repro.system import NativeStreamApproxSystem

#: The killed interval and the pane indices whose window still covers it
#: (length 5 s = two 2.5 s slide intervals → interval 2 is inside the
#: panes closing intervals 2 and 3).
KILL_INTERVAL = 2
AFFECTED_PANES = (2, 3)
#: The recovery echo reaches one interval further: water-filling derives
#: interval 3's reservoir capacities from the killed interval's (reduced)
#: observed counts, so interval 3's *sample* differs while its population
#: stays healthy — panes are bitwise identical again once both the killed
#: and the rewidened interval have left the window.
ECHO_PANES = (4,)


def one_kill(permanent=False):
    return FaultSchedule(
        kills=(ShardKill(interval=KILL_INTERVAL, worker=1, permanent=permanent),)
    )


class TestLossAccounting:
    def test_loss_is_exact_and_contained(self, chaos_seed):
        stream = chaos_stream(chaos_seed)
        base, _ = execute_plan(chaos_plan(stream, parallelism=4))
        fault, _ = execute_plan(
            chaos_plan(stream, parallelism=4, faults=one_kill())
        )
        assert len(fault) == len(base)

        kill_pane = fault[AFFECTED_PANES[0]]
        lost = sum(event.items_lost for event in kill_pane.recovery)
        assert lost > 0, "the kill produced no loss"
        rerouted = sum(event.items_rerouted for event in kill_pane.recovery)
        assert rerouted > 0, "no items survived onto other workers"

        for index, (healthy, chaotic) in enumerate(zip(base, fault)):
            if index in AFFECTED_PANES:
                # Window still covers the killed interval: population down
                # by exactly the discarded items, nothing silently dropped.
                assert chaotic.total_items == healthy.total_items - lost
            elif index in ECHO_PANES:
                # Rewidening echo: full population, different sample.
                assert chaotic.total_items == healthy.total_items
            else:
                # Outside the kill's reach the fault run is bitwise
                # identical — recovery leaves no residue.
                assert pane_fingerprint([chaotic]) == pane_fingerprint([healthy])

    def test_recovery_events_attach_only_to_the_kill_pane(self, chaos_seed):
        fault, _ = execute_plan(
            chaos_plan(chaos_stream(chaos_seed), parallelism=4, faults=one_kill())
        )
        for index, pane in enumerate(fault):
            if index == AFFECTED_PANES[0]:
                assert [e.worker for e in pane.recovery] == [1]
                assert pane.recovery[0].interval == KILL_INTERVAL
            else:
                assert pane.recovery == ()


class TestEstimateQuality:
    def test_estimate_stays_within_widened_ci(self, chaos_seed):
        # System-level run: exact ground truth joined per pane.  The
        # surviving sub-population is a random (round-robin) subset, so the
        # estimate stays unbiased; twice the pane's own CI half-width is a
        # seed-robust bound for a single 95 % interval.
        config = SystemConfig(
            sampling_fraction=0.5, seed=17, parallelism=4, faults=one_kill()
        )
        report = NativeStreamApproxSystem(
            chaos_query(), CHAOS_WINDOW, config
        ).run(chaos_stream(chaos_seed))
        assert report.items_lost > 0
        assert len(report.recovery_events) == 1
        touched = [r for r in report.results if r.recovery]
        assert touched, "recovery events did not surface in the report"
        for pane in touched:
            assert pane.error is not None and pane.error.margin > 0
            assert abs(pane.estimate - pane.exact) <= 2 * pane.error.margin

    def test_kill_widens_the_ci(self, chaos_seed):
        stream = chaos_stream(chaos_seed)
        base, _ = execute_plan(chaos_plan(stream, parallelism=4))
        fault, _ = execute_plan(
            chaos_plan(stream, parallelism=4, faults=one_kill())
        )
        kill_index = AFFECTED_PANES[0]
        assert fault[kill_index].error.margin > base[kill_index].error.margin


class TestFailureModes:
    def test_permanent_kill_stays_dead(self, chaos_seed):
        # Re-killing an already-dead worker is a no-op: one event total,
        # flagged permanent, and the run still completes.
        faults = FaultSchedule(kills=(
            ShardKill(interval=KILL_INTERVAL, worker=1, permanent=True),
            ShardKill(interval=KILL_INTERVAL + 2, worker=1, permanent=True),
        ))
        fault, _ = execute_plan(
            chaos_plan(chaos_stream(chaos_seed), parallelism=4, faults=faults)
        )
        events = [event for pane in fault for event in pane.recovery]
        assert len(events) == 1
        assert events[0].permanent

    def test_killing_every_worker_fails_loudly(self, chaos_seed):
        faults = FaultSchedule(kills=tuple(
            ShardKill(interval=0, worker=w, permanent=True) for w in range(4)
        ))
        with pytest.raises(RuntimeError, match="all shard workers"):
            execute_plan(
                chaos_plan(chaos_stream(chaos_seed), parallelism=4, faults=faults)
            )

    def test_transient_kill_restores_worker_next_interval(self, chaos_seed):
        # Non-permanent kill: the worker rejoins after the interval, so a
        # second kill on the same worker produces a second event.
        faults = FaultSchedule(kills=(
            ShardKill(interval=KILL_INTERVAL, worker=1),
            ShardKill(interval=KILL_INTERVAL + 2, worker=1),
        ))
        fault, _ = execute_plan(
            chaos_plan(chaos_stream(chaos_seed), parallelism=4, faults=faults)
        )
        events = [event for pane in fault for event in pane.recovery]
        assert [event.interval for event in events] == [
            KILL_INTERVAL, KILL_INTERVAL + 2,
        ]


class TestKillPlusCrash:
    def test_fault_run_checkpoints_and_resumes_exactly(self, chaos_seed):
        # The full chaos scenario: a worker dies mid-interval AND the driver
        # crashes between panes; the resumed run must reproduce the fault
        # run (recovery events included) bit for bit.
        stream = chaos_stream(chaos_seed)
        store = CheckpointStore()
        fault_base, _ = execute_plan(
            chaos_plan(stream, parallelism=4, faults=one_kill(),
                       checkpoint=CheckpointPolicy(every=1)),
            checkpoint_store=store,
        )
        assert len(store) == len(fault_base)
        for index in store.indices():
            resumed, _ = execute_plan(
                chaos_plan(stream, parallelism=4, faults=one_kill(),
                           checkpoint=CheckpointPolicy(every=1)),
                resume_from=store.get(index),
            )
            assert pane_fingerprint(resumed) == pane_fingerprint(fault_base)
            resumed_events = [
                (e.interval, e.worker, e.items_lost)
                for pane in resumed for e in pane.recovery
            ]
            base_events = [
                (e.interval, e.worker, e.items_lost)
                for pane in fault_base for e in pane.recovery
            ]
            assert resumed_events == base_events
