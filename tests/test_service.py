"""Tests for the multi-tenant query service (`repro.service`).

Covers the serving-layer contracts the runtime tests cannot:

* tenant isolation — one tenant exhausting its budget never starves
  another, and the ``sampled <= observed * budget`` invariant holds at
  every instant (zero cross-tenant leakage);
* determinism — concurrently submitted queries return answers bitwise
  identical to the same plans run standalone through `execute_plan`,
  regardless of submission order or thread interleaving;
* admission rejections — every typed `RejectionReason` surfaces, both
  in-process and over the TCP wire;
* graceful shutdown — ``close(drain=True)`` refuses new work but
  finishes in-flight queries;
* fair-share capacity — queued tenants are granted least-granted-first,
  FIFO within a tenant, with grant-when-idle as the deadlock backstop.

Plain pytest: each async scenario runs under its own ``asyncio.run``.
"""

import asyncio

import pytest

from repro.runtime import StreamQuery, SystemConfig, WindowConfig, execute_plan
from repro.service import (
    AdmissionRejected,
    QueryService,
    QuerySubmission,
    RejectionReason,
    TenantScheduler,
)
from repro.service.protocol import _config_from_message
from repro.workloads.synthetic import stream_by_rates


def _stream(seed=9):
    return stream_by_rates({"A": 500, "B": 120, "C": 30}, duration=12, seed=seed)


def _service(capacity=1_000_000.0, max_workers=2, **tenants):
    service = QueryService(
        scheduler=TenantScheduler(capacity=capacity), max_workers=max_workers
    )
    for name, budget in (tenants or {"alice": 1.0}).items():
        service.register_tenant(name, budget)
    service.hub.register("ticks", _stream())
    return service


def _sub(tenant="alice", source="ticks", seed=7, fraction=0.3, **kwargs):
    return QuerySubmission(
        tenant_id=tenant,
        source=source,
        config=SystemConfig(sampling_fraction=fraction, seed=seed),
        **kwargs,
    )


# ---------------------------------------------------------------------------
# scheduler: ratio-accounting admission


def test_budget_validation():
    sched = TenantScheduler()
    with pytest.raises(ValueError):
        sched.register("a", budget=0.0)
    with pytest.raises(ValueError):
        sched.register("a", budget=1.5)
    with pytest.raises(ValueError):
        TenantScheduler(capacity=0.0)


def test_unknown_tenant_raises_typed_rejection():
    sched = TenantScheduler()
    with pytest.raises(AdmissionRejected) as exc:
        sched.admit("ghost", 1.0)
    assert exc.value.reason is RejectionReason.UNKNOWN_TENANT


def test_full_budget_admits_everything():
    sched = TenantScheduler()
    sched.register("alice", budget=1.0)
    for _ in range(50):
        sched.admit("alice", 123.4)
    account = sched.account("alice")
    assert account.admitted == 50 and account.rejected == 0
    assert account.ratio == pytest.approx(1.0)


def test_half_budget_alternates_and_never_leaks():
    sched = TenantScheduler()
    sched.register("bob", budget=0.5)
    outcomes = []
    for _ in range(20):
        try:
            sched.admit("bob", 100.0)
            outcomes.append(True)
        except AdmissionRejected as exc:
            assert exc.reason is RejectionReason.BUDGET_EXHAUSTED
            outcomes.append(False)
        account = sched.account("bob")
        # The zero-leakage invariant, checked after every single decision.
        assert account.sampled <= account.observed * account.budget + 1e-6
    # Unit-cost submissions against budget 0.5: reject, admit, reject, ...
    assert outcomes == [False, True] * 10
    assert sched.account("bob").ratio == pytest.approx(0.5)


def test_rejected_work_still_grows_observed():
    sched = TenantScheduler()
    sched.register("bob", budget=0.25)
    admitted = 0
    for _ in range(100):
        try:
            sched.admit("bob", 10.0)
            admitted += 1
        except AdmissionRejected:
            pass
    assert admitted == 25  # the ratio converges to the budget exactly
    assert sched.account("bob").ratio == pytest.approx(0.25)


# ---------------------------------------------------------------------------
# scheduler: fair-share capacity


def test_fair_share_grants_least_granted_tenant_first():
    async def scenario():
        sched = TenantScheduler(capacity=10.0)
        sched.register("a")
        sched.register("b")
        await sched.acquire("a", 10.0)  # fills capacity
        order = []

        async def wait(tenant, tag):
            await sched.acquire(tenant, 10.0)
            order.append(tag)
            sched.release(tenant, 10.0)

        # a queues three more, then b queues one.
        tasks = [
            asyncio.ensure_future(wait("a", "a1")),
            asyncio.ensure_future(wait("a", "a2")),
            asyncio.ensure_future(wait("a", "a3")),
            asyncio.ensure_future(wait("b", "b1")),
        ]
        await asyncio.sleep(0)  # let every waiter enqueue
        sched.release("a", 10.0)
        await asyncio.gather(*tasks)
        return order

    order = asyncio.run(scenario())
    # b has the least cumulative granted cost, so it goes first despite
    # queueing last; a's waiters then drain FIFO.
    assert order == ["b1", "a1", "a2", "a3"]


def test_grant_when_idle_prevents_deadlock():
    async def scenario():
        sched = TenantScheduler(capacity=5.0)
        sched.register("a")
        await sched.acquire("a", 50.0)  # 10x capacity, but nothing in flight
        sched.release("a", 50.0)
        return True

    assert asyncio.run(scenario())


def test_cancelled_waiter_is_removed_from_queue():
    async def scenario():
        sched = TenantScheduler(capacity=10.0)
        sched.register("a")
        sched.register("b")
        await sched.acquire("a", 10.0)
        doomed = asyncio.ensure_future(sched.acquire("a", 10.0))
        survivor = asyncio.ensure_future(sched.acquire("b", 10.0))
        await asyncio.sleep(0)
        doomed.cancel()
        await asyncio.gather(doomed, return_exceptions=True)
        sched.release("a", 10.0)
        await survivor
        sched.release("b", 10.0)
        return sched.account("a").active_cost, sched.account("b").active_cost

    a_active, b_active = asyncio.run(scenario())
    assert a_active == 0.0 and b_active == 0.0


def test_idle_ledger_reads_exactly_zero_whatever_the_release_order():
    """Grants released in completion order left the per-tenant float sum a
    few ulps off zero (seen as ``-2.27e-13`` under the load benchmark)."""

    async def scenario():
        sched = TenantScheduler(capacity=1e9)
        sched.register("a")
        costs = [1789.0 * 0.1, 1200.3, 0.7, 2048.0 * 0.3, 1e-3]
        for cost in costs:
            await sched.acquire("a", cost)
        for cost in sorted(costs):
            sched.release("a", cost)
        return sched.account("a").active_cost, sched.active_cost

    assert asyncio.run(scenario()) == (0.0, 0.0)


# ---------------------------------------------------------------------------
# service: submission, streaming, determinism


def test_submit_streams_panes_then_answer():
    async def scenario():
        service = _service()
        try:
            handle = await service.submit(_sub())
            panes = [pane async for pane in handle.panes()]
            answer = await handle.result()
            return panes, answer
        finally:
            await service.close()

    panes, answer = asyncio.run(scenario())
    assert len(panes) == len(answer.report.results) > 0
    assert panes == answer.report.results
    assert answer.estimate == answer.report.results[-1].estimate
    assert answer.time_to_first_pane is not None
    assert answer.time_to_answer >= answer.time_to_first_pane >= 0.0


def test_answer_bitwise_equal_to_standalone_execute_plan():
    async def scenario():
        service = _service()
        try:
            handle = await service.submit(_sub(seed=13, fraction=0.4))
            answer = await handle.result()
            return handle.plan, answer
        finally:
            await service.close()

    plan, answer = asyncio.run(scenario())
    standalone, _cluster = execute_plan(plan)
    assert answer.report.results == standalone


@pytest.mark.parametrize("engine", ["direct", "batched", "pipelined"])
def test_all_engines_serve_and_match_standalone(engine):
    async def scenario():
        service = _service()
        try:
            handle = await service.submit(_sub(engine=engine, seed=21))
            answer = await handle.result()
            return handle.plan, answer
        finally:
            await service.close()

    plan, answer = asyncio.run(scenario())
    standalone, _cluster = execute_plan(plan)
    assert answer.report.results == standalone


def test_concurrent_submissions_are_deterministic():
    """Same seeds => same answers, regardless of submission order or
    thread interleaving."""
    seeds = [3, 11, 29, 47]

    def run_batch(order):
        async def scenario():
            service = _service(max_workers=2)
            try:
                handles = await asyncio.gather(
                    *(service.submit(_sub(seed=s)) for s in order)
                )
                answers = await asyncio.gather(*(h.result() for h in handles))
                return {
                    s: a.report.results for s, a in zip(order, answers)
                }, {s: h.plan for s, h in zip(order, handles)}
            finally:
                await service.close()

        return asyncio.run(scenario())

    forward, plans = run_batch(seeds)
    backward, _ = run_batch(list(reversed(seeds)))
    assert forward == backward
    for seed in seeds:
        standalone, _cluster = execute_plan(plans[seed])
        assert forward[seed] == standalone


def test_quantile_query_kind_streams_dkw_bounds():
    async def scenario():
        service = _service()
        try:
            handle = await service.submit(_sub(kind="quantile", q=0.9, seed=5))
            panes = [pane async for pane in handle.panes()]
            answer = await handle.result()
            return handle.plan, panes, answer
        finally:
            await service.close()

    plan, panes, answer = asyncio.run(scenario())
    assert plan.query.kind == "quantile" and plan.query.q == 0.9
    for pane in panes:
        if pane.total_items:
            assert pane.error.q == 0.9  # DKW brackets carry their rank
            lower, upper = pane.error.interval
            assert lower <= pane.estimate <= upper
    standalone, _cluster = execute_plan(plan)
    assert answer.report.results == standalone


# ---------------------------------------------------------------------------
# service: tenant isolation and admission rejections


def test_budget_exhausted_tenant_never_starves_another():
    async def scenario():
        service = _service(alice=1.0, bob=0.5)
        try:
            outcomes = {"alice": [], "bob": []}
            for _ in range(4):
                for tenant in ("bob", "alice"):
                    try:
                        handle = await service.submit(_sub(tenant=tenant))
                        await handle.result()
                        outcomes[tenant].append(True)
                    except AdmissionRejected as exc:
                        assert exc.reason is RejectionReason.BUDGET_EXHAUSTED
                        outcomes[tenant].append(False)
            return outcomes, service.scheduler.snapshot()
        finally:
            await service.close()

    outcomes, snapshot = asyncio.run(scenario())
    assert outcomes["alice"] == [True] * 4  # alice untouched by bob's rejections
    assert outcomes["bob"] == [False, True, False, True]
    for tenant, ledger in snapshot.items():
        assert ledger["sampled"] <= ledger["observed"] * ledger["budget"] + 1e-6
    # Settle-up swaps each admitted estimate for the (smaller) measured
    # actuals, so the achieved ratio lands at or below the budget instead
    # of exactly on it; the refunds show up as a negative settled total.
    assert 0 < snapshot["bob"]["ratio"] <= 0.5 + 1e-6
    assert 0 < snapshot["alice"]["ratio"] <= 1.0 + 1e-6
    assert snapshot["bob"]["settled"] < 0
    assert snapshot["bob"]["settles"] == 2


def _reject_reason(service, sub):
    async def scenario():
        try:
            await service.submit(sub)
        except AdmissionRejected as exc:
            return exc.reason
        finally:
            await service.close()
        return None

    return asyncio.run(scenario())


def test_unknown_tenant_rejected():
    assert (
        _reject_reason(_service(), _sub(tenant="ghost"))
        is RejectionReason.UNKNOWN_TENANT
    )


def test_unknown_source_rejected():
    assert (
        _reject_reason(_service(), _sub(source="nope"))
        is RejectionReason.UNKNOWN_SOURCE
    )


def test_invalid_plan_rejected():
    assert (
        _reject_reason(_service(), _sub(engine="warp-drive"))
        is RejectionReason.PLAN_INVALID
    )


def test_unknown_tenant_checked_before_source():
    # A ghost tenant naming a ghost source is rejected for the tenant:
    # identity comes before capability.
    assert (
        _reject_reason(_service(), _sub(tenant="ghost", source="nope"))
        is RejectionReason.UNKNOWN_TENANT
    )


# ---------------------------------------------------------------------------
# scheduler: settle-up reconciliation
#
# Admission charges the pre-run *estimate*; `settle` swaps it for the
# measured actual once the run reports ``sampled_items``.  With a constant
# actual a = k·e against budget b, the long-run achieved ratio converges to
# min(b, k) and the admitted *fraction* to min(1, b/k): over-estimates
# (k < 1) refund headroom so more queries get in; under-estimates (k > 1)
# charge the surplus forward so fewer do.


def _settle_run(budget, estimate, actual, rounds=400):
    sched = TenantScheduler()
    sched.register("t", budget=budget)
    admitted = 0
    for _ in range(rounds):
        try:
            sched.admit("t", estimate)
        except AdmissionRejected:
            continue
        admitted += 1
        sched.settle("t", estimate, actual)
    return sched.account("t"), admitted


def test_settle_refunds_overestimates_and_admits_more():
    # Budget 0.5, actual = 0.8x the estimate: refunds push the admitted
    # fraction to b/k = 62.5% while the achieved ratio stays on budget.
    account, admitted = _settle_run(0.5, 100.0, 80.0)
    assert account.ratio == pytest.approx(0.5, abs=0.01)
    assert admitted / 400 == pytest.approx(0.625, abs=0.02)
    assert account.settled == pytest.approx(-20.0 * admitted)
    assert account.settles == admitted
    # Refund-only settling keeps the invariant at every step's end state.
    assert account.sampled <= account.observed * account.budget + 1e-6


def test_settle_charges_underestimates_and_admits_less():
    # Budget 0.5, actual = 2x the estimate: the surplus carried forward
    # halves the admitted fraction to b/k = 25%; the measured ratio still
    # converges to the budget, so under-reporting cost buys nothing.
    account, admitted = _settle_run(0.5, 100.0, 200.0)
    assert account.ratio == pytest.approx(0.5, abs=0.01)
    assert admitted / 400 == pytest.approx(0.25, abs=0.02)
    assert account.settled == pytest.approx(100.0 * admitted)


def test_settle_clamps_at_zero():
    sched = TenantScheduler()
    sched.register("t", budget=1.0)
    sched.admit("t", 10.0)
    delta = sched.settle("t", estimated=10.0, actual=0.0)
    assert delta == -10.0
    account = sched.account("t")
    assert account.sampled == 0.0 and account.granted_cost == 0.0
    # A refund larger than the ledger cannot drive either below zero.
    sched.settle("t", estimated=50.0, actual=0.0)
    assert sched.account("t").sampled == 0.0


# ---------------------------------------------------------------------------
# service: metrics snapshot and settle-up wiring


def test_service_metrics_snapshot_structure():
    async def scenario():
        service = _service(alice=1.0, bob=0.5)
        try:
            for _ in range(2):
                handle = await service.submit(_sub())
                await handle.result()
            try:
                await service.submit(_sub(tenant="ghost"))
            except AdmissionRejected:
                pass
            return service.metrics_snapshot()
        finally:
            await service.close()

    snapshot = asyncio.run(scenario())
    service_stats = snapshot["service"]
    assert service_stats["submitted"] == 3
    assert service_stats["admitted"] == 2
    assert service_stats["rejected"] == 1
    assert service_stats["completed"] == 2
    assert service_stats["failed"] == 0
    assert service_stats["in_flight"] == 0
    assert service_stats["queue_depth"] == 0
    latency = service_stats["time_to_answer"]
    assert latency["count"] == 2 and latency["p99"] > 0
    assert service_stats["admission_wait"]["count"] == 2
    alice = snapshot["tenants"]["alice"]
    assert alice["admitted"] == 2 and alice["settles"] == 2
    assert alice["time_to_answer"]["count"] == 2
    # bob never submitted: ledger row present, no latency series yet.
    bob = snapshot["tenants"]["bob"]
    assert bob["admitted"] == 0
    assert bob["time_to_answer"]["count"] == 0


def test_answer_carries_actual_cost_and_settles_ledger():
    async def scenario():
        service = _service()
        try:
            handle = await service.submit(_sub())
            answer = await handle.result()
            return answer, handle.cost, service.scheduler.snapshot()
        finally:
            await service.close()

    answer, estimated, snapshot = asyncio.run(scenario())
    # Each kept item is charged once; summing pane.sampled_items would
    # double-count items landing in two overlapping sliding panes.
    assert 0 < answer.actual_cost <= sum(
        r.sampled_items for r in answer.report.results
    )
    ledger = snapshot["alice"]
    assert ledger["settles"] == 1
    assert ledger["settled"] == pytest.approx(answer.actual_cost - estimated)
    assert ledger["sampled"] == pytest.approx(answer.actual_cost)


# ---------------------------------------------------------------------------
# service: shared sources and shutdown


def test_source_hub_materializes_shared_sources_once():
    async def scenario():
        service = _service(alice=1.0, carol=1.0)
        try:
            handles = await asyncio.gather(
                *(
                    service.submit(_sub(tenant=t, seed=s))
                    for t in ("alice", "carol")
                    for s in (1, 2, 3)
                )
            )
            await asyncio.gather(*(h.result() for h in handles))
            return service.hub.materializations
        finally:
            await service.close()

    assert asyncio.run(scenario()) == 1


def test_workload_spec_sources_are_cached_by_parameters():
    async def scenario():
        service = _service(alice=1.0, carol=1.0)
        spec = {"workload": "gaussian", "rate": 100, "duration": 10, "seed": 4}
        try:
            handles = await asyncio.gather(
                service.submit(_sub(tenant="alice", source=dict(spec))),
                service.submit(_sub(tenant="carol", source=dict(spec))),
            )
            answers = await asyncio.gather(*(h.result() for h in handles))
            # 1 for the registered "ticks" stream + 1 for the shared spec.
            return service.hub.materializations, answers
        finally:
            await service.close()

    materializations, answers = asyncio.run(scenario())
    assert materializations == 2
    assert answers[0].report.results == answers[1].report.results


def test_graceful_shutdown_drains_in_flight_queries():
    async def scenario():
        service = _service()
        handle = await service.submit(_sub())
        await service.close(drain=True)  # waits for the query to finish
        assert handle.done
        answer = await handle.result()
        with pytest.raises(AdmissionRejected) as exc:
            await service.submit(_sub())
        return answer, exc.value.reason

    answer, reason = asyncio.run(scenario())
    assert answer.report.results
    assert reason is RejectionReason.DRAINING


def test_capacity_constrained_service_still_answers_correctly():
    """Fair-share queueing delays starts; answers stay bitwise identical."""

    async def scenario():
        # Tiny capacity: every query over ~4k events queues behind the
        # previous one, exercising acquire/release on the real service.
        service = _service(capacity=1.0, alice=1.0, carol=1.0)
        try:
            handles = await asyncio.gather(
                *(
                    service.submit(_sub(tenant=t, seed=s))
                    for t, s in [("alice", 1), ("carol", 2), ("alice", 3)]
                )
            )
            answers = await asyncio.gather(*(h.result() for h in handles))
            return [h.plan for h in handles], answers
        finally:
            await service.close()

    plans, answers = asyncio.run(scenario())
    for plan, answer in zip(plans, answers):
        standalone, _cluster = execute_plan(plan)
        assert answer.report.results == standalone


# ---------------------------------------------------------------------------
# TCP endpoint


async def _tcp_request(port, messages):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    import json

    for message in messages:
        writer.write((json.dumps(message) + "\n").encode())
    await writer.drain()
    replies = []
    while True:
        line = await asyncio.wait_for(reader.readline(), timeout=30)
        if not line:
            break
        reply = json.loads(line)
        replies.append(reply)
        if reply["type"] in ("answer", "rejected", "error", "pong", "metrics"):
            break
    writer.close()
    try:
        await writer.wait_closed()
    except ConnectionError:
        pass
    return replies


def test_tcp_submit_round_trip():
    async def scenario():
        service = _service()
        try:
            _host, port = await service.serve_tcp(port=0)
            return await _tcp_request(
                port,
                [
                    {
                        "op": "submit",
                        "id": "c1",
                        "tenant": "alice",
                        "source": "ticks",
                        "config": {"fraction": 0.3, "seed": 7},
                    }
                ],
            )
        finally:
            await service.close()

    async def reference():
        # The same submission in-process: the wire must carry the same
        # estimates the async API yields.
        service = _service()
        try:
            handle = await service.submit(_sub(seed=7, fraction=0.3))
            return await handle.result()
        finally:
            await service.close()

    replies = asyncio.run(scenario())
    answer_ref = asyncio.run(reference())
    assert replies[0]["type"] == "admitted" and replies[0]["id"] == "c1"
    panes = [r for r in replies if r["type"] == "pane"]
    assert len(panes) == len(answer_ref.report.results)
    final = replies[-1]
    assert final["type"] == "answer"
    assert final["estimate"] == answer_ref.estimate
    assert final["panes"] == len(answer_ref.report.results)
    assert [p["estimate"] for p in panes] == [
        r.estimate for r in answer_ref.report.results
    ]


def test_tcp_rejections_and_ping():
    async def scenario():
        service = _service()
        try:
            _host, port = await service.serve_tcp(port=0)
            pong = await _tcp_request(port, [{"op": "ping"}])
            ghost = await _tcp_request(
                port,
                [{"op": "submit", "id": "g", "tenant": "ghost", "source": "ticks"}],
            )
            missing = await _tcp_request(
                port, [{"op": "submit", "id": "m", "tenant": "alice"}]
            )
            return pong, ghost, missing
        finally:
            await service.close()

    pong, ghost, missing = asyncio.run(scenario())
    assert pong[0]["type"] == "pong"
    assert ghost[0]["type"] == "rejected"
    assert ghost[0]["reason"] == "unknown-tenant"
    assert missing[0]["type"] == "error"
    assert "source" in missing[0]["detail"]


def test_wire_parallelism_is_bounded_by_the_cluster():
    """A wire ``parallelism`` past the simulated cluster's cores fails
    validation: it never reaches a run (which would build a sampler and a
    seed per worker every interval)."""
    with pytest.raises(ValueError, match="parallelism"):
        _config_from_message({"parallelism": 10**6})
    assert _config_from_message({"parallelism": 8}).parallelism == 8


def test_tcp_submit_with_huge_parallelism_gets_one_error_reply():
    async def scenario():
        service = _service()
        try:
            _host, port = await service.serve_tcp(port=0)
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            submit = {"op": "submit", "id": "p", "tenant": "alice", "source": "ticks",
                      "config": {"parallelism": 10**6}}
            for message in (submit, {"op": "ping"}):
                writer.write((json.dumps(message) + "\n").encode())
            await writer.drain()
            replies = []
            while not replies or replies[-1]["type"] != "pong":
                line = await asyncio.wait_for(reader.readline(), timeout=30)
                assert line, "server hung up"
                replies.append(json.loads(line))
            writer.close()
            return replies, service.metrics_snapshot()["service"]["submitted"]
        finally:
            await service.close()

    import json

    replies, submitted = asyncio.run(scenario())
    assert [reply["type"] for reply in replies] == ["error", "pong"]
    assert replies[0]["id"] == "p" and "parallelism" in replies[0]["detail"]
    assert submitted == 0


def test_tcp_oversized_line_gets_an_error_reply_and_a_clean_hangup():
    """A line past asyncio's stream limit used to escape the connection
    handler as an unhandled ``ValueError``: no reply, a traceback in the
    loop's exception handler.  It is a protocol error like any other —
    except that the stream position afterwards is no message boundary, so
    the server answers once and hangs up."""

    async def scenario():
        unhandled = []
        asyncio.get_running_loop().set_exception_handler(
            lambda _loop, context: unhandled.append(context)
        )
        service = _service()
        try:
            _host, port = await service.serve_tcp(port=0)
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b'{"op":"ping","pad":"' + b"x" * 70_000 + b'"}\n')
            writer.write(b'{"op":"ping"}\n')
            await writer.drain()
            lines = []
            while True:
                try:
                    line = await asyncio.wait_for(reader.readline(), timeout=30)
                except ConnectionError:  # hung up with our tail still unread
                    break
                if not line:
                    break
                lines.append(line)
            writer.close()
            pong = await _tcp_request(port, [{"op": "ping"}])
        finally:
            await service.close()
        return lines, pong, unhandled

    import json

    lines, pong, unhandled = asyncio.run(scenario())
    (reply,) = [json.loads(line) for line in lines]
    assert reply["type"] == "error" and reply["id"] is None
    assert "line exceeds" in reply["detail"]
    assert pong[0]["type"] == "pong"
    assert unhandled == []


def test_tcp_metrics_request_reports_per_tenant_stats():
    async def scenario():
        service = _service(alice=1.0, bob=0.5)
        try:
            _host, port = await service.serve_tcp(port=0)
            # One full query over the wire first, so the counters move.
            await _tcp_request(
                port,
                [
                    {
                        "op": "submit",
                        "id": "q1",
                        "tenant": "alice",
                        "source": "ticks",
                        "config": {"fraction": 0.3, "seed": 7},
                    }
                ],
            )
            return await _tcp_request(port, [{"op": "metrics", "id": "m1"}])
        finally:
            await service.close()

    replies = asyncio.run(scenario())
    (reply,) = replies
    assert reply["type"] == "metrics" and reply["id"] == "m1"
    assert reply["service"]["submitted"] == 1
    assert reply["service"]["completed"] == 1
    assert set(reply["tenants"]) == {"alice", "bob"}
    alice = reply["tenants"]["alice"]
    assert alice["admitted"] == 1 and alice["settles"] == 1
    assert alice["time_to_answer"]["count"] == 1
    assert alice["time_to_first_pane"]["count"] == 1


def test_tcp_connection_keeps_only_live_result_streams():
    """A connection used to keep every query's finished result-streaming
    task for its whole life; each task now leaves the set when it ends."""

    async def scenario():
        import json

        service = _service()
        held = []
        try:
            _host, port = await service.serve_tcp(port=0)
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            for query in range(200):
                message = {
                    "op": "submit", "id": f"q{query}", "tenant": "alice",
                    "source": "ticks", "config": {"fraction": 0.3, "seed": query},
                }
                writer.write((json.dumps(message) + "\n").encode())
                await writer.drain()
                while True:
                    line = await asyncio.wait_for(reader.readline(), timeout=30)
                    if json.loads(line)["type"] == "answer":
                        break
                (streams,) = service._connections.values()
                held.append(len(streams))
            writer.close()
            await writer.wait_closed()
        finally:
            await service.close()
        return held

    held = asyncio.run(scenario())
    assert len(held) == 200 and max(held) <= 1
