"""The multi-tenant approximate-query service.

`QueryService` is the front door the runtime never had: a long-running
asyncio component that accepts many concurrent budgeted queries, admits
them through the `TenantScheduler`'s ratio-accounting ledger, resolves
their streams through the shared `SourceHub`, compiles each through the
existing `build_plan`, and runs the plan on its driver in a worker
thread — streaming per-pane `WindowResult`s back the moment they close
(the driver's ``on_pane`` hook) and finishing with the familiar
`SystemReport`.

Two client surfaces share one implementation:

* **in-process async API** — ``await service.submit(QuerySubmission(...))``
  returns a `QueryHandle`; iterate ``handle.panes()`` for streamed pane
  results and ``await handle.result()`` for the final `QueryAnswer`.
* **newline-JSON TCP** — ``await service.serve_tcp(host, port)`` starts an
  ``asyncio.start_server`` endpoint speaking one JSON object per line
  (see `repro.service.protocol`): submissions in; ``admitted`` /
  ``rejected`` / ``pane`` / ``answer`` / ``error`` messages out.

Determinism contract: the service changes *when* a plan runs, never *what*
it computes.  An admitted submission's answer is bitwise identical to
running ``execute_plan(handle.plan)`` standalone — plans are seeded by
their `SystemConfig`, streams are shared immutable `RecordBatch`es, and
fair-share queueing delays starts without touching sample sizes.
"""

from __future__ import annotations

import asyncio
import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import ceil
from typing import AsyncIterator, Dict, Optional, Set

from ..obs import MetricsRegistry
from ..runtime.config import StreamQuery, SystemConfig, WindowConfig
from ..runtime.control import BudgetController
from ..runtime.driver import _per_slide_items, execute_plan
from ..runtime.plan import ExecutionPlan, PlanError, build_plan
from ..runtime.report import SystemReport, WindowResult
from .hub import SourceHub, SourceRef
from .scheduler import AdmissionRejected, RejectionReason, TenantScheduler

__all__ = ["QuerySubmission", "QueryAnswer", "QueryHandle", "QueryService"]

#: Queue sentinel closing a handle's pane stream.
_DONE = object()

#: Longest request line the TCP endpoint reads (asyncio's stream default).
MAX_LINE_BYTES = 2 ** 16


@dataclass(frozen=True)
class QuerySubmission:
    """One tenant's query request, before admission.

    ``source`` is a `SourceHub` reference — a registered name or a
    workload spec dict.  ``query``/``window``/``config`` default to the
    source's registered query (or the canonical `StreamQuery`) and the
    stock window/config; ``kind``/``q`` override the query's aggregation
    in place, so a tenant can ask for e.g. the p95 of a registered source
    without re-specifying its projections.
    """

    tenant_id: str
    source: SourceRef
    query: Optional[StreamQuery] = None
    window: Optional[WindowConfig] = None
    config: Optional[SystemConfig] = None
    engine: str = "direct"
    strategy: str = "oasrs"
    kind: Optional[str] = None
    q: Optional[float] = None
    name: Optional[str] = None


@dataclass(frozen=True)
class QueryAnswer:
    """A finished query: the standard report plus serving-side metadata."""

    query_id: int
    tenant_id: str
    report: SystemReport
    cost: float
    #: Loop-clock timestamps (seconds): submission, capacity grant, first
    #: pane, completion — the latency benchmark's raw material.
    submitted_at: float
    started_at: float
    first_pane_at: Optional[float]
    finished_at: float
    #: What the run actually sampled (the driver's measured
    #: ``sampled_total``), reconciled against ``cost`` by the scheduler's
    #: settle-up; None when the driver did not report it.
    actual_cost: Optional[float] = None

    @property
    def estimate(self) -> Optional[float]:
        """The last pane's estimate (the 'current answer' of the stream)."""
        return self.report.results[-1].estimate if self.report.results else None

    @property
    def time_to_first_pane(self) -> Optional[float]:
        if self.first_pane_at is None:
            return None
        return self.first_pane_at - self.submitted_at

    @property
    def time_to_answer(self) -> float:
        return self.finished_at - self.submitted_at


class QueryHandle:
    """An admitted query in flight: streamed panes + an awaitable answer."""

    def __init__(
        self,
        query_id: int,
        tenant_id: str,
        plan: ExecutionPlan,
        cost: float,
        loop: asyncio.AbstractEventLoop,
    ) -> None:
        self.query_id = query_id
        self.tenant_id = tenant_id
        self.plan = plan
        self.cost = cost
        self._loop = loop
        self._queue: "asyncio.Queue[object]" = asyncio.Queue()
        self._done: "asyncio.Future[QueryAnswer]" = loop.create_future()
        self.submitted_at: float = loop.time()
        self.started_at: Optional[float] = None
        self.first_pane_at: Optional[float] = None
        self.finished_at: Optional[float] = None

    # Called on the loop thread (via call_soon_threadsafe from the driver).
    def _deliver_pane(self, result: WindowResult) -> None:
        if self.first_pane_at is None:
            self.first_pane_at = self._loop.time()
        self._queue.put_nowait(result)

    def _finish(self, answer: QueryAnswer) -> None:
        if not self._done.done():
            self._done.set_result(answer)
        self._queue.put_nowait(_DONE)

    def _fail(self, exc: BaseException) -> None:
        if not self._done.done():
            self._done.set_exception(exc)
            # Mark retrieved so a caller that only streams panes (and never
            # awaits result()) doesn't trip the unretrieved-exception log.
            self._done.exception()
        self._queue.put_nowait(_DONE)

    async def panes(self) -> AsyncIterator[WindowResult]:
        """Stream pane results as the driver closes them, until done."""
        while True:
            item = await self._queue.get()
            if item is _DONE:
                return
            yield item

    async def result(self) -> QueryAnswer:
        """Await the final answer (raises if the query failed)."""
        return await asyncio.shield(self._done)

    @property
    def done(self) -> bool:
        return self._done.done()


class QueryService:
    """Admission-controlled execution of many concurrent budgeted queries.

    Example
    -------
    ::

        service = QueryService(scheduler=TenantScheduler(capacity=50_000))
        service.register_tenant("alice", budget=1.0)
        service.hub.register("ticks", stream)
        handle = await service.submit(
            QuerySubmission(tenant_id="alice", source="ticks"))
        async for pane in handle.panes():
            ...
        answer = await handle.result()
        await service.close()          # graceful: drains in-flight queries
    """

    def __init__(
        self,
        scheduler: Optional[TenantScheduler] = None,
        hub: Optional[SourceHub] = None,
        max_workers: int = 4,
    ) -> None:
        self.scheduler = scheduler or TenantScheduler()
        self.hub = hub or SourceHub()
        #: Always-on service metrics (query-granular, so no hot-loop cost):
        #: admission outcomes, queue depth, and per-tenant latency
        #: histograms, served over the wire by the ``metrics`` op.
        self.metrics = MetricsRegistry()
        self._m_submitted = self.metrics.counter("service.submitted")
        self._m_admitted = self.metrics.counter("service.admitted")
        self._m_rejected = self.metrics.counter("service.rejected")
        self._m_completed = self.metrics.counter("service.completed")
        self._m_failed = self.metrics.counter("service.failed")
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-query"
        )
        self._query_ids = itertools.count(1)
        self._tasks: Dict[int, asyncio.Task] = {}
        # connection task -> its live result-streaming tasks
        self._connections: Dict[asyncio.Task, Set[asyncio.Task]] = {}
        self._draining = False
        self._server: Optional[asyncio.AbstractServer] = None

    def register_tenant(self, tenant_id: str, budget: float = 1.0) -> None:
        self.scheduler.register(tenant_id, budget)

    # -- submission ----------------------------------------------------------

    def _build_plan(self, sub: QuerySubmission) -> ExecutionPlan:
        source, default_query = self.hub.resolve(sub.source)
        query = sub.query or default_query or StreamQuery()
        overrides = {}
        if sub.kind is not None:
            overrides["kind"] = sub.kind
            if sub.kind == "quantile":
                # Quantiles have no grouped estimation path; dropping an
                # inherited group_fn beats rejecting the override.
                overrides["group_fn"] = None
        if sub.q is not None:
            overrides["q"] = sub.q
        if sub.name is not None:
            overrides["name"] = sub.name
        if overrides:
            from dataclasses import replace

            query = replace(query, **overrides)
        window = sub.window or WindowConfig()
        config = sub.config or SystemConfig()
        try:
            return build_plan(
                query,
                window,
                config,
                engine=sub.engine,
                strategy=sub.strategy,
                source=source,
                name=sub.name or query.name,
            )
        except (PlanError, ValueError) as exc:
            raise AdmissionRejected(RejectionReason.PLAN_INVALID, str(exc)) from exc

    @staticmethod
    def estimate_cost(plan: ExecutionPlan) -> float:
        """A submission's sample cost: expected samples over the whole run.

        Fixed-fraction plans cost ``fraction × per-slide items`` per
        interval; budget-driven plans cost what the `BudgetController`
        would seed the first interval with (`initial_total`) — the same
        pre-run estimate the drivers themselves start from — times the
        stream's interval count.  An estimate, not an invoice: admission
        and fair-share need comparable magnitudes, not exact accounting.
        """
        events = plan.source.events()
        per_slide = _per_slide_items(events, plan.window)
        if plan.config.budget is not None:
            controller = BudgetController(
                plan.config.budget, plan.config, plan.window
            )
            per_interval = float(controller.initial_total(int(per_slide)))
        else:
            per_interval = max(1.0, plan.config.sampling_fraction * per_slide)
        intervals = max(1, ceil(len(events) / max(1.0, per_slide)))
        return per_interval * intervals

    async def submit(self, sub: QuerySubmission) -> QueryHandle:
        """Admit and launch a query; raises `AdmissionRejected` otherwise.

        Admission is synchronous (the ledger answers immediately); the
        returned handle's query may still *wait* for fair-share capacity
        before running.
        """
        self._m_submitted.inc()
        try:
            if self._draining:
                raise AdmissionRejected(
                    RejectionReason.DRAINING, "service is shutting down"
                )
            account = self.scheduler.account(sub.tenant_id)  # unknown-tenant first
            plan = self._build_plan(sub)
            cost = self.estimate_cost(plan)
            self.scheduler.admit(account.tenant_id, cost)
        except AdmissionRejected:
            self._m_rejected.inc()
            raise
        self._m_admitted.inc()
        loop = asyncio.get_running_loop()
        handle = QueryHandle(
            next(self._query_ids), sub.tenant_id, plan, cost, loop
        )
        task = loop.create_task(self._run_query(handle))
        self._tasks[handle.query_id] = task
        task.add_done_callback(lambda _t: self._tasks.pop(handle.query_id, None))
        return handle

    async def _run_query(self, handle: QueryHandle) -> None:
        loop = asyncio.get_running_loop()
        run_info: dict = {}
        adaptation: list = []
        acquired = False

        def on_pane(result: WindowResult) -> None:
            # Driver thread → loop thread; put_nowait on an unbounded queue
            # never blocks the driver.
            loop.call_soon_threadsafe(handle._deliver_pane, result)

        def run() -> tuple:
            return execute_plan(
                handle.plan,
                adaptation_log=adaptation,
                run_info=run_info,
                on_pane=on_pane,
            )

        try:
            await self.scheduler.acquire(handle.tenant_id, handle.cost)
            acquired = True
            handle.started_at = loop.time()
            results, cluster = await loop.run_in_executor(self._executor, run)
            report = SystemReport(
                system=handle.plan.name,
                results=results,
                virtual_seconds=cluster.elapsed(),
                items_total=len(handle.plan.source.events()),
                columnar_fallback=run_info.get("columnar_fallback"),
                adaptation=adaptation,
            )
            handle.finished_at = loop.time()
            actual = run_info.get("sampled_total")
            if actual is not None:
                # Settle-up: swap the ledger's pre-run estimate for the
                # measured actuals, so over-estimates refund slack and
                # under-estimates surcharge it (release below stays in
                # estimate units, symmetric with acquire).
                self.scheduler.settle(
                    handle.tenant_id, handle.cost, float(actual)
                )
            answer = QueryAnswer(
                query_id=handle.query_id,
                tenant_id=handle.tenant_id,
                report=report,
                cost=handle.cost,
                submitted_at=handle.submitted_at,
                started_at=handle.started_at,
                first_pane_at=handle.first_pane_at,
                finished_at=handle.finished_at,
                actual_cost=float(actual) if actual is not None else None,
            )
            self._m_completed.inc()
            self._observe_latency(answer)
            handle._finish(answer)
        except BaseException as exc:  # surfaced through handle.result()
            handle.finished_at = loop.time()
            self._m_failed.inc()
            handle._fail(exc)
        finally:
            if acquired:
                self.scheduler.release(handle.tenant_id, handle.cost)

    def _observe_latency(self, answer: QueryAnswer) -> None:
        """Feed a finished query's latencies into the service histograms."""
        for scope in ("service", f"tenant.{answer.tenant_id}"):
            histogram = self.metrics.histogram
            histogram(f"{scope}.admission_wait_seconds").observe(
                answer.started_at - answer.submitted_at
            )
            if answer.time_to_first_pane is not None:
                histogram(f"{scope}.time_to_first_pane_seconds").observe(
                    answer.time_to_first_pane
                )
            histogram(f"{scope}.time_to_answer_seconds").observe(
                answer.time_to_answer
            )

    def metrics_snapshot(self) -> dict:
        """JSON-able service health: ledgers, queues, latency summaries.

        The payload behind the wire protocol's ``metrics`` op and the
        ``python -m repro metrics`` CLI — per-tenant admission ledgers
        (including settle-up totals) joined with the per-tenant latency
        histograms, plus service-wide counters and capacity state.
        """
        histogram = self.metrics.histogram
        latencies = (
            ("admission_wait", "admission_wait_seconds"),
            ("time_to_first_pane", "time_to_first_pane_seconds"),
            ("time_to_answer", "time_to_answer_seconds"),
        )
        tenants = {}
        for tenant_id, ledger in self.scheduler.snapshot().items():
            entry = dict(ledger)
            for short, name in latencies:
                entry[short] = histogram(f"tenant.{tenant_id}.{name}").summary()
            tenants[tenant_id] = entry
        service = {
            "submitted": self._m_submitted.value,
            "admitted": self._m_admitted.value,
            "rejected": self._m_rejected.value,
            "completed": self._m_completed.value,
            "failed": self._m_failed.value,
            "in_flight": self.in_flight,
            "queue_depth": self.scheduler.queue_depth(),
            "capacity": self.scheduler.capacity,
            "active_cost": self.scheduler.active_cost,
        }
        for short, name in latencies:
            service[short] = histogram(f"service.{name}").summary()
        return {"service": service, "tenants": tenants}

    # -- lifecycle -----------------------------------------------------------

    @property
    def in_flight(self) -> int:
        return len(self._tasks)

    async def close(self, drain: bool = True) -> None:
        """Stop the service; graceful by default.

        ``drain=True`` refuses new submissions but waits for every
        in-flight query to finish (their tenants still receive panes and
        answers); ``drain=False`` cancels them.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        tasks = list(self._tasks.values())
        if tasks:
            if not drain:
                for task in tasks:
                    task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
        connections = list(self._connections)
        for conn in connections:
            conn.cancel()
        if connections:
            await asyncio.gather(*connections, return_exceptions=True)
        self._executor.shutdown(wait=True)

    # -- TCP endpoint --------------------------------------------------------

    async def serve_tcp(self, host: str = "127.0.0.1", port: int = 0):
        """Start the newline-JSON endpoint; returns ``(host, port)`` bound."""
        self._server = await asyncio.start_server(
            self._handle_connection, host, port, limit=MAX_LINE_BYTES
        )
        sock = self._server.sockets[0]
        return sock.getsockname()[:2]

    async def serve_forever(self) -> None:
        if self._server is None:
            raise RuntimeError("serve_tcp() must be called first")
        await self._server.serve_forever()

    async def _handle_connection(self, reader, writer) -> None:
        from . import protocol

        write_lock = asyncio.Lock()
        # Live result streams only: each finished task removes itself.
        streams: Set[asyncio.Task] = set()
        self._connections[asyncio.current_task()] = streams

        async def send(payload: dict) -> None:
            async with write_lock:
                writer.write(protocol.encode_line(payload))
                try:
                    await writer.drain()
                except ConnectionError:
                    pass

        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # Past the line limit the stream position is no longer
                    # a message boundary: answer once, then hang up.
                    await send(
                        protocol.error_message(
                            None, f"line exceeds {MAX_LINE_BYTES} bytes"
                        )
                    )
                    break
                if not line:
                    break
                try:
                    message = protocol.decode_line(line)
                except ValueError as exc:
                    await send(protocol.error_message(None, str(exc)))
                    continue
                op = message.get("op", "submit")
                if op == "ping":
                    await send({"type": "pong"})
                    continue
                if op == "metrics":
                    await send(
                        protocol.metrics_message(message.get("id"), self)
                    )
                    continue
                if op == "close":
                    break
                if op != "submit":
                    await send(
                        protocol.error_message(
                            message.get("id"), f"unknown op {op!r}"
                        )
                    )
                    continue
                client_id = message.get("id")
                try:
                    sub = protocol.submission_from_message(message)
                    handle = await self.submit(sub)
                except AdmissionRejected as exc:
                    await send(protocol.rejection_message(client_id, exc))
                    continue
                except (ValueError, TypeError) as exc:
                    await send(protocol.error_message(client_id, str(exc)))
                    continue
                await send(protocol.admitted_message(client_id, handle))
                stream = asyncio.ensure_future(
                    self._stream_results(client_id, handle, send)
                )
                streams.add(stream)
                stream.add_done_callback(streams.discard)
        except asyncio.CancelledError:
            # Shutdown cancelled the read loop; finish result streaming (the
            # queries themselves drain via close()) and hang up cleanly.
            pass
        finally:
            self._connections.pop(asyncio.current_task(), None)
            if streams:
                await asyncio.gather(*streams, return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _stream_results(self, client_id, handle: QueryHandle, send) -> None:
        from . import protocol

        async for pane in handle.panes():
            await send(protocol.pane_message(client_id, handle, pane))
        try:
            answer = await handle.result()
        except Exception as exc:
            await send(
                protocol.error_message(
                    client_id, f"query {handle.query_id} failed: {exc}"
                )
            )
            return
        await send(protocol.answer_message(client_id, answer))
