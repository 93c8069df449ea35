"""The ``svc-storm`` workload: the TCP submit → answer path of the query service.

``python -m repro serve --workers 2`` runs in a subprocess; two client
connections from this process (one per tenant) drive it in a **closed
loop** — each sends its next ``submit`` only when the previous ``answer``
arrived, because the tenants modelled here are callers that wait for a
reply.  (An open-loop / overload workload waits for service deadlines:
today an over-rate client just grows an unbounded queue.)  Queries have
the README's shape — a small shared Gaussian stream, fraction 0.3, default
``chunk_size`` — alternating mean and p90 quantile over 16 cycling sampler
seeds, so every wire answer has one of 32 references computed in-process
in set-up.
"""

from __future__ import annotations

import asyncio
import json
import os
import select
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Tuple

from repro.runtime import SystemConfig, WindowConfig, build_plan, execute_plan
from repro.service import QueryService, SourceHub, TenantScheduler

from names import ROUNDS
from spans import null_span

TENANTS = ("t0", "t1")
FRACTION = 0.3
SAMPLER_SEEDS = 16
KINDS = ("mean", "quantile")
#: Queries per second of ``--seconds`` on the reference box (both clients).
QUERIES_PER_SECOND = 120.0
SERVER_START_DEADLINE_S = 30.0
SERVER_STOP_DEADLINE_S = 10.0
QUERY_DEADLINE_S = 30.0
#: Pane messages carry per-group maps; the default 64 KiB reader limit is
#: too close for comfort on grouped queries.
READER_LIMIT = 1 << 20

SRC_DIR = Path(__file__).resolve().parents[2] / "src"


def source_spec(seed: int, scale: float) -> dict:
    """The shared stream every query names; generated server-side from it."""
    return {
        "workload": "gaussian",
        "rate": max(20, int(650 * scale)),
        "duration": 12,
        "seed": seed,
    }


def query_message(tenant: str, index: int, seed: int, spec: dict) -> dict:
    kind = KINDS[index % 2]
    ident = f"{tenant}-{index}"
    message = {
        "op": "submit", "id": ident, "name": ident, "tenant": tenant,
        "source": spec, "kind": kind,
        "config": {"fraction": FRACTION, "seed": seed + (index // 2) % SAMPLER_SEEDS},
    }
    if kind == "quantile":
        message["q"] = 0.9
    return message


@dataclass
class Reference:
    estimate: float
    panes: int


def references(seed: int, spec: dict, timings: Dict[str, float]):
    """The 32 in-process answers the wire must reproduce, and the stream size."""
    started = time.perf_counter()
    source, query = SourceHub().resolve(spec)
    timings["generate_s"] = time.perf_counter() - started
    refs: Dict[Tuple[int, str], Reference] = {}
    for index in range(SAMPLER_SEEDS):
        for kind in KINDS:
            overrides = {"kind": kind, "q": 0.9} if kind == "quantile" else {"kind": kind}
            plan = build_plan(
                replace(query, **overrides),
                WindowConfig(),
                SystemConfig(sampling_fraction=FRACTION, seed=seed + index),
                engine="direct", strategy="oasrs", source=source,
            )
            results, _cluster = execute_plan(plan)
            refs[(seed + index, kind)] = Reference(results[-1].estimate, len(results))
    return refs, len(source.events())


class Server:
    """``python -m repro serve`` in a child process.

    `start` waits for the ``serving on`` line with a deadline; `stop`
    terminates and reaps the child and is safe on every exit path.
    """

    def __init__(self) -> None:
        self.port = 0
        self._proc: Optional[subprocess.Popen] = None

    def start(self) -> "Server":
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        command = [sys.executable, "-m", "repro", "serve", "--workers", "2", "--port", "0"]
        for tenant in TENANTS:
            command += ["--tenant", tenant]
        self._proc = subprocess.Popen(
            command, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True
        )
        try:
            self.port = self._await_port()
        except BaseException:
            self.stop()
            raise
        return self

    def _await_port(self) -> int:
        deadline = time.monotonic() + SERVER_START_DEADLINE_S
        seen: List[str] = []
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError(f"no 'serving on' line in time; server said: {seen}")
            ready, _, _ = select.select([self._proc.stdout], [], [], remaining)
            if not ready:
                continue
            line = self._proc.stdout.readline()
            if not line:
                raise RuntimeError(
                    f"server exited with {self._proc.wait()} before serving: {seen}"
                )
            if line.startswith("serving on "):
                return int(line.split()[2].rsplit(":", 1)[1])
            seen.append(line.rstrip())

    def stop(self) -> None:
        proc, self._proc = self._proc, None
        if proc is None:
            return
        if proc.poll() is None:
            proc.terminate()
        try:
            proc.wait(SERVER_STOP_DEADLINE_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()


@dataclass
class Query:
    """One closed-loop operation as the client saw it."""

    submitted: float
    first_pane: Optional[float]
    answered: float
    server_tta: float
    failure: Optional[str]

    @property
    def tta(self) -> float:
        return self.answered - self.submitted


async def _exchange(reader, writer, line: bytes) -> Tuple[Optional[float], float, dict, int]:
    """Write one ``submit`` line and read replies up to its final one."""
    first_pane = None
    panes = 0
    writer.write(line)
    await writer.drain()
    while True:
        raw = await reader.readline()
        if not raw:
            raise ConnectionError("server closed the connection mid-query")
        reply = json.loads(raw)
        if reply["type"] == "pane":
            panes += 1
            if first_pane is None:
                first_pane = time.perf_counter()
        elif reply["type"] in ("answer", "rejected", "error"):
            return first_pane, time.perf_counter(), reply, panes


async def _client(
    port: int, tenant: str, start: int, count: int, seed: int, spec: dict,
    refs: Dict[Tuple[int, str], Reference], out: List[Query], tracer=None,
) -> None:
    reader, writer = await asyncio.open_connection("127.0.0.1", port, limit=READER_LIMIT)
    span = tracer.span if tracer is not None else null_span
    try:
        for index in range(start, start + count):
            message = query_message(tenant, index, seed, spec)
            line = (json.dumps(message, separators=(",", ":")) + "\n").encode()
            with span("svc.query", trace=message["id"], root=True):
                submitted = time.perf_counter()
                first_pane, answered, reply, panes = await asyncio.wait_for(
                    _exchange(reader, writer, line), QUERY_DEADLINE_S
                )
            out.append(
                Query(
                    submitted, first_pane, answered,
                    float(reply.get("time_to_answer") or 0.0),
                    _check(reply, panes, message, refs),
                )
            )
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass


def _check(reply: dict, panes: int, message: dict, refs) -> Optional[str]:
    if reply["type"] != "answer":
        return f"{reply['type']}: {reply.get('reason') or reply.get('detail')}"
    if reply.get("columnar_fallback") or reply.get("parallel_fallback"):
        return (
            f"fallback: columnar={reply.get('columnar_fallback')!r} "
            f"parallel={reply.get('parallel_fallback')!r}"
        )
    reference = refs[(message["config"]["seed"], message["kind"])]
    if panes != reference.panes or reply["panes"] != reference.panes:
        return f"{panes} pane lines / {reply['panes']} panes, reference has {reference.panes}"
    if reply["estimate"] != reference.estimate:
        return f"estimate {reply['estimate']!r} != in-process {reference.estimate!r}"
    return None


@dataclass
class Storm:
    queries: List[Query]
    started: float
    wall: float
    client_cpu: float


async def storm(
    port: int, per_client: int, seed: int, spec: dict, refs, start: int = 0, tracer=None
) -> Storm:
    """Both tenants' closed loops, concurrently; ``start`` offsets the ids."""
    queries: List[Query] = []
    cpu = time.process_time()
    started = time.perf_counter()
    await asyncio.gather(
        *(
            _client(port, tenant, start, per_client, seed, spec, refs, queries, tracer)
            for tenant in TENANTS
        )
    )
    wall = time.perf_counter() - started
    return Storm(queries, started, wall, time.process_time() - cpu)


def per_client_count(seconds: float) -> int:
    """Queries per client for ``--seconds``: whole rounds, both kinds."""
    per_round = max(2, 2 * round(QUERIES_PER_SECOND * seconds / ROUNDS / len(TENANTS) / 2))
    return ROUNDS * per_round


def round_rates(result: Storm) -> List[float]:
    """Answers per second in five equal-count rounds, by completion order."""
    done = sorted(q.answered for q in result.queries)
    size = len(done) // ROUNDS
    rates, previous = [], result.started
    for r in range(ROUNDS):
        end = done[(r + 1) * size - 1]
        rates.append(size / (end - previous))
        previous = end
    return rates


@dataclass
class SvcState:
    seed: int
    spec: dict
    refs: Dict[Tuple[int, str], Reference]
    items: int
    server: Server
    timings: Dict[str, float]


def setup(seed: int, scale: float) -> SvcState:
    """References, server start, one warm-up query per kind.

    The warm-up makes the hub materialise (generate + intern) the shared
    stream in set-up rather than inside the first timed query.
    """
    timings: Dict[str, float] = {}
    spec = source_spec(seed, scale)
    started = time.perf_counter()
    refs, items = references(seed, spec, timings)
    timings["references_s"] = time.perf_counter() - started
    started = time.perf_counter()
    server = Server().start()
    timings["server_start_s"] = time.perf_counter() - started
    try:
        started = time.perf_counter()
        warm = asyncio.run(storm(server.port, len(KINDS), seed, spec, refs, start=-len(KINDS)))
        timings["warmup_s"] = time.perf_counter() - started
        failures = [q.failure for q in warm.queries if q.failure]
        if failures:
            raise RuntimeError(f"svc-storm warm-up query failed: {failures[0]}")
    except BaseException:
        server.stop()
        raise
    return SvcState(seed, spec, refs, items, server, timings)


def corrupt_reference(state: SvcState) -> None:
    """Self-test hook: perturb one reference so the output check must fire."""
    key = (state.seed, "mean")
    state.refs[key] = replace(state.refs[key], estimate=state.refs[key].estimate + 1.0)


def end_to_end(state: SvcState, result: Storm) -> Dict[str, Tuple[float, int]]:
    n = len(result.queries)
    return {
        "items_per_s": (state.items * median(round_rates(result)), ROUNDS),
        "tta_ms_p50": (1e3 * median(q.tta for q in result.queries), n),
        "ttfp_ms_p50": (
            1e3 * median(
                (q.first_pane or q.answered) - q.submitted for q in result.queries
            ),
            n,
        ),
    }


async def in_process_storm(
    per_client: int, seed: int, spec: dict, refs, tracer=None
) -> Tuple[Storm, dict, int]:
    """The same storm against a `QueryService` in this process (traced run).

    Only here can the span wrappers see the server.  Client and server
    share one interpreter, so these latencies are for shares only.
    """
    service = QueryService(scheduler=TenantScheduler(), max_workers=2)
    for tenant in TENANTS:
        service.register_tenant(tenant)
    try:
        _host, port = await service.serve_tcp("127.0.0.1", 0)
        await storm(port, len(KINDS), seed, spec, refs, start=-len(KINDS))
        result = await storm(port, per_client, seed, spec, refs, tracer=tracer)
        # Let the connection handlers see the clients' EOF and finish: `close`
        # cancels the ones still open, which asyncio's stream callback logs.
        await asyncio.sleep(0.05)
        return result, service.metrics_snapshot(), service.hub.materializations
    finally:
        await service.close()
