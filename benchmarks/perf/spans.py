"""Benchmark-owned span tracing: wrappers around the layers' public entry points.

The traced run (``run.py --trace 1``) installs these wrappers from outside
``src/`` — class methods are patched on the class, module functions in the
namespace their caller looks them up in — and records one span per call:
``{id, name, trace, parent, start, end, calls, busy}``.  Spans of one pass
(or one service query) share a ``trace`` id.  Everything stays in memory
until `Tracer.write_jsonl`; nothing is installed in an untraced run, so the
end-to-end numbers never pay for tracing.

Two wrapper shapes:

* `Tracer.wrap` / `Tracer.wrap_async` — one span per call.
* `Tracer.wrap_run` — for calls that come in long back-to-back runs
  (``Reservoir.offer_many``: up to 400 per chunk on ``many-strata``).  The
  calls are timed individually but folded into ONE child record of the
  enclosing span (``calls`` = how many, ``busy`` = their summed time,
  ``start``/``end`` = first call start / last call end), which keeps the
  tracing overhead on the hottest boundary to two clock reads and one
  dict update.

A span's parent is the span open in the calling context (a `contextvars`
variable, so it is right on asyncio tasks and on worker threads alike).
When the context cannot carry it — the service hands a query from the
connection task to a scheduler task to an executor thread — wrappers name
the trace explicitly (``trace_of``) and attach to that trace's root span.
"""

from __future__ import annotations

import functools
import json
from contextlib import nullcontext
from contextvars import ContextVar
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional

__all__ = ["Span", "Tracer", "null_span", "layer_rows", "format_table"]


class Span:
    """One recorded interval; ``calls > 1`` marks a folded run of calls."""

    __slots__ = (
        "id", "name", "trace", "parent", "start", "end", "calls", "busy",
        "attrs", "runs",
    )

    def __init__(self, id, name, trace, parent, start):
        self.id = id
        self.name = name
        self.trace = trace
        self.parent = parent
        self.start = start
        self.end = None
        self.calls = 1
        self.busy = 0.0
        self.attrs = None
        self.runs = {}  # name -> [calls, busy, first_start, last_end, n_in, n_out]

    def record(self) -> dict:
        row = {
            "id": self.id, "name": self.name, "trace": self.trace,
            "parent": self.parent, "start": self.start, "end": self.end,
            "calls": self.calls, "busy": self.busy,
        }
        if self.attrs:
            row["attrs"] = self.attrs
        return row


_CURRENT: ContextVar[Optional[Span]] = ContextVar("perf_span", default=None)


def null_span(_name, **_kwargs):
    """What call sites use in place of `Tracer.span` in an untraced run."""
    return nullcontext()


class Tracer:
    """In-memory span recorder plus the patch/unpatch bookkeeping."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.roots: Dict[object, Span] = {}
        self._patched: list = []

    # -- recording -----------------------------------------------------------

    def _open(self, name: str, trace=None) -> tuple:
        parent = _CURRENT.get()
        if parent is not None and parent.end is not None:
            # The context was copied while `parent` was open (a task created
            # inside it) and outlived it: fall back to the trace's root.
            if trace is None:
                trace = parent.trace
            parent = self.roots.get(trace)
        if trace is None:
            trace = parent.trace if parent is not None else None
        elif parent is None or parent.trace != trace:
            parent = self.roots.get(trace)
        span = Span(
            len(self.spans), name, trace,
            parent.id if parent is not None else None, perf_counter(),
        )
        self.spans.append(span)
        return span, _CURRENT.set(span)

    def _close(self, span: Span, token) -> None:
        span.end = perf_counter()
        span.busy = span.end - span.start
        _CURRENT.reset(token)
        if span.runs:
            for name, (calls, busy, first, last, n_in, n_out) in span.runs.items():
                child = Span(len(self.spans), name, span.trace, span.id, first)
                child.end = last
                child.calls = calls
                child.busy = busy
                child.attrs = {"n_in": n_in, "n_out": n_out}
                self.spans.append(child)

    def span(self, name: str, trace=None, root: bool = False, **attrs):
        """Context manager for call-site spans; ``root`` registers the trace."""
        return _SpanContext(self, name, trace, root, attrs)

    # -- wrappers ------------------------------------------------------------

    def wrap(
        self,
        name: str,
        fn: Callable,
        trace_of: Optional[Callable] = None,
        trace_of_result: Optional[Callable] = None,
        attrs_of: Optional[Callable] = None,
    ) -> Callable:
        """One span per call of a synchronous callable.

        ``trace_of(*args, **kwargs)`` names the trace before the call;
        ``trace_of_result(result)`` after it (a decoded wire message only
        reveals its query id once decoded).  ``attrs_of(result, *args,
        **kwargs)`` returns counts to store on the span.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            trace = trace_of(*args, **kwargs) if trace_of is not None else None
            span, token = self._open(name, trace)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span, token)
            if trace_of_result is not None and span.trace is None:
                span.trace = trace_of_result(result)
                root = self.roots.get(span.trace)
                span.parent = root.id if root is not None else None
            if attrs_of is not None:
                span.attrs = attrs_of(result, *args, **kwargs)
            return result

        return traced

    def wrap_async(
        self, name: str, fn: Callable, trace_of: Optional[Callable] = None
    ) -> Callable:
        """One span per awaited call of a coroutine function."""

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            trace = trace_of(*args, **kwargs) if trace_of is not None else None
            span, token = self._open(name, trace)
            try:
                return await fn(*args, **kwargs)
            finally:
                self._close(span, token)

        return traced

    def wrap_run(self, name: str, fn: Callable) -> Callable:
        """Fold back-to-back calls of a method into one record per parent.

        Expects the ``(self, items)`` → ``int`` shape of ``offer_many``:
        ``n_in`` sums ``len(items)``, ``n_out`` the returned counts.
        Outside any open span the call is not recorded.
        """

        current = _CURRENT.get

        @functools.wraps(fn)
        def traced(self_, items):
            parent = current()
            if parent is None:
                return fn(self_, items)
            start = perf_counter()
            result = fn(self_, items)
            end = perf_counter()
            run = parent.runs.get(name)
            if run is None:
                parent.runs[name] = [1, end - start, start, end, len(items), result]
            else:
                run[0] += 1
                run[1] += end - start
                run[3] = end
                run[4] += len(items)
                run[5] += result
            return result

        return traced

    # -- patching ------------------------------------------------------------

    def patch(self, owner, attr: str, wrapper: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` with ``wrapper(original)``; undone by `unpatch`."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patched.append((owner, attr, original))
        if isinstance(original, property):
            replacement = property(wrapper(original.fget), original.fset, original.fdel)
        else:
            replacement = wrapper(original)
        setattr(owner, attr, replacement)

    def unpatch(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------------

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span.record(), separators=(",", ":")) + "\n")


class _SpanContext:
    __slots__ = ("_tracer", "_name", "_trace", "_root", "_attrs", "span", "_token")

    def __init__(self, tracer, name, trace, root, attrs):
        self._tracer = tracer
        self._name = name
        self._trace = trace
        self._root = root
        self._attrs = attrs

    def __enter__(self) -> Span:
        self.span, self._token = self._tracer._open(self._name, self._trace)
        if self._attrs:
            self.span.attrs = self._attrs
        if self._root:
            self._tracer.roots[self._trace] = self.span
        return self.span

    def __exit__(self, *exc) -> None:
        self._tracer._close(self.span, self._token)


def layer_rows(spans: Iterable[Span], root_name: str) -> List[dict]:
    """Per-name totals over every trace rooted at a ``root_name`` span.

    ``busy`` sums the spans' own time, ``self`` subtracts what their direct
    children spent, ``share`` is ``busy`` over the summed root duration.
    Self times telescope: they add up to the root duration exactly when
    every span found its parent.  The root row's ``coverage`` is one minus
    the share of span time that could not be attached to a root (no trace
    id, or no parent inside a rooted trace) — those spans are listed in
    its ``unattached`` counts instead of silently inflating a layer.
    """
    spans = [s for s in spans if s.end is not None]
    roots = {s.trace for s in spans if s.name == root_name and s.parent is None}
    in_scope, unattached = [], {}
    for s in spans:
        if s.trace in roots and (s.parent is not None or s.name == root_name):
            in_scope.append(s)
        elif s.trace in roots or s.trace is None:
            entry = unattached.setdefault(s.name, [0, 0.0])
            entry[0] += s.calls
            entry[1] += s.busy
    child_busy: Dict[int, float] = {}
    for s in in_scope:
        if s.parent is not None:
            child_busy[s.parent] = child_busy.get(s.parent, 0.0) + s.busy
    rows: Dict[str, dict] = {}
    for s in in_scope:
        row = rows.setdefault(
            s.name, {"name": s.name, "busy": 0.0, "self": 0.0, "calls": 0}
        )
        row["busy"] += s.busy
        row["self"] += s.busy - child_busy.get(s.id, 0.0)
        row["calls"] += s.calls
    total = rows[root_name]["busy"] if root_name in rows else 0.0
    for row in rows.values():
        row["share"] = row["busy"] / total if total else 0.0
        row["self_share"] = row["self"] / total if total else 0.0
    ordered = sorted(rows.values(), key=lambda r: (r["name"] != root_name, -r["busy"]))
    if ordered:
        lost = sum(busy for _calls, busy in unattached.values())
        ordered[0]["coverage"] = max(0.0, 1.0 - lost / total) if total else 0.0
        ordered[0]["traces"] = len(roots)
        ordered[0]["unattached"] = unattached
    return ordered


def format_table(title: str, rows: List[dict]) -> str:
    """The per-layer table: busy s, self s, calls, share of the root span."""
    lines = [
        title,
        f"{'span':<34}{'busy s':>11}{'self s':>11}{'calls':>9}{'share':>8}{'self':>8}",
    ]
    for row in rows:
        lines.append(
            f"{row['name']:<34}{row['busy']:>11.4f}{row['self']:>11.4f}"
            f"{row['calls']:>9d}{row['share']:>8.1%}{row['self_share']:>8.1%}"
        )
    if rows:
        root = rows[0]
        lines.append(
            f"{root['traces']} traces; {root['coverage']:.1%} of span time is "
            f"attributed to a {root['name']} span (self column sums to 100%)"
        )
        for name, (calls, busy) in sorted(root["unattached"].items()):
            lines.append(f"  UNCOVERED: {name} x{calls}, {busy:.4f} s outside any root")
    return "\n".join(lines)
