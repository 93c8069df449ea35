"""The newline-JSON wire protocol of the query service's TCP endpoint.

One JSON object per line, UTF-8, ``\\n``-terminated, both directions.

Client → server::

    {"op": "submit", "id": "c1", "tenant": "alice",
     "source": "ticks" | {"workload": "gaussian", "rate": 200, ...},
     "engine": "direct", "strategy": "oasrs",
     "kind": "mean" | "sum" | "quantile", "q": 0.95,
     "window": {"length": 10.0, "slide": 5.0},
     "config": {"fraction": 0.4, "seed": 7, "chunk_size": 256,
                "parallelism": 1, "confidence": 0.95,
                "target_margin": 0.5, "latency_budget": 2.0,
                "cores_budget": 8}}
    {"op": "ping"}
    {"op": "metrics"}
    {"op": "close"}

Only ``tenant`` and ``source`` are required; everything else defaults to
the source's registered query and the stock window/config.  ``id`` is an
opaque client correlation token echoed on every response for that
submission.  The server picks no ``chunk_size`` of its own: a submission
naming none runs at the stock 0 and answers, bit for bit, what in-process
`repro.runtime.execute_plan` returns under the same config.

Server → client (``type`` discriminates)::

    {"type": "admitted", "id": ..., "query_id": 7, "cost": 1234.0}
    {"type": "rejected", "id": ..., "reason": "tenant-budget-exhausted",
     "detail": "..."}
    {"type": "pane", "id": ..., "query_id": 7, "end": 5.0,
     "estimate": 9.8, "sampled_items": 420, "total_items": 1000,
     "error": {"margin": 0.3, "confidence": 0.95,
               "interval": [9.5, 10.1], "q": 0.5}}   # q only for quantiles
    {"type": "answer", "id": ..., "query_id": 7, "estimate": 9.9,
     "panes": 5, "virtual_seconds": 0.8, "columnar_fallback": null,
     "time_to_first_pane": 0.01, "time_to_answer": 0.05,
     "tenant": "alice"}
    {"type": "error", "id": ..., "detail": "..."}
    {"type": "pong"}
    {"type": "metrics", "id": ...,
     "service": {"submitted": 12, "admitted": 10, "rejected": 2,
                 "completed": 9, "failed": 0, "in_flight": 1,
                 "queue_depth": 0, "capacity": 50000.0,
                 "active_cost": 1234.0, "admission_wait": {...},
                 "time_to_first_pane": {...}, "time_to_answer": {...}},
     "tenants": {"alice": {"budget": 1.0, "observed": ..., "sampled": ...,
                           "settled": ..., "queue_depth": 0,
                           "admission_wait": {...}, ...}}}

A line that does not decode gets an ``error`` (``id`` null) and the
connection carries on; a line longer than the endpoint's limit
(`repro.service.service.MAX_LINE_BYTES`, 64 KiB) gets one and is then
hung up on — past an overrun the stream position is no message boundary.

The protocol carries *results*, not code: projections cannot cross the
wire, so TCP clients can only reference sources registered server-side
(by name or workload spec) — exactly the multiplexing the `SourceHub`
exists to provide.
"""

from __future__ import annotations

import json
from typing import Optional

from ..core.budget import AccuracyBudget, LatencyBudget, ResourceBudget
from ..runtime.config import SystemConfig, WindowConfig
from ..runtime.report import WindowResult
from .scheduler import AdmissionRejected

__all__ = [
    "encode_line",
    "decode_line",
    "submission_from_message",
    "admitted_message",
    "rejection_message",
    "pane_message",
    "answer_message",
    "error_message",
    "metrics_message",
]


def encode_line(payload: dict) -> bytes:
    return (json.dumps(payload, separators=(",", ":")) + "\n").encode("utf-8")


def decode_line(line: bytes) -> dict:
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"malformed JSON line: {exc}") from None
    if not isinstance(message, dict):
        raise ValueError(f"expected a JSON object, got {type(message).__name__}")
    return message


def _config_from_message(spec: dict) -> SystemConfig:
    kwargs = {}
    if "fraction" in spec:
        kwargs["sampling_fraction"] = float(spec["fraction"])
    for key in ("seed", "chunk_size", "parallelism"):
        if key in spec:
            kwargs[key] = int(spec[key])
    if "confidence" in spec:
        kwargs["confidence"] = float(spec["confidence"])
    confidence = kwargs.get("confidence", 0.95)
    if "target_margin" in spec:
        kwargs["budget"] = AccuracyBudget(
            target_margin=float(spec["target_margin"]), confidence=confidence
        )
    elif "latency_budget" in spec:
        kwargs["budget"] = LatencyBudget(max_seconds=float(spec["latency_budget"]))
    elif "cores_budget" in spec:
        kwargs["budget"] = ResourceBudget(workers=int(spec["cores_budget"]))
    return SystemConfig(**kwargs)


def submission_from_message(message: dict):
    """Build a `QuerySubmission` from a decoded ``submit`` message."""
    from .service import QuerySubmission

    try:
        tenant = str(message["tenant"])
        source = message["source"]
    except KeyError as exc:
        raise ValueError(f"submit message missing {exc.args[0]!r}") from None
    if not isinstance(source, (str, dict)):
        raise ValueError("source must be a registered name or a workload spec")
    window = None
    if "window" in message:
        w = message["window"]
        window = WindowConfig(
            length=float(w.get("length", 10.0)), slide=float(w.get("slide", 5.0))
        )
    config = None
    if "config" in message:
        config = _config_from_message(message["config"])
    return QuerySubmission(
        tenant_id=tenant,
        source=source,
        window=window,
        config=config,
        engine=str(message.get("engine", "direct")),
        strategy=str(message.get("strategy", "oasrs")),
        kind=message.get("kind"),
        q=float(message["q"]) if "q" in message else None,
        name=message.get("name"),
    )


def _error_payload(bound) -> Optional[dict]:
    if bound is None:
        return None
    payload = {
        "margin": bound.margin,
        "confidence": bound.confidence,
        "interval": list(bound.interval),
    }
    # DKW quantile brackets carry their rank; linear bounds do not.
    q = getattr(bound, "q", None)
    if q is not None:
        payload["q"] = q
        payload["effective_n"] = bound.effective_n
    return payload


def pane_message(client_id, handle, result: WindowResult) -> dict:
    return {
        "type": "pane",
        "id": client_id,
        "query_id": handle.query_id,
        "end": result.end,
        "estimate": result.estimate,
        "sampled_items": result.sampled_items,
        "total_items": result.total_items,
        "groups": {str(k): v for k, v in result.groups.items()},
        "error": _error_payload(result.error),
    }


def admitted_message(client_id, handle) -> dict:
    return {
        "type": "admitted",
        "id": client_id,
        "query_id": handle.query_id,
        "tenant": handle.tenant_id,
        "cost": handle.cost,
    }


def rejection_message(client_id, rejection: AdmissionRejected) -> dict:
    return {
        "type": "rejected",
        "id": client_id,
        "reason": rejection.reason.value,
        "detail": rejection.detail,
    }


def answer_message(client_id, answer) -> dict:
    report = answer.report
    return {
        "type": "answer",
        "id": client_id,
        "query_id": answer.query_id,
        "tenant": answer.tenant_id,
        "estimate": answer.estimate,
        "panes": len(report.results),
        "virtual_seconds": report.virtual_seconds,
        "items_total": report.items_total,
        "columnar_fallback": report.columnar_fallback,
        "cost": answer.cost,
        "actual_cost": answer.actual_cost,
        "time_to_first_pane": answer.time_to_first_pane,
        "time_to_answer": answer.time_to_answer,
    }


def error_message(client_id, detail: str) -> dict:
    return {"type": "error", "id": client_id, "detail": detail}


def metrics_message(client_id, service) -> dict:
    """The ``metrics`` op's reply: the service's full metrics snapshot."""
    snapshot = service.metrics_snapshot()
    return {
        "type": "metrics",
        "id": client_id,
        "service": snapshot["service"],
        "tenants": snapshot["tenants"],
    }
