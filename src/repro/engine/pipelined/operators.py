"""Push-based dataflow operators for the pipelined (Flink-like) engine.

In the pipelined model each data item is forwarded to the next operator the
moment it is ready — no micro-batch is ever formed (§2.2).  Operators form
a chain (a linear DAG suffices for every pipeline in the paper); each
implements ``on_item(timestamp, item)`` and pushes results downstream, plus
``on_watermark(timestamp)`` which signals that event time has advanced
(used by windowed operators to fire panes).

Costs: the source charges per-item ingest, ``MapOperator``/''FilterOperator``
charge nothing extra (fused into processing), the sink charges the per-item
query-processing cost for every item that reaches it, and
``OASRSSampleOperator`` charges the O(1) reservoir offer for every item it
*sees* — sampled-out items never reach the sink, which is exactly the
pipelined saving of Flink-based StreamApprox.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Generic, List, Optional, Tuple, TypeVar

from ..cluster import SimulatedCluster

T = TypeVar("T")
U = TypeVar("U")

__all__ = [
    "ChargeOperator",
    "Operator",
    "SourceOperator",
    "MapOperator",
    "FilterOperator",
    "OASRSSampleOperator",
    "ProcessSink",
    "CollectSink",
]


class Operator(Generic[T]):
    """Base class: a stage with one downstream consumer.

    Operators receive records via ``on_item`` (one record) or ``on_chunk``
    (a run of consecutive records sharing one delivery).  The default
    ``on_chunk`` falls back to the per-item path, so existing operators keep
    working unchanged under chunked execution; chunk-aware operators
    override it (and forward with ``emit_chunk``) to amortise per-record
    overhead — the pipelined half of the vectorized chunk API.
    """

    def __init__(self) -> None:
        self._downstream: Optional["Operator"] = None

    def connect(self, downstream: "Operator[U]") -> "Operator[U]":
        self._downstream = downstream
        return downstream

    def emit(self, timestamp: float, item: T) -> None:
        if self._downstream is not None:
            self._downstream.on_item(timestamp, item)

    def emit_chunk(self, timestamps: List[float], items: List[T]) -> None:
        if self._downstream is not None and items:
            self._downstream.on_chunk(timestamps, items)

    def emit_watermark(self, timestamp: float) -> None:
        if self._downstream is not None:
            self._downstream.on_watermark(timestamp)

    def on_item(self, timestamp: float, item: T) -> None:
        raise NotImplementedError

    def on_chunk(self, timestamps: List[float], items: List[T]) -> None:
        """Receive a run of records; default = per-item fallback."""
        for timestamp, item in zip(timestamps, items):
            self.on_item(timestamp, item)

    def on_watermark(self, timestamp: float) -> None:
        self.emit_watermark(timestamp)

    def on_close(self) -> None:
        if self._downstream is not None:
            self._downstream.on_close()


class SourceOperator(Operator[T]):
    """Entry point: charges ingest and forwards items + watermarks."""

    def __init__(self, cluster: SimulatedCluster) -> None:
        super().__init__()
        self._cluster = cluster

    def on_item(self, timestamp: float, item: T) -> None:
        self._cluster.ingest_items(1)
        self.emit(timestamp, item)

    def on_chunk(self, timestamps: List[float], items: List[T]) -> None:
        self._cluster.ingest_items(len(items))
        self.emit_chunk(timestamps, items)


class MapOperator(Operator[T]):
    def __init__(self, fn: Callable[[T], U]) -> None:
        super().__init__()
        self._fn = fn

    def on_item(self, timestamp: float, item: T) -> None:
        self.emit(timestamp, self._fn(item))

    def on_chunk(self, timestamps: List[float], items: List[T]) -> None:
        fn = self._fn
        self.emit_chunk(timestamps, [fn(item) for item in items])


class FilterOperator(Operator[T]):
    def __init__(self, pred: Callable[[T], bool]) -> None:
        super().__init__()
        self._pred = pred

    def on_item(self, timestamp: float, item: T) -> None:
        if self._pred(item):
            self.emit(timestamp, item)

    def on_chunk(self, timestamps: List[float], items: List[T]) -> None:
        pred = self._pred
        kept_ts: List[float] = []
        kept: List[T] = []
        for timestamp, item in zip(timestamps, items):
            if pred(item):
                kept_ts.append(timestamp)
                kept.append(item)
        self.emit_chunk(kept_ts, kept)


class OASRSSampleOperator(Operator[T]):
    """The sampling operator the paper adds to Flink (§4.2.2).

    Wraps an `OASRSSampler` (duck-typed: needs ``offer``, ``process_chunk``
    and ``close_interval``).  Items are offered on the fly; on each watermark
    crossing a slide boundary the interval closes and the resulting
    `WeightedSample` is pushed downstream as a single record — the windowed
    aggregation below it then sees one pre-weighted sample per slide.
    """

    def __init__(
        self,
        cluster: SimulatedCluster,
        sampler,
        slide: float,
        start: float = 0.0,
    ) -> None:
        super().__init__()
        if slide <= 0:
            raise ValueError("slide must be positive")
        self._cluster = cluster
        self._sampler = sampler
        self._slide = slide
        self._next_fire = start + slide

    def on_item(self, timestamp: float, item: T) -> None:
        self._cluster.sample_items(1, "oasrs")
        self._sampler.offer(item)

    def on_chunk(self, timestamps: List[float], items: List[T]) -> None:
        """Chunk fast path: close any intervals the chunk spans, then offer
        each intra-interval segment via the sampler's ``process_chunk``.

        Matches per-item semantics exactly: in per-item mode the watermark
        for an item's timestamp arrives *before* the item, so an item lying
        beyond the next fire boundary closes the interval first — here the
        chunk is split at fire boundaries (timestamps are in order) and the
        same close-then-offer order is preserved.
        """
        self._cluster.sample_items(len(items), "oasrs")
        start = 0
        n = len(items)
        while start < n:
            while timestamps[start] >= self._next_fire:
                sample = self._sampler.close_interval()
                self.emit(self._next_fire, sample)
                self._next_fire += self._slide
            end = bisect_left(timestamps, self._next_fire, start)
            self._sampler.process_chunk(items[start:end])
            start = end

    def on_watermark(self, timestamp: float) -> None:
        while timestamp >= self._next_fire:
            sample = self._sampler.close_interval()
            self.emit(self._next_fire, sample)
            self._next_fire += self._slide
        self.emit_watermark(timestamp)

    def on_close(self) -> None:
        sample = self._sampler.close_interval()
        if sample.total_count:
            self.emit(self._next_fire, sample)
        super().on_close()


class ChargeOperator(Operator[T]):
    """Pass-through stage charging query-processing cost per item.

    ``count_fn`` maps the record to how many logical items it represents —
    1 for plain records, ``sample.total_items`` for a `WeightedSample`
    emitted by the OASRS operator.  Keeping the charge in one explicit stage
    lets windowed operators downstream run with ``charge_processing=False``
    so overlapping panes never double-charge an item.
    """

    def __init__(
        self, cluster: SimulatedCluster, count_fn: Optional[Callable[[T], int]] = None
    ) -> None:
        super().__init__()
        self._cluster = cluster
        self._count_fn = count_fn

    def on_item(self, timestamp: float, item: T) -> None:
        n = 1 if self._count_fn is None else self._count_fn(item)
        self._cluster.process_items(n)
        self.emit(timestamp, item)

    def on_chunk(self, timestamps: List[float], items: List[T]) -> None:
        count_fn = self._count_fn
        if count_fn is None:
            n = len(items)
        else:
            n = sum(count_fn(item) for item in items)
        self._cluster.process_items(n)
        self.emit_chunk(timestamps, items)


class ProcessSink(Operator[T]):
    """Terminal stage charging the per-item query cost; collects results."""

    def __init__(self, cluster: SimulatedCluster, fn: Optional[Callable[[T], U]] = None) -> None:
        super().__init__()
        self._cluster = cluster
        self._fn = fn
        self.results: List[Tuple[float, object]] = []

    def on_item(self, timestamp: float, item: T) -> None:
        self._cluster.process_items(1)
        value = self._fn(item) if self._fn is not None else item
        self.results.append((timestamp, value))


class CollectSink(Operator[T]):
    """Terminal stage that records items without charging processing."""

    def __init__(self) -> None:
        super().__init__()
        self.results: List[Tuple[float, T]] = []

    def on_item(self, timestamp: float, item: T) -> None:
        self.results.append((timestamp, item))
