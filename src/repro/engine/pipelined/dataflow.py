"""Dataflow assembly and execution for the pipelined engine.

`Pipeline` is a small fluent builder over the operator classes: start from
``Pipeline(cluster)``, chain stages, finish with a sink, then ``run`` a
time-ordered ``(timestamp, item)`` stream through it.  Watermarks are
generated from the item timestamps themselves (perfect watermarks — the
paper's experiments use in-order replay, so no out-of-orderness model is
needed; the operator API supports it if one is added).

Unlike the batched engine there is no job scheduling, no RDD formation and
no barrier anywhere on this path — the structural reason Flink-based
StreamApprox posts the highest throughput in every figure.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Tuple, TypeVar

from ..cluster import SimulatedCluster
from .operators import (
    ChargeOperator,
    CollectSink,
    FilterOperator,
    MapOperator,
    OASRSSampleOperator,
    Operator,
    ProcessSink,
    SourceOperator,
)
from .windowing import SampleWindowOperator, SlidingWindowOperator

T = TypeVar("T")

__all__ = ["Pipeline"]


class Pipeline:
    """Fluent builder + runner for a linear pipelined dataflow."""

    def __init__(self, cluster: SimulatedCluster) -> None:
        self.cluster = cluster
        self._source = SourceOperator(cluster)
        self._tail: Operator = self._source
        self._sink: Optional[Operator] = None

    def _append(self, op: Operator) -> "Pipeline":
        if self._sink is not None:
            raise RuntimeError("pipeline already terminated by a sink")
        self._tail.connect(op)
        self._tail = op
        return self

    # -- stages ----------------------------------------------------------------

    def map(self, fn: Callable) -> "Pipeline":
        return self._append(MapOperator(fn))

    def filter(self, pred: Callable) -> "Pipeline":
        return self._append(FilterOperator(pred))

    def charge(self, count_fn: Optional[Callable] = None) -> "Pipeline":
        """Charge per-item query-processing cost at this point of the flow."""
        return self._append(ChargeOperator(self.cluster, count_fn))

    def sample_oasrs(self, sampler, slide: float, start: float = 0.0) -> "Pipeline":
        """Insert the paper's OASRS sampling operator (§4.2.2)."""
        return self._append(
            OASRSSampleOperator(self.cluster, sampler, slide=slide, start=start)
        )

    def window(
        self,
        length: float,
        slide: float,
        aggregate: Callable,
        start: float = 0.0,
        charge_processing: bool = True,
        preload: Optional[List[Tuple[float, object]]] = None,
    ) -> "Pipeline":
        return self._append(
            SlidingWindowOperator(
                self.cluster,
                length=length,
                slide=slide,
                aggregate=aggregate,
                start=start,
                charge_processing=charge_processing,
                preload=preload,
            )
        )

    def window_samples(
        self,
        intervals_per_window: int,
        aggregate: Callable,
        charge_processing: bool = True,
        preload: Optional[List[Tuple[float, object]]] = None,
    ) -> "Pipeline":
        return self._append(
            SampleWindowOperator(
                self.cluster,
                intervals_per_window,
                aggregate,
                charge_processing,
                preload=preload,
            )
        )

    # -- sinks -------------------------------------------------------------------

    def sink_process(self, fn: Optional[Callable] = None) -> "Pipeline":
        """Terminal stage that charges per-item processing cost."""
        sink = ProcessSink(self.cluster, fn)
        self._append(sink)
        self._sink = sink
        return self

    def sink_collect(self) -> "Pipeline":
        """Terminal stage that records results without processing cost."""
        sink = CollectSink()
        self._append(sink)
        self._sink = sink
        return self

    # -- execution ------------------------------------------------------------------

    def run(
        self,
        stream: Iterable[Tuple[float, T]],
        chunk_size: int = 0,
        columnar: bool = False,
        start: int = 0,
    ) -> List[Tuple[float, object]]:
        """Push a time-ordered stream through; return the sink's results.

        ``start`` skips that many leading events of a sequence ``stream``
        (a resumed run's already-consumed prefix).

        With ``chunk_size > 1`` consecutive records are delivered as chunks
        through the operators' ``on_chunk`` fast path; watermarks advance at
        chunk granularity, and time-sensitive operators (the OASRS sampling
        operator) split chunks at their own fire boundaries, so results are
        identical to per-item execution — only the per-record Python
        overhead is amortised.

        ``columnar=True`` (set by the driver for canonical queries over a
        column-backed `repro.core.records.RecordBatch`) delivers each chunk
        as a zero-copy column view instead of buffering per item; chunk
        boundaries, watermarks, and results are identical.

        Chunks sit on the stream-global ``[i, i + chunk_size)`` grid
        whatever ``start`` is — the first chunk of a resumed run is the
        short one ending on it — because the sampler decides one-row and
        multi-row segments from different generators: a shifted grid would
        cut different segments and so draw a different sample.
        """
        if self._sink is None:
            raise RuntimeError("pipeline has no sink; call sink_process/sink_collect")
        events = stream[start:] if start else stream
        if chunk_size and chunk_size > 1:
            if columnar and getattr(stream, "has_columns", False):
                return self._run_chunked_columnar(stream, chunk_size, start)
            return self._run_chunked(events, chunk_size, start)
        last_ts = None
        for timestamp, item in events:
            if last_ts is not None and timestamp < last_ts:
                raise ValueError(
                    f"stream is not time-ordered: {timestamp} after {last_ts}"
                )
            # Watermark first so windows covering (last_ts, timestamp] fire
            # before the new item is added.
            self._source.on_watermark(timestamp)
            self._source.on_item(timestamp, item)
            last_ts = timestamp
        if last_ts is not None:
            self._source.on_watermark(last_ts + 1e-9)
        self._source.on_close()
        return list(self._sink.results)  # type: ignore[attr-defined]

    def _run_chunked(
        self, stream: Iterable[Tuple[float, T]], chunk_size: int, start: int
    ) -> List[Tuple[float, object]]:
        """Chunked run over ``stream``, whose first event is row ``start``."""
        buf_ts: List[float] = []
        buf_items: List[T] = []
        last_ts = None
        # Items until the next grid line: a short first chunk after a resume.
        room = chunk_size - start % chunk_size

        def flush() -> None:
            # Watermark advances to the chunk's first timestamp, then the
            # chunk is delivered whole; chunk-aware operators handle any
            # intra-chunk boundaries themselves.
            self._source.on_watermark(buf_ts[0])
            self._source.on_chunk(buf_ts.copy(), buf_items.copy())
            buf_ts.clear()
            buf_items.clear()

        for timestamp, item in stream:
            if last_ts is not None and timestamp < last_ts:
                raise ValueError(
                    f"stream is not time-ordered: {timestamp} after {last_ts}"
                )
            buf_ts.append(timestamp)
            buf_items.append(item)
            last_ts = timestamp
            if len(buf_items) >= room:
                flush()
                room = chunk_size
        if buf_items:
            flush()
        if last_ts is not None:
            self._source.on_watermark(last_ts + 1e-9)
        self._source.on_close()
        return list(self._sink.results)  # type: ignore[attr-defined]

    def _run_chunked_columnar(
        self, batch, chunk_size: int, start: int
    ) -> List[Tuple[float, object]]:
        """Chunked run over a column-backed batch: no per-item buffering.

        Chunks are exactly the grid runs the buffering loop of
        ``_run_chunked`` flushes; timestamps are materialised per
        chunk via ``tolist()`` (Python floats, bit-identical to the stream's
        own), and item payloads stay zero-copy
        `repro.core.records.ColumnSlice` views until an operator touches
        individual items.
        """
        source = self._source
        ts_col = batch.ts
        n = len(batch)
        if n > 1 and bool((ts_col[1:] < ts_col[:-1]).any()):
            raise ValueError("stream is not time-ordered")
        i = start
        while i < n:
            j = min(i - i % chunk_size + chunk_size, n)
            chunk_ts = ts_col[i:j].tolist()
            source.on_watermark(chunk_ts[0])
            source.on_chunk(chunk_ts, batch.item_slice(i, j))
            i = j
        if n > start:
            source.on_watermark(float(ts_col[n - 1]) + 1e-9)
        source.on_close()
        return list(self._sink.results)  # type: ignore[attr-defined]
