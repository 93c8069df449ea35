"""DStream — discretized streams for the batched engine.

Mirrors Spark Streaming's model [22, 47]: the input stream is chopped into
micro-batches at a fixed *batch interval*; each micro-batch becomes one
RDD and one data-parallel job.  Sliding windows [6] are unions of the
batches they cover: a window of length ``w`` sliding by ``δ`` (both integer
multiples of the batch interval) emits, every ``δ`` seconds, the items of
the last ``w`` seconds.

`Batcher` converts a timestamped item iterator into `MicroBatch`es;
`SlidingWindower` groups finished batches into `WindowPane`s.  Both are
pure stream-to-stream generators — the engines decide what to do with each
batch/pane (form RDDs, sample, run jobs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generic, Iterable, Iterator, List, Tuple, TypeVar

import numpy as _np

T = TypeVar("T")

__all__ = ["MicroBatch", "WindowPane", "Batcher", "SlidingWindower"]


@dataclass(frozen=True)
class MicroBatch(Generic[T]):
    """Items of one batch interval: [start, start + interval)."""

    index: int
    start: float
    interval: float
    items: Tuple[T, ...]

    @property
    def end(self) -> float:
        return self.start + self.interval

    def __len__(self) -> int:
        return len(self.items)


@dataclass(frozen=True)
class WindowPane(Generic[T]):
    """One evaluation of a sliding window: [end − length, end)."""

    end: float
    length: float
    batches: Tuple[MicroBatch[T], ...]

    @property
    def start(self) -> float:
        return self.end - self.length

    @property
    def items(self) -> List[T]:
        out: List[T] = []
        for batch in self.batches:
            out.extend(batch.items)
        return out

    def __len__(self) -> int:
        return sum(len(b) for b in self.batches)


class Batcher(Generic[T]):
    """Chop a time-ordered ``(timestamp, item)`` stream into micro-batches.

    Emits *every* interval in order, including empty ones, so window algebra
    downstream stays aligned — Spark Streaming likewise launches a job per
    interval regardless of data.
    """

    def __init__(self, interval: float, start: float = 0.0) -> None:
        if interval <= 0:
            raise ValueError(f"batch interval must be positive, got {interval}")
        self.interval = interval
        self.start = start

    def batches(
        self, stream: Iterable[Tuple[float, T]]
    ) -> Iterator[MicroBatch[T]]:
        index = 0
        boundary = self.start + self.interval
        current: List[T] = []
        for timestamp, item in stream:
            if timestamp < self.start:
                raise ValueError(
                    f"timestamp {timestamp} precedes stream start {self.start}"
                )
            while timestamp >= boundary:
                yield MicroBatch(index, boundary - self.interval, self.interval, tuple(current))
                current = []
                index += 1
                boundary += self.interval
            current.append(item)
        if current:
            yield MicroBatch(index, boundary - self.interval, self.interval, tuple(current))

    def batches_columnar(self, batch, pos: int = 0) -> Iterator[MicroBatch[T]]:
        """Columnar counterpart of ``batches`` over a `RecordBatch`, from
        row ``pos`` on (a resumed run's unconsumed suffix, still located).

        Batch boundaries come from ``searchsorted`` on the cached timestamp
        column instead of a per-item accumulation loop, and each
        micro-batch's ``items`` is a zero-copy
        `repro.core.records.ColumnSlice` view.  Boundary arithmetic is the
        *same accumulated* ``boundary += interval`` float sequence as the
        per-item loop, so batch indices, starts, ends — and therefore every
        downstream pane fire — are bitwise identical.  Empty intervals are
        emitted, a trailing partial batch only when non-empty, and a
        timestamp before ``start`` raises, exactly as in ``batches``.
        """
        ts = batch.ts
        n = len(batch)
        if pos < n and float(ts[pos:].min()) < self.start:
            raise ValueError(
                f"timestamp {float(ts[pos:].min())} precedes stream start {self.start}"
            )
        index = 0
        boundary = self.start + self.interval
        while pos < n:
            end_idx = int(_np.searchsorted(ts, boundary, side="left"))
            if end_idx < n:
                yield MicroBatch(
                    index,
                    boundary - self.interval,
                    self.interval,
                    batch.item_slice(pos, end_idx),
                )
                pos = end_idx
                index += 1
                boundary += self.interval
            else:
                yield MicroBatch(
                    index,
                    boundary - self.interval,
                    self.interval,
                    batch.item_slice(pos, n),
                )
                pos = n


class SlidingWindower(Generic[T]):
    """Group micro-batches into sliding windows of ``length`` every ``slide``.

    Both parameters must be positive multiples of the batch interval (the
    same restriction Spark Streaming imposes).  A pane is emitted as soon as
    the batch closing it has been produced; early panes (before one full
    window has elapsed) cover only the available prefix, as in the paper's
    experiments which start reporting from the first slide.
    """

    def __init__(self, length: float, slide: float, batch_interval: float) -> None:
        for name, value in (("length", length), ("slide", slide)):
            if value <= 0:
                raise ValueError(f"window {name} must be positive, got {value}")
            ratio = value / batch_interval
            if abs(ratio - round(ratio)) > 1e-9:
                raise ValueError(
                    f"window {name} ({value}) must be a multiple of the "
                    f"batch interval ({batch_interval})"
                )
        self.length = length
        self.slide = slide
        self.batch_interval = batch_interval
        self._batches_per_window = int(round(length / batch_interval))
        self._batches_per_slide = int(round(slide / batch_interval))

    def panes(
        self, batches: Iterable[MicroBatch[T]]
    ) -> Iterator[WindowPane[T]]:
        history: List[MicroBatch[T]] = []
        for batch in batches:
            history.append(batch)
            if (batch.index + 1) % self._batches_per_slide == 0:
                window = history[-self._batches_per_window:]
                yield WindowPane(
                    end=batch.end, length=self.length, batches=tuple(window)
                )
            # Trim history to what future windows can still need.
            if len(history) > self._batches_per_window:
                del history[: len(history) - self._batches_per_window]
