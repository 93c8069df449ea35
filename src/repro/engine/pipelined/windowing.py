"""Event-time sliding windows for the pipelined engine.

Implements the time-based sliding-window computation both stream models
support (§2.2): a window of ``length`` seconds evaluated every ``slide``
seconds.  The operator buffers items with their event timestamps and fires
a pane whenever the watermark passes a slide boundary, evicting items older
than the window start — the standard Flink sliding-window semantics
restricted to what the paper's queries need (per-pane aggregation of the
items, or of pre-weighted OASRS samples, inside the window).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Generic, List, Optional, Sequence, Tuple, TypeVar

from ..cluster import SimulatedCluster
from .operators import Operator

T = TypeVar("T")
A = TypeVar("A")

__all__ = ["SlidingWindowOperator", "SampleWindowOperator"]


class SlidingWindowOperator(Operator[T], Generic[T, A]):
    """Buffer items; on each slide boundary emit ``aggregate(fire_time, pane)``.

    ``aggregate`` receives the fire time and the list of ``(timestamp,
    item)`` pairs currently inside ``[fire_time − length, fire_time)``; its
    return value is emitted downstream stamped with the fire time.
    Processing cost for the aggregation is charged per buffered item (one
    pass per pane).

    ``preload`` seeds the buffer with items from before ``start`` — the
    checkpointed window content a resumed run carries across the restart
    so its first panes still cover a full window.
    """

    def __init__(
        self,
        cluster: SimulatedCluster,
        length: float,
        slide: float,
        aggregate: Callable[[float, List[Tuple[float, T]]], A],
        start: float = 0.0,
        charge_processing: bool = True,
        preload: Optional[Sequence[Tuple[float, T]]] = None,
    ) -> None:
        super().__init__()
        if length <= 0 or slide <= 0:
            raise ValueError("window length and slide must be positive")
        self._cluster = cluster
        self._length = length
        self._slide = slide
        self._aggregate = aggregate
        self._buffer: Deque[Tuple[float, T]] = deque(preload or ())
        self._next_fire = start + slide
        self._charge = charge_processing

    def on_item(self, timestamp: float, item: T) -> None:
        self._buffer.append((timestamp, item))

    def on_watermark(self, timestamp: float) -> None:
        while timestamp >= self._next_fire:
            self._fire(self._next_fire)
            self._next_fire += self._slide
        self.emit_watermark(timestamp)

    def _fire(self, fire_time: float) -> None:
        window_start = fire_time - self._length
        while self._buffer and self._buffer[0][0] < window_start:
            self._buffer.popleft()
        pane = [(ts, item) for ts, item in self._buffer if ts < fire_time]
        if self._charge:
            self._cluster.process_items(len(pane))
        self.emit(fire_time, self._aggregate(fire_time, pane))

    def on_close(self) -> None:
        if self._buffer:
            self._fire(self._next_fire)
        super().on_close()


class SampleWindowOperator(Operator[T], Generic[T, A]):
    """Window over *pre-weighted samples* emitted by the OASRS operator.

    Each upstream record is one slide-interval `WeightedSample`; a pane of
    length ``w`` spanning ``k = w / slide`` intervals covers the last ``k``
    samples and emits ``aggregate(fire_time, recent)`` — ``recent`` being
    those ``(timestamp, sample)`` records, which the aggregate merges
    (`repro.core.strata.combine_worker_samples`) and the checkpoint layer
    keeps as the pane-boundary window state.  Processing is charged per
    *sampled* item only — the pipelined StreamApprox saving.

    ``preload`` seeds the recent-interval deque with checkpointed
    ``recent`` records so a resumed run's first panes merge across the
    restart boundary.
    """

    def __init__(
        self,
        cluster: SimulatedCluster,
        intervals_per_window: int,
        aggregate: Callable[[float, Tuple[Tuple[float, object], ...]], A],
        charge_processing: bool = True,
        preload: Optional[Sequence[Tuple[float, object]]] = None,
    ) -> None:
        super().__init__()
        if intervals_per_window <= 0:
            raise ValueError("intervals_per_window must be positive")
        self._cluster = cluster
        self._k = intervals_per_window
        self._aggregate = aggregate
        self._charge = charge_processing
        self._recent: Deque[Tuple[float, object]] = deque(maxlen=intervals_per_window)
        if preload:
            self._recent.extend(preload)

    def on_item(self, timestamp: float, sample: object) -> None:
        self._recent.append((timestamp, sample))
        recent = tuple(self._recent)
        if self._charge:
            self._cluster.process_items(sum(s.total_items for _ts, s in recent))
        self.emit(timestamp, self._aggregate(timestamp, recent))
