"""Batched-engine extension hook for ad-hoc experimental systems.

The four shipping Spark-style systems (native, SRS, STS, StreamApprox) are
declarative configs over the unified runtime — their per-batch sampling
lives in `repro.runtime.strategies` and the micro-batch skeleton in
`repro.runtime.driver` (``execute_plan`` on the batched engine).
`BatchedSystem` remains as the extension point for one-off experimental
systems (e.g. the drift-ablation baselines) that want to plug a custom
``_handle_batch`` into that same skeleton without registering a full
`SamplingStrategy`.

`full_weight_sample` is re-exported from `repro.runtime.strategies` for
compatibility.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..core.strata import WeightedSample
from ..engine.batched.context import StreamingContext
from ..runtime.driver import execute_plan
from ..runtime.source import ListSource
from ..runtime.strategies import full_weight_sample  # noqa: F401  (re-export)
from .base import StreamSystem

__all__ = ["BatchedSystem", "full_weight_sample"]


class BatchedSystem(StreamSystem):
    """Micro-batch hook: subclasses implement `_handle_batch`.

    The runtime's batched loop chops the stream into ``batch_interval``
    micro-batches, calls ``_handle_batch`` for each (which returns the
    batch's `WeightedSample` and charges system-specific costs), and fires
    a sliding-window pane every ``slide`` seconds by merging the in-window
    batch samples — identical to the loop the registered strategies run
    through.

    Example
    -------
    >>> class EchoSystem(BatchedSystem):
    ...     name = "echo"
    ...     def _handle_batch(self, ctx, items):
    ...         return full_weight_sample(items, self.query.key_fn)
    """

    engine = "batched"
    strategy = "none"

    def _handle_batch(self, ctx: StreamingContext, items: Sequence[object]) -> WeightedSample:
        raise NotImplementedError

    def _execute(self, stream: List[Tuple[float, object]]):
        return execute_plan(
            self.plan(ListSource(stream)), handle_batch=self._handle_batch
        )
