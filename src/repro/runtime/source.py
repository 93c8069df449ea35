"""Plan sources — where an `ExecutionPlan` reads its input stream from.

A source yields one finite, time-ordered ``(timestamp, item)`` list per
run.  Two implementations cover the paper's setups:

* `ListSource` — an in-memory stream, the shape every workload generator
  produces and `StreamSystem.run` has always consumed.
* `TopicSource` — Kafka-style ingestion through the in-memory aggregator
  (Figure 1): drains a `repro.aggregator.broker.Broker` topic, either with
  a plain timestamp-merging `Consumer` or through a `ConsumerGroup` whose
  members each own a disjoint partition subset.  Records are recovered in
  exactly their production order — timestamp ties across partitions break
  on the broker's topic-global sequence number — so a query fed from a
  topic produces panes identical to the same query fed from the producing
  list (the broker-as-source integration tests).

Sources deliberately stay dumb — windowing, sampling, and estimation all
belong to the runtime driver, so any system can read from any source.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Hashable, List, Optional, Tuple, TypeVar

from ..aggregator.broker import Broker
from ..aggregator.consumer import Consumer
from ..aggregator.groups import ConsumerGroup
from ..core.records import RecordBatch

T = TypeVar("T")

__all__ = ["PlanSource", "ListSource", "TopicSource", "as_source"]


class PlanSource:
    """A provider of one finite time-ordered ``(timestamp, item)`` stream."""

    def events(self) -> List[Tuple[float, object]]:
        raise NotImplementedError

    def batches(self) -> List[RecordBatch]:
        """The same stream as `repro.core.records.RecordBatch` batches.

        Concatenated in order, the batches reproduce ``events()`` exactly;
        the columnar drivers consume this form so NumPy columns (and, for
        broker sources, the production ``seq`` order) survive ingestion.
        The default wraps ``events()`` in one batch.
        """
        return [RecordBatch.of(self.events())]

    @property
    def replayable(self) -> bool:
        """Whether repeated ``events()`` calls reproduce the same stream.

        Checkpoint-based resume slices the event list at the checkpointed
        offset, so it is only sound over sources that re-deliver the exact
        same ordered stream.  Subclasses that can guarantee this override
        to True; the conservative default is False.
        """
        return False


class ListSource(PlanSource):
    """Wrap an already-materialised in-memory stream.

    Example
    -------
    >>> ListSource([(0.1, "a"), (0.2, "b")]).events()
    [(0.1, 'a'), (0.2, 'b')]
    """

    def __init__(self, stream: List[Tuple[float, T]]) -> None:
        # Wrap once into a RecordBatch (a list subclass) so repeated
        # runs/sources over the same stream share one set of cached
        # columns; an existing batch passes through without copying.
        self._stream = RecordBatch.of(stream)

    def events(self) -> List[Tuple[float, object]]:
        return self._stream

    def batches(self) -> List[RecordBatch]:
        return [self._stream]

    @property
    def replayable(self) -> bool:
        """An in-memory list always re-delivers the same stream."""
        return True


class TopicSource(PlanSource):
    """Read a broker topic as the plan's input stream.

    With ``group_id`` set, consumption goes through a `ConsumerGroup` of
    ``members`` consumers — each member polls only its assigned partitions,
    and the coordinator merges the member streams by timestamp, mirroring
    how a real deployment fans a topic out over worker processes.  Without
    a group, a single timestamp-merging `Consumer` drains the topic.

    ``rewind`` (default True) seeks back to the beginning before every
    drain — the plain consumer's offsets or the group's committed offsets
    alike — so repeated runs see the full topic.  Pass False for
    streaming semantics: each drain consumes only records not yet
    delivered to *this source* (offsets live with the source's consumer /
    `ConsumerGroup` instance — the in-memory broker keeps no group
    registry, so a separately constructed source with the same
    ``group_id`` starts from the beginning again).

    Example
    -------
    >>> broker = Broker()
    >>> _ = broker.create_topic("events", num_partitions=2)
    >>> for i in range(4):
    ...     _ = broker.topic("events").append(float(i), key=i % 2, value=i)
    >>> TopicSource(broker, "events").events()
    [(0.0, 0), (1.0, 1), (2.0, 2), (3.0, 3)]
    >>> TopicSource(broker, "events", group_id="g", members=2).events()
    [(0.0, 0), (1.0, 1), (2.0, 2), (3.0, 3)]
    """

    def __init__(
        self,
        broker: Broker,
        topic: str,
        group_id: Optional[Hashable] = None,
        members: int = 1,
        rewind: bool = True,
    ) -> None:
        if members < 1:
            raise ValueError(f"members must be at least 1, got {members}")
        self._rewind = rewind
        if group_id is None:
            self._consumer: Optional[Consumer] = Consumer(broker, topic)
            self._group: Optional[ConsumerGroup] = None
            self._members: List = []
        else:
            self._consumer = None
            self._group = ConsumerGroup(broker, topic, group_id)
            self._members = [self._group.join() for _ in range(members)]

    def events(self) -> List[Tuple[float, object]]:
        return self.batches()[0]

    def batches(self) -> List[RecordBatch]:
        """Assemble one `RecordBatch` per drain, preserving ``seq`` order.

        Coordinator merge: each member's poll is already time-ordered; the
        topic-global production sequence breaks timestamp ties, so the
        merged stream is exactly the production order.  The batch carries
        the ``seq`` column so replay consumers can verify or re-establish
        that order without re-reading the topic.
        """
        if self._consumer is not None:
            if self._rewind:
                self._consumer.seek_to_beginning()
            records = list(self._consumer.poll())
        else:
            if self._rewind:
                self._group.seek_to_beginning()
            records = []
            for member in self._members:
                records.extend(member.poll())
            records.sort(key=attrgetter("timestamp", "seq"))
        batch = RecordBatch(map(attrgetter("timestamp", "value"), records))
        return [batch.with_seq(list(map(attrgetter("seq"), records)))]

    @property
    def replayable(self) -> bool:
        """Replayable iff the source rewinds before every drain.

        With ``rewind=True`` each ``events()`` re-drains the full topic and
        the broker's topic-global ``seq`` reconstructs the exact production
        order — the replay-offset contract checkpoint resume depends on.
        Without rewind, offsets advance per drain and an earlier prefix is
        gone for good.
        """
        return self._rewind


def as_source(stream_or_source) -> PlanSource:
    """Coerce ``run``'s argument: a `PlanSource` passes through, an
    in-memory list is wrapped in a `ListSource`."""
    if isinstance(stream_or_source, PlanSource):
        return stream_or_source
    return ListSource(stream_or_source)
