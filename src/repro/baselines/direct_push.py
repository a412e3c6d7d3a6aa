"""Direct one-to-many push: §2's proprietary straw-man.

"The solutions are often proprietary, and employ a one-to-many model
where the producer is expected to deliver personalized content
directly to each of the consumers.  The approach clearly has
scalability limitations."

The :class:`PushOrigin` keeps a subscriber roster and unicasts every
item to every matching subscriber, paced by its uplink capacity — so
publisher load grows linearly in N and delivery latency for the last
subscriber grows with N/capacity.  E3 compares this against NewsWire,
where the publisher only ever contacts a handful of representatives.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Optional, Set

from repro.core.errors import ConfigurationError
from repro.core.identifiers import NodeId
from repro.runtime.sim import SimRuntime
from repro.sim.node import Process
from repro.sim.trace import TraceLog
from repro.news.item import NewsItem


@dataclass
class PushDelivery:
    item: NewsItem
    wire_size: int = 0

    def __post_init__(self) -> None:
        self.wire_size = 64 + self.item.wire_size()


@dataclass
class PushOriginStats:
    published: int = 0
    sends: int = 0
    bytes_sent: int = 0
    peak_backlog: int = 0


class PushOrigin(Process):
    """A publisher unicasting to its full subscriber roster."""

    def __init__(
        self,
        node_id: NodeId,
        runtime: SimRuntime,
        send_rate: float = 500.0,   # unicast sends per second (uplink cap)
        trace: Optional[TraceLog] = None,
    ):
        if send_rate <= 0:
            raise ConfigurationError("send_rate must be positive")
        super().__init__(node_id, runtime)
        self.send_rate = send_rate
        self.trace = trace if trace is not None else TraceLog(runtime.sim, kinds=set())
        self.stats = PushOriginStats()
        self._subscribers: Dict[NodeId, Set[str]] = {}
        self._backlog: Deque[tuple[NodeId, PushDelivery]] = deque()
        self._sending = False

    # -- roster management (the "personalized content" bookkeeping) ---------

    def subscribe(self, subscriber: NodeId, subjects: Set[str]) -> None:
        self._subscribers[subscriber] = set(subjects)

    def unsubscribe(self, subscriber: NodeId) -> None:
        self._subscribers.pop(subscriber, None)

    @property
    def roster_size(self) -> int:
        return len(self._subscribers)

    # -- publishing ----------------------------------------------------------

    def publish(self, item: NewsItem) -> int:
        """Queue one unicast per matching subscriber; returns fan-out."""
        self.stats.published += 1
        fanout = 0
        delivery = PushDelivery(item)
        for subscriber, subjects in self._subscribers.items():
            if item.subject in subjects:
                self._backlog.append((subscriber, delivery))
                fanout += 1
        self.stats.peak_backlog = max(self.stats.peak_backlog, len(self._backlog))
        self._ensure_sending()
        return fanout

    def _ensure_sending(self) -> None:
        if not self._sending and self._backlog and not self.crashed:
            self._sending = True
            self.set_timer(1.0 / self.send_rate, self._send_one)

    def _send_one(self) -> None:
        self._sending = False
        if not self._backlog:
            return
        subscriber, delivery = self._backlog.popleft()
        self.stats.sends += 1
        self.stats.bytes_sent += delivery.wire_size
        self.send(subscriber, delivery)
        self._ensure_sending()


class PushSubscriber(Process):
    """A trivial receiver recording delivery latency."""

    def __init__(
        self,
        node_id: NodeId,
        runtime: SimRuntime,
        trace: Optional[TraceLog] = None,
    ):
        super().__init__(node_id, runtime)
        self.trace = trace if trace is not None else TraceLog(runtime.sim, kinds=set())
        self.received = 0

    def on_message(self, sender: NodeId, message: object) -> None:
        if isinstance(message, PushDelivery):
            self.received += 1
            self.trace.record(
                "push-deliver",
                node=str(self.node_id),
                item=str(message.item.item_id),
                latency=self.now - message.item.published_at,
            )
