"""Pull-model clients: the §1 baseline NewsWire replaces.

A :class:`PullClient` returns to the origin every ``poll_interval``
seconds.  The paper's arithmetic: "a consumer who returns 4 times
during a day receives about 70% redundant data" (a Slashdot-like site
posts ~25 items/day on a ~15-item front page, so most of the page is
unchanged between visits).  The client tracks exactly that redundancy,
plus item freshness latency, so E1 can reproduce the claim and sweep
poll frequency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Set

from repro.core.errors import ConfigurationError
from repro.core.identifiers import NodeId
from repro.runtime.sim import SimRuntime
from repro.sim.node import Process
from repro.sim.trace import TraceLog
from repro.baselines.origin import (
    ArticleRequest,
    ArticleResponse,
    PullRequest,
    PullResponse,
    SUMMARY_BYTES,
)
from repro.news.item import NewsItem


@dataclass
class PullClientStats:
    polls: int = 0
    responses: int = 0
    not_modified: int = 0
    items_received: int = 0       # full item payloads received (any freshness)
    new_items: int = 0            # first-time items
    redundant_items: int = 0      # full payloads the client already had
    bytes_received: int = 0
    redundant_bytes: int = 0
    article_fetches: int = 0

    @property
    def redundancy_ratio(self) -> float:
        """Fraction of received payload bytes that were redundant."""
        return self.redundant_bytes / self.bytes_received if self.bytes_received else 0.0


class PullClient(Process):
    """A consumer polling a news site (modes: full/cond/delta/rss)."""

    def __init__(
        self,
        node_id: NodeId,
        runtime: SimRuntime,
        origin: NodeId,
        poll_interval: float,
        mode: str = "full",
        subjects: Optional[Set[str]] = None,
        trace: Optional[TraceLog] = None,
    ):
        if mode not in ("full", "cond", "delta", "rss"):
            raise ConfigurationError(f"unknown pull mode {mode!r}")
        if poll_interval <= 0:
            raise ConfigurationError("poll_interval must be positive")
        super().__init__(node_id, runtime)
        self.origin = origin
        self.poll_interval = poll_interval
        self.mode = mode
        self.subjects = subjects  # None = interested in everything
        self.trace = trace if trace is not None else TraceLog(runtime.sim, kinds=set())
        self.stats = PullClientStats()
        self._seen_serials: Set[int] = set()
        self._last_serial = 0
        self._timer = None

    def on_start(self) -> None:
        jitter = self.rng("pull-jitter").uniform(0, self.poll_interval)
        self._timer = self.every(self.poll_interval, self._poll, first_delay=jitter)

    def on_recover(self) -> None:
        self.on_start()

    def _poll(self) -> None:
        self.stats.polls += 1
        self.send(self.origin, PullRequest(self.mode, self._last_serial))

    # -- responses -----------------------------------------------------------

    def on_message(self, sender: NodeId, message: object) -> None:
        if isinstance(message, PullResponse):
            self._handle_pull_response(message)
        elif isinstance(message, ArticleResponse):
            self._handle_article(message)

    def _handle_pull_response(self, response: PullResponse) -> None:
        self.stats.responses += 1
        self.stats.bytes_received += response.wire_size
        if response.not_modified:
            self.stats.not_modified += 1
            return
        self._last_serial = max(self._last_serial, response.latest_serial)
        for item in response.items:
            self._receive_item(item)
        for serial, subject in response.summaries:
            # RSS: fetch full article only if new and interesting.
            if serial not in self._seen_serials and self._interested(subject):
                self.stats.article_fetches += 1
                self.send(self.origin, ArticleRequest(serial))
            elif serial in self._seen_serials:
                self.stats.redundant_bytes += SUMMARY_BYTES

    def _handle_article(self, response: ArticleResponse) -> None:
        self.stats.bytes_received += response.wire_size
        if response.item is not None:
            self._receive_item(response.item)

    def _receive_item(self, item: NewsItem) -> None:
        serial = item.item_id.serial
        self.stats.items_received += 1
        if serial in self._seen_serials:
            self.stats.redundant_items += 1
            self.stats.redundant_bytes += item.wire_size()
            return
        self._seen_serials.add(serial)
        self.stats.new_items += 1
        self.trace.record(
            "pull-deliver",
            node=str(self.node_id),
            item=str(item.item_id),
            latency=self.now - item.published_at,
        )

    def _interested(self, subject: str) -> bool:
        return self.subjects is None or subject in self.subjects
