"""Hybrid push/pull CDN — the third §1 baseline.

"Many of the highest-volume news sites use a hybrid push/pull approach
to push their information to geographically distributed content
delivery nodes, from which the consumer still has to pull the data."

Model: the origin *pushes* every published item to a fixed set of edge
nodes (one unicast per edge); consumers *pull* from their assigned
(nearest) edge on a poll interval, exactly like :class:`PullClient`
against an origin.  Compared in E3/E4 extensions:

* publisher load becomes O(edges) instead of O(consumers) — the CDN
  fixes the publisher bottleneck;
* consumer freshness is still bounded by the poll interval — the pull
  half of the hybrid remains (the paper's core criticism);
* a flood against one edge only degrades that edge's consumers, but a
  flood against the origin's push path does nothing — partial
  robustness, at the cost of dedicated server infrastructure (which
  NewsWire's whole point is to avoid: "needs no centralized
  infrastructure or dedicated servers", §2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.errors import ConfigurationError
from repro.core.identifiers import NodeId, ZonePath
from repro.runtime.sim import SimRuntime
from repro.sim.node import Process
from repro.sim.trace import TraceLog
from repro.baselines.origin import OriginServer
from repro.news.item import NewsItem


@dataclass
class EdgePush:
    """Origin → edge replication message."""

    item: NewsItem
    wire_size: int = 0

    def __post_init__(self) -> None:
        self.wire_size = 64 + self.item.wire_size()


@dataclass
class CdnStats:
    pushed: int = 0
    push_bytes: int = 0


class CdnOrigin(Process):
    """The publisher side: pushes each item to every edge node."""

    def __init__(
        self,
        node_id: NodeId,
        runtime: SimRuntime,
        edges: Sequence[NodeId] = (),
        trace: Optional[TraceLog] = None,
    ):
        super().__init__(node_id, runtime)
        self.edges: list[NodeId] = list(edges)
        self.trace = trace if trace is not None else TraceLog(runtime.sim, kinds=set())
        self.stats = CdnStats()

    def add_edge(self, edge: NodeId) -> None:
        self.edges.append(edge)

    def publish(self, item: NewsItem) -> None:
        if not self.edges:
            raise ConfigurationError("a CDN needs at least one edge node")
        push = EdgePush(item)
        for edge in self.edges:
            self.stats.pushed += 1
            self.stats.push_bytes += push.wire_size
            self.send(edge, push)
        self.trace.record("cdn-publish", item=str(item.item_id))


class EdgeNode(OriginServer):
    """A content-delivery edge: an origin server fed by pushes.

    Inherits the bounded-capacity request handling of
    :class:`OriginServer` (edges can be overloaded/DoSed individually)
    and receives its content via :class:`EdgePush` instead of local
    publishing.
    """

    def on_message(self, sender: NodeId, message: object) -> None:
        if isinstance(message, EdgePush):
            self.publish(message.item)
            return
        super().on_message(sender, message)


def build_cdn(
    runtime: SimRuntime,
    num_edges: int,
    capacity_per_edge: float = 200.0,
    page_items: int = 20,
    trace: Optional[TraceLog] = None,
) -> tuple[CdnOrigin, list[EdgeNode]]:
    """Stand up an origin plus ``num_edges`` geographically-named edges.

    Edges live under distinct top-level zones so the hierarchical
    latency model places them "near" different consumer populations.
    """
    if num_edges < 1:
        raise ConfigurationError("num_edges must be >= 1")
    edges = [
        EdgeNode(
            ZonePath.parse(f"/region{index}/edge"),
            runtime,
            capacity=capacity_per_edge,
            page_items=page_items,
            trace=trace,
        )
        for index in range(num_edges)
    ]
    origin = CdnOrigin(
        ZonePath.parse("/origin/cdn"),
        runtime,
        edges=[edge.node_id for edge in edges],
        trace=trace,
    )
    return origin, edges


def nearest_edge(client: NodeId, edges: Sequence[EdgeNode]) -> EdgeNode:
    """Assign a consumer to the edge sharing its top-level zone, if any.

    Consumers placed under ``/regionK/...`` pull from ``/regionK/edge``;
    anyone else gets a deterministic fallback.
    """
    top = client.labels[0] if client.labels else ""
    for edge in edges:
        if edge.node_id.labels[0] == top:
            return edge
    return edges[hash(top) % len(edges)]
