"""Extract experiment metrics from a trace and its sinks.

The collectors prefer the cheapest source that can answer the
question (see ``docs/OBSERVABILITY.md``):

* with a retained-event :class:`~repro.obs.sinks.MemorySink`, one
  shared trace pass (:func:`collect_delivery_stats`) yields exact
  latencies *and* per-item counts — callers that previously scanned
  the trace twice now share the pass;
* with only a :class:`~repro.obs.sinks.StreamingSink` attached, the
  same collectors consume the sink's bounded-memory aggregates
  (approximate percentiles from the histogram buckets) so large runs
  never have to retain events at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional

from repro.obs.stats import Summary, TimeBucket, bucketize, ratio

if TYPE_CHECKING:
    # Annotation only: repro.sim.trace imports this package.
    from repro.sim.trace import TraceLog


@dataclass
class DeliveryStats:
    """Everything one pass over the delivery events can tell us.

    ``latencies`` is empty when the stats came from a streaming sink
    (``source == "streaming"``); ``summary`` is then approximate
    (bucket-interpolated) but ``per_item`` / ``per_node`` stay exact.
    """

    kind: str
    source: str  # "memory" | "streaming" | "empty"
    latencies: list[float] = field(default_factory=list)
    per_item: Dict[str, int] = field(default_factory=dict)
    per_node: Dict[str, int] = field(default_factory=dict)
    summary: Summary = field(default_factory=lambda: Summary.of(()))


def collect_delivery_stats(trace: TraceLog, kind: str = "deliver") -> DeliveryStats:
    """One shared pass over ``kind`` events (or sink aggregates).

    Preference order: retained memory events (exact), then a
    :class:`StreamingSink`'s aggregates (approximate summary, exact
    counts), then the bare kind counter (counts only).
    """
    memory = trace.memory_sink()
    if memory is not None and memory.events:
        latencies: list[float] = []
        per_item: Dict[str, int] = {}
        per_node: Dict[str, int] = {}
        for event in memory.events:
            if event.kind != kind:
                continue
            latency = event.get("latency")
            if latency is not None:
                latencies.append(latency)
            item = event.get("item")
            if item is not None:
                per_item[item] = per_item.get(item, 0) + 1
            node = event.get("node")
            if node is not None:
                per_node[node] = per_node.get(node, 0) + 1
        return DeliveryStats(
            kind=kind,
            source="memory",
            latencies=latencies,
            per_item=per_item,
            per_node=per_node,
            summary=Summary.of(latencies),
        )

    streaming = trace.streaming_sink()
    if streaming is not None and streaming.latency_kind == kind:
        histogram = streaming.latency
        summary = Summary(
            count=histogram.count,
            mean=histogram.mean,
            minimum=histogram.minimum if histogram.count else 0.0,
            p50=histogram.quantile(0.50),
            p90=histogram.quantile(0.90),
            p99=histogram.quantile(0.99),
            maximum=histogram.maximum if histogram.count else 0.0,
        )
        return DeliveryStats(
            kind=kind,
            source="streaming",
            per_item=dict(streaming.deliveries_per_item),
            per_node=dict(streaming.deliveries_per_node),
            summary=summary,
        )

    return DeliveryStats(kind=kind, source="empty")


def delivery_latencies(trace: TraceLog, kind: str = "deliver") -> list[float]:
    """Publish→deliver latencies recorded in the trace.

    Exact values need retained events; with streaming-only sinks this
    is empty — use :func:`collect_delivery_stats` for the approximate
    summary instead.
    """
    return collect_delivery_stats(trace, kind).latencies


def latency_summary(trace: TraceLog, kind: str = "deliver") -> Summary:
    return collect_delivery_stats(trace, kind).summary


def delivery_ratio(
    trace: TraceLog,
    expected: Dict[str, int],
    kind: str = "deliver",
    stats: Optional[DeliveryStats] = None,
) -> float:
    """Delivered / expected across items (``expected``: item -> count).

    Pass a pre-collected ``stats`` to share one trace pass with other
    collectors.
    """
    if stats is None:
        stats = collect_delivery_stats(trace, kind)
    total_expected = sum(expected.values())
    if stats.source == "empty":
        # No aggregating sink attached: fall back to the always-on
        # kind counter.  Over-delivery can't be capped per item from a
        # bare total, so cap at the aggregate expectation instead.
        return ratio(min(trace.count(kind), total_expected), total_expected)
    delivered = stats.per_item
    total_delivered = sum(
        min(delivered.get(item, 0), want) for item, want in expected.items()
    )
    return ratio(total_delivered, total_expected)


def event_timeline(
    trace: TraceLog,
    kind: str,
    window: float,
    start: float = 0.0,
    end: Optional[float] = None,
) -> list[TimeBucket]:
    """Event-rate series of one trace kind: retained ``kind`` events
    counted into ``window``-wide buckets (see :func:`bucketize`)."""
    return bucketize(
        (event.time for event in trace.events(kind)),
        window=window,
        start=start,
        end=end,
    )
