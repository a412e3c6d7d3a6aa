"""Per-layer metrics of one traced run.

Counts come from the counters the layers already feed into
``system.metrics`` and the trace log's per-kind record counts, read as
deltas over the run phase; self times come from the
:class:`~tracer.Tracer`; ratios are computed here with their bases.
Metrics of a layer a workload does not run read 0 (the columnar
backend has no per-node gossip, the object backend no ``repro.scale``).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from workloads import Holdings, percentile

#: (name, unit, better) for every per-layer metric, grouped by layer.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    # sim.engine
    ("kernel.events", "count", "lower"),
    ("kernel.heap_max", "count", "lower"),
    ("kernel.self_s", "s", "lower"),
    # sim.network
    ("network.msgs", "count", "lower"),
    ("network.bytes", "B", "lower"),
    ("network.drops", "count", "lower"),
    ("network.self_s", "s", "lower"),
    # astrolabe + gossip
    ("gossip.rounds", "count", "lower"),
    ("gossip.delta_bytes", "B", "lower"),
    ("astrolabe.gossip_self_s", "s", "lower"),
    ("astrolabe.aggregate_calls", "count", "lower"),
    ("astrolabe.aggregate_self_s", "s", "lower"),
    ("gossip.merge_useful_ratio", "ratio", "higher"),
    # pubsub
    ("pubsub.zone_tests", "count", "lower"),
    ("pubsub.zone_hit_ratio", "ratio", "higher"),
    ("pubsub.fp_forward_ratio", "ratio", "lower"),
    ("pubsub.exports", "count", "lower"),
    ("pubsub.self_s", "s", "lower"),
    # multicast
    ("multicast.forwards", "count", "lower"),
    ("multicast.duplicates", "count", "lower"),
    ("multicast.useful_copy_ratio", "ratio", "higher"),
    ("multicast.self_s", "s", "lower"),
    ("repair.digests", "count", "lower"),
    ("repair.pulled", "count", "higher"),
    ("repair.late_adopter_coverage", "ratio", "higher"),
    ("multicast.repair_self_s", "s", "lower"),
    # multicast.queues
    ("queue.enqueued", "count", "lower"),
    ("queue.depth_max", "count", "lower"),
    ("queue.wait_p50_s", "sim_s", "lower"),
    ("queue.wait_p99_s", "sim_s", "lower"),
    ("queue.self_s", "s", "lower"),
    # news
    ("news.self_s", "s", "lower"),
    ("news.cache_items", "count", "higher"),
    ("news.flow_control_rejects", "count", "lower"),
    # obs + sim.trace
    ("trace.records", "count", "lower"),
    ("trace.self_s", "s", "lower"),
    # set-up (workloads, news.deployment, astrolabe.deployment)
    ("setup.interest_s", "s", "lower"),
    ("setup.build_s", "s", "lower"),
    # scale
    ("scale.build_s", "s", "lower"),
    ("scale.install_s", "s", "lower"),
    ("scale.rounds", "count", "lower"),
    ("scale.round_s", "s", "lower"),
    ("scale.publish_s", "s", "lower"),
    ("scale.deliver_s", "s", "lower"),
    # the trace itself
    ("other.self_s", "s", "lower"),
    ("tracing.observe_s", "s", "lower"),
    ("tracing.untraced_run_s", "s", "lower"),
    ("tracing.traced_run_s", "s", "lower"),
    ("tracing.overhead_s", "s", "lower"),
    ("tracing.unattributed_ratio", "ratio", "lower"),
)

UNITS: Dict[str, str] = {name: unit for name, unit, _ in PER_LAYER}

#: Trace kinds that mark a subscription summary re-export.
EXPORT_KINDS = ("subscribe", "unsubscribe", "resubscribe", "summary-repair")


def _ratio(numerator: float, denominator: float, empty: float = 0.0) -> float:
    return numerator / denominator if denominator else empty


def layer_metrics(shape, record, result, tracer, untraced_run_s: float
                  ) -> Dict[str, Tuple[float, str]]:
    """Every metric of :data:`PER_LAYER` for one traced run."""
    counters = record.counters
    counts = tracer.counts
    self_s = tracer.self_s
    system = record.system
    waits = sorted(record.queue_waits)
    interest_s = tracer.setup.get("interest", 0.0)
    install_s = tracer.setup.get("install", 0.0)
    build_s = tracer.setup_s - interest_s
    columnar = shape.backend == "columnar"
    delivers = counters.get("multicast.delivers", 0)
    duplicates = counters.get("multicast.duplicates", 0)
    values = {
        "kernel.events": tracer.events,
        "kernel.heap_max": tracer.heap_max,
        "kernel.self_s": self_s["kernel"],
        "network.msgs": record.network["msgs"],
        "network.bytes": record.network["bytes"],
        "network.drops": record.network["drops"],
        "network.self_s": self_s["network"],
        "gossip.rounds": counters.get("gossip.rounds", 0),
        "gossip.delta_bytes": counters.get("gossip.delta_bytes", 0),
        "astrolabe.gossip_self_s": self_s["gossip"],
        "astrolabe.aggregate_calls": counts.get("astrolabe.aggregate_calls", 0),
        "astrolabe.aggregate_self_s": self_s["aggregate"],
        "gossip.merge_useful_ratio": _ratio(
            counts.get("gossip.rows_changed", 0),
            counts.get("gossip.rows_received", 0),
        ),
        "pubsub.zone_tests": counts.get("pubsub.zone_tests", 0),
        "pubsub.zone_hit_ratio": _ratio(
            counts.get("pubsub.zone_hits", 0), counts.get("pubsub.zone_tests", 0)
        ),
        "pubsub.fp_forward_ratio": fp_forward_ratio(shape, record),
        "pubsub.exports": sum(record.trace_counts.get(k, 0) for k in EXPORT_KINDS),
        "pubsub.self_s": self_s["pubsub"],
        "multicast.forwards": counters.get("multicast.forwards", 0),
        "multicast.duplicates": duplicates,
        "multicast.useful_copy_ratio": _ratio(delivers, delivers + duplicates),
        "multicast.self_s": self_s["multicast"],
        "repair.digests": counters.get("repair.digests", 0),
        "repair.pulled": counters.get("repair.pulled", 0),
        "repair.late_adopter_coverage": _ratio(
            result.late_covered, result.late_adopters, empty=1.0
        ),
        "multicast.repair_self_s": self_s["repair"],
        "queue.enqueued": counters.get("queue.enqueued", 0),
        "queue.depth_max": record.queue_depth_max,
        "queue.wait_p50_s": percentile(waits, 0.50),
        "queue.wait_p99_s": percentile(waits, 0.99),
        "queue.self_s": self_s["queues"],
        "news.self_s": self_s["news"],
        "news.cache_items": record.cache_items_max,
        "news.flow_control_rejects": counters.get("news.flow_control_rejects", 0),
        "trace.records": sum(record.trace_counts.values()),
        "trace.self_s": self_s["trace"],
        "setup.interest_s": interest_s,
        "setup.build_s": build_s,
        "scale.build_s": build_s - install_s if columnar else 0.0,
        "scale.install_s": install_s,
        "scale.rounds": system.gossip.rounds_run if columnar else 0,
        "scale.round_s": self_s["scale.round"],
        "scale.publish_s": self_s["scale.publish"],
        "scale.deliver_s": self_s["scale.deliver"],
        "other.self_s": self_s["other"],
        "tracing.observe_s": tracer.observe_s,
        "tracing.untraced_run_s": untraced_run_s,
        "tracing.traced_run_s": tracer.run_s,
        "tracing.overhead_s": tracer.run_s - untraced_run_s,
        "tracing.unattributed_ratio": _ratio(
            abs(tracer.charged_s - tracer.run_s), tracer.run_s
        ),
    }
    return {name: (values[name], UNITS[name]) for name, _, _ in PER_LAYER}


def fp_forward_ratio(shape, record) -> float:
    """Forwards into subtrees holding no true subscriber, ÷ forwards.

    Object backend: every traced ``forward`` (into a zone or straight
    to a leaf), judged against the subscriptions held at the forward's
    simulated time.  Columnar backend: the walk's zone forwards (its
    leaf sends are exact subject matches).
    """
    initial = record.initial
    if shape.backend == "columnar":
        columns = record.system.columns
        wasted = 0
        for subject, depth, zone in record.zone_forwards:
            if not any(
                subject in initial[index]
                for index in columns.zone_members(depth, zone)
            ):
                wasted += 1
        return _ratio(wasted, len(record.zone_forwards))
    holdings = Holdings(initial, record.inputs.swaps)
    members = _zone_members(record.node_names)
    wasted = 0
    for when, zone, item in record.forwards:
        subject = record.publishes[item][1]
        if not any(
            holdings.holds(node, subject, when) for node in members.get(zone, ())
        ):
            wasted += 1
    return _ratio(wasted, len(record.forwards))


def _zone_members(node_names: Sequence[str]) -> Dict[str, List[int]]:
    """Zone path (every proper prefix of a node path, and the node
    path itself) -> node indices under it."""
    members: Dict[str, List[int]] = {}
    for index, name in enumerate(node_names):
        labels = name.strip("/").split("/")
        for depth in range(1, len(labels) + 1):
            members.setdefault("/" + "/".join(labels[:depth]), []).append(index)
    return members
