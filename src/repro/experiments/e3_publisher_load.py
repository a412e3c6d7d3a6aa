"""E3 — load at the publisher (abstract, §2).

Claim: "The system significantly reduces the compute and network load
at the publishers"; §2: direct one-to-many push "clearly has
scalability limitations".

Setup: the same ten-item workload delivered to N interested
subscribers three ways —

* **direct push** (§2 straw-man): the publisher unicasts to every
  subscriber;
* **pull** (§1): subscribers poll the origin on a fixed interval;
* **CDN** (§1's hybrid): the origin pushes to fixed edge servers,
  consumers pull from their nearest edge;
* **NewsWire**: the publisher hands each item to a handful of zone
  representatives.

Measured: messages and bytes *sent by the publisher/origin* per
published item, plus the p99 delivery latency.  The paper predicts
NewsWire's publisher cost to be ~constant in N while push and pull
grow linearly; the CDN also flattens publisher cost (that is what
CDNs are for) but keeps consumers poll-bound and "requires ...
dedicated server infrastructure" — the §2 criticism NewsWire answers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from repro.core.config import NewsWireConfig
from repro.core.identifiers import ZonePath
from repro.runtime.sim import SimRuntime
from repro.sim.engine import Simulation
from repro.sim.network import HierarchicalLatency, Network
from repro.sim.trace import TraceLog
from repro.baselines.direct_push import PushOrigin, PushSubscriber
from repro.baselines.origin import OriginServer
from repro.baselines.pull import PullClient
from repro.experiments.common import (
    drive_trace,
    item_from_publication,
    validate_positive,
    validate_seed,
    validate_sizes,
)
from repro.experiments.registry import register
from repro.obs.stats import Summary, format_table
from repro.news.deployment import build_newswire
from repro.workloads.populations import InterestModel
from repro.workloads.scenarios import TECH_CATEGORIES, subjects_for
from repro.workloads.traces import Publication, poisson_trace


@dataclass(frozen=True)
class E3Row:
    system: str
    num_subscribers: int
    items: int
    publisher_msgs_per_item: float
    publisher_bytes_per_item: float
    latency_p99: float


@dataclass
class E3Result:
    rows: list[E3Row]

    def report(self) -> str:
        return format_table(
            ["system", "subscribers", "items", "pub msgs/item",
             "pub bytes/item", "p99 latency (s)"],
            [
                (
                    row.system,
                    row.num_subscribers,
                    row.items,
                    row.publisher_msgs_per_item,
                    row.publisher_bytes_per_item,
                    row.latency_p99,
                )
                for row in self.rows
            ],
            title=(
                "E3: publisher load — push/pull grow linearly in N; CDN is "
                "flat but poll-bound; NewsWire is flat AND fresh (abstract)"
            ),
        )


def _make_trace(items: int, subjects: Sequence[str], seed: int) -> list[Publication]:
    rng = random.Random(seed)
    base = poisson_trace(
        rate_per_hour=360.0, duration=items * 12.0, subjects=list(subjects), rng=rng
    )
    return base[:items]


def _run_direct_push(
    num_subscribers: int, trace: Sequence[Publication], interests: InterestModel, seed: int
) -> E3Row:
    sim = Simulation(seed=seed)
    network = Network(sim, latency=HierarchicalLatency())
    runtime = SimRuntime(sim, network)
    trace_log = TraceLog(sim, kinds={"push-deliver"})
    origin = PushOrigin(
        ZonePath.parse("/origin/push"), runtime, send_rate=1000.0, trace=trace_log
    )
    for index in range(num_subscribers):
        subscriber = PushSubscriber(
            ZonePath.parse(f"/subs/s{index}"), runtime, trace=trace_log
        )
        origin.subscribe(
            subscriber.node_id,
            {s.subject for s in interests.subscriptions_for(index)},
        )
    for serial, publication in enumerate(trace, start=1):
        sim.call_at(
            publication.time,
            origin.publish,
            item_from_publication(publication, "push", serial),
        )
    sim.run()
    latencies = [e["latency"] for e in trace_log.events("push-deliver")]
    stats = network.node_stats(origin.node_id)
    return E3Row(
        system="direct-push",
        num_subscribers=num_subscribers,
        items=len(trace),
        publisher_msgs_per_item=stats.sent_messages / len(trace),
        publisher_bytes_per_item=stats.sent_bytes / len(trace),
        latency_p99=Summary.of(latencies).p99 if latencies else 0.0,
    )


def _run_pull(
    num_subscribers: int,
    trace: Sequence[Publication],
    interests: InterestModel,
    seed: int,
    poll_interval: float = 60.0,
) -> E3Row:
    sim = Simulation(seed=seed)
    network = Network(sim, latency=HierarchicalLatency())
    runtime = SimRuntime(sim, network)
    trace_log = TraceLog(sim, kinds={"pull-deliver"})
    origin = OriginServer(
        ZonePath.parse("/origin/www"), runtime, capacity=100_000.0,
        trace=trace_log,
    )
    for index in range(num_subscribers):
        client = PullClient(
            ZonePath.parse(f"/subs/s{index}"),
            runtime,
            origin.node_id,
            poll_interval=poll_interval,
            mode="full",
            trace=trace_log,
        )
        client.start()
    for serial, publication in enumerate(trace, start=1):
        sim.call_at(
            publication.time,
            origin.publish,
            item_from_publication(publication, "www", serial),
        )
    horizon = max(p.time for p in trace) + 2 * poll_interval
    sim.run_until(horizon)
    latencies = [e["latency"] for e in trace_log.events("pull-deliver")]
    stats = network.node_stats(origin.node_id)
    return E3Row(
        system=f"pull@{poll_interval:.0f}s",
        num_subscribers=num_subscribers,
        items=len(trace),
        publisher_msgs_per_item=stats.sent_messages / len(trace),
        publisher_bytes_per_item=stats.sent_bytes / len(trace),
        latency_p99=Summary.of(latencies).p99 if latencies else 0.0,
    )


def _run_cdn(
    num_subscribers: int,
    trace: Sequence[Publication],
    interests: InterestModel,
    seed: int,
    num_edges: int = 8,
    poll_interval: float = 60.0,
) -> E3Row:
    """§1's hybrid: origin pushes to edges, consumers pull from edges.

    Publisher load is O(edges); consumer freshness stays poll-bound.
    """
    from repro.baselines.cdn import build_cdn, nearest_edge

    sim = Simulation(seed=seed)
    network = Network(sim, latency=HierarchicalLatency())
    runtime = SimRuntime(sim, network)
    trace_log = TraceLog(sim, kinds={"pull-deliver"})
    origin, edges = build_cdn(
        runtime, num_edges, capacity_per_edge=100_000.0, trace=trace_log
    )
    for index in range(num_subscribers):
        home = ZonePath.parse(f"/region{index % num_edges}/homes/c{index}")
        PullClient(
            home,
            runtime,
            nearest_edge(home, edges).node_id,
            poll_interval=poll_interval,
            mode="delta",
            trace=trace_log,
        ).start()
    for serial, publication in enumerate(trace, start=1):
        sim.call_at(
            publication.time,
            origin.publish,
            item_from_publication(publication, "cdn", serial),
        )
    horizon = max(p.time for p in trace) + 2 * poll_interval
    sim.run_until(horizon)
    latencies = [e["latency"] for e in trace_log.events("pull-deliver")]
    stats = network.node_stats(origin.node_id)
    return E3Row(
        system=f"cdn@{num_edges}edges",
        num_subscribers=num_subscribers,
        items=len(trace),
        publisher_msgs_per_item=stats.sent_messages / len(trace),
        publisher_bytes_per_item=stats.sent_bytes / len(trace),
        latency_p99=Summary.of(latencies).p99 if latencies else 0.0,
    )


def _run_newswire(
    num_subscribers: int, trace: Sequence[Publication], interests: InterestModel, seed: int
) -> E3Row:
    config = NewsWireConfig()
    system = build_newswire(
        num_subscribers,
        config,
        publisher_names=("newswire",),
        publisher_rate=100.0,
        subscriptions_for=interests.subscriptions_for,
        seed=seed,
    )
    system.run_for(2 * config.gossip.interval)
    publisher = system.publisher("newswire")
    system.network.reset_node_stats()
    base = system.sim.now
    shifted = [
        Publication(
            time=base + p.time,
            subject=p.subject,
            headline=p.headline,
            body_words=p.body_words,
            categories=p.categories,
            urgency=p.urgency,
        )
        for p in trace
    ]
    drive_trace(system, "newswire", shifted)
    system.sim.run_until(base + max(p.time for p in trace) + 30.0)
    latencies = [e["latency"] for e in system.trace.events("deliver")]
    stats = system.network.node_stats(publisher.node_id)
    # The publisher also gossips; count only its item traffic would be
    # unfair in NewsWire's favour, so report everything it sent.
    return E3Row(
        system="newswire",
        num_subscribers=num_subscribers,
        items=len(trace),
        publisher_msgs_per_item=stats.sent_messages / len(trace),
        publisher_bytes_per_item=stats.sent_bytes / len(trace),
        latency_p99=Summary.of(latencies).p99 if latencies else 0.0,
    )


@register(
    "e3",
    claim=(
        '"The system significantly reduces the compute and network load '
        'at the publishers" vs direct one-to-many push'
    ),
    quick={"sizes": (100, 400), "items": 5},
)
def run_e3(
    *,
    sizes: Sequence[int] = (100, 500, 2000),
    items: int = 10,
    seed: int = 0,
) -> E3Result:
    validate_sizes("sizes", sizes)
    validate_positive("items", items)
    validate_seed(seed)
    subjects = subjects_for(("newswire",), TECH_CATEGORIES)
    rows: list[E3Row] = []
    for num_subscribers in sizes:
        interests = InterestModel(
            subjects=subjects, subscriptions_per_node=3, seed=seed
        )
        trace = _make_trace(items, subjects, seed)
        rows.append(_run_direct_push(num_subscribers, trace, interests, seed))
        rows.append(_run_pull(num_subscribers, trace, interests, seed))
        rows.append(_run_cdn(num_subscribers, trace, interests, seed))
        rows.append(_run_newswire(num_subscribers, trace, interests, seed))
    return E3Result(rows)


if __name__ == "__main__":
    print(run_e3().report())
