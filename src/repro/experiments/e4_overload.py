"""E4 — robustness under publisher overload / DoS (abstract, §1).

Claim: "guarantees delivery even in the face of publisher overload or
denial of service attacks"; §1: "As we have seen during the terrorist
attacks in September 2001, Internet news sites become completely
useless under overload, failing even to service a small percentage of
the visitors."

Setup: identical breaking-news workload under an escalating request
flood aimed at the content source.

* **Centralized pull**: the flood and the legitimate polls share the
  origin's bounded service capacity; we measure the fraction of
  legitimate requests served and item freshness during the attack.
* **NewsWire**: consumers never contact the publisher, so the same
  flood only wastes the publisher's inbound bandwidth; dissemination
  rides the peer-to-peer tree.  We additionally *crash* the publisher
  right after the burst to show delivery completes without it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.config import NewsWireConfig
from repro.core.identifiers import ZonePath
from repro.runtime.sim import SimRuntime
from repro.sim.engine import Simulation
from repro.sim.failures import FailureInjector
from repro.sim.network import HierarchicalLatency, Network
from repro.sim.trace import TraceLog
from repro.baselines.origin import OriginServer
from repro.baselines.pull import PullClient
from repro.experiments.common import (
    drive_trace,
    item_from_publication,
    validate_positive,
    validate_seed,
)
from repro.experiments.registry import register
from repro.obs.collectors import collect_delivery_stats, delivery_ratio, event_timeline
from repro.obs.stats import Summary, format_table, sparkline
from repro.news.deployment import build_newswire
from repro.pubsub.subscription import Subscription
from repro.workloads.traces import Publication


@dataclass(frozen=True)
class E4Row:
    system: str
    flood_rate: float
    served_ratio: float       # legit requests served (pull); 1.0 for NewsWire
    delivery_ratio: float     # fraction of expected item deliveries achieved
    latency_p90: float


@dataclass
class E4Result:
    rows: list[E4Row]

    def report(self) -> str:
        return format_table(
            ["system", "flood req/s", "legit served", "delivery ratio",
             "p90 latency (s)"],
            [
                (r.system, r.flood_rate, r.served_ratio, r.delivery_ratio,
                 r.latency_p90)
                for r in self.rows
            ],
            title=(
                "E4: behaviour under DoS flood at the content source "
                "(paper: pull origins collapse; NewsWire keeps delivering)"
            ),
        )


def _burst_trace(start: float, items: int, subject: str) -> list[Publication]:
    return [
        Publication(
            time=start + index * 2.0,
            subject=subject,
            headline=f"breaking {index}",
            body_words=150,
            urgency=1,
        )
        for index in range(items)
    ]


def _run_pull_under_flood(
    num_clients: int,
    flood_rate: float,
    items: int,
    seed: int,
    poll_interval: float = 30.0,
    capacity: float = 100.0,
) -> E4Row:
    sim = Simulation(seed=seed)
    network = Network(sim, latency=HierarchicalLatency())
    runtime = SimRuntime(sim, network)
    trace_log = TraceLog(sim, kinds={"pull-deliver"})
    origin = OriginServer(
        ZonePath.parse("/origin/www"), runtime,
        capacity=capacity, max_queue=50, trace=trace_log,
    )
    failures = FailureInjector(sim, network)
    for index in range(num_clients):
        PullClient(
            ZonePath.parse(f"/subs/s{index}"), runtime, origin.node_id,
            poll_interval=poll_interval, mode="delta", trace=trace_log,
        ).start()
    burst = _burst_trace(start=60.0, items=items, subject="reuters/world")
    for serial, publication in enumerate(burst, start=1):
        sim.call_at(
            publication.time,
            origin.publish,
            item_from_publication(publication, "www", serial),
        )
    if flood_rate > 0:
        failures.flood(
            origin.node_id, rate=flood_rate, start=30.0, duration=300.0
        )
    sim.run_until(60.0 + items * 2.0 + 3 * poll_interval)

    latencies = [e["latency"] for e in trace_log.events("pull-deliver")]
    delivered_items = {
        (e["node"], e["item"]) for e in trace_log.events("pull-deliver")
    }
    expected_total = num_clients * items
    served_ratio = (
        origin.stats.served / origin.stats.requests if origin.stats.requests else 0.0
    )
    row = E4Row(
        system="pull",
        flood_rate=flood_rate,
        served_ratio=served_ratio,
        delivery_ratio=len(delivered_items) / expected_total,
        latency_p90=Summary.of(latencies).p90 if latencies else float("inf"),
    )
    return row, trace_log


def _run_newswire_under_flood(
    num_nodes: int,
    flood_rate: float,
    items: int,
    seed: int,
    crash_publisher_after_burst: bool = True,
) -> E4Row:
    config = NewsWireConfig()
    subject = "reuters/world"
    # Everyone subscribes to the breaking subject: a flash crowd.
    system = build_newswire(
        num_nodes,
        config,
        publisher_names=("reuters",),
        publisher_rate=50.0,
        subscriptions_for=lambda index: (Subscription(subject),),
        seed=seed,
    )
    system.run_for(2 * config.gossip.interval)
    publisher = system.publisher("reuters")
    start = system.sim.now + 10.0
    burst = _burst_trace(start=start, items=items, subject=subject)
    drive_trace(system, "reuters", burst)
    if flood_rate > 0:
        system.deployment.failures.flood(
            publisher.node_id, rate=flood_rate, start=start - 5.0, duration=300.0
        )
    if crash_publisher_after_burst:
        system.deployment.failures.crash_at(
            start + items * 2.0 + 0.5, publisher
        )
    system.sim.run_until(start + items * 2.0 + 60.0)

    expected = {
        f"reuters:{serial}.r0": num_nodes for serial in range(1, items + 1)
    }
    stats = collect_delivery_stats(system.trace)
    row = E4Row(
        system="newswire" + ("+pubcrash" if crash_publisher_after_burst else ""),
        flood_rate=flood_rate,
        served_ratio=1.0,  # consumers never request anything from the publisher
        delivery_ratio=delivery_ratio(system.trace, expected, stats=stats),
        latency_p90=stats.summary.p90 if stats.summary.count else float("inf"),
    )
    return row, system.trace


@register(
    "e4",
    claim=(
        '"guarantees delivery even in the face of publisher overload or '
        'denial of service attacks"'
    ),
    quick={"num_clients": 100, "items": 5, "flood_rates": (0.0, 2000.0)},
)
def run_e4(
    *,
    num_clients: int = 300,
    items: int = 10,
    flood_rates: Sequence[float] = (0.0, 100.0, 1000.0, 5000.0),
    seed: int = 0,
) -> E4Result:
    validate_positive("num_clients", num_clients)
    validate_positive("items", items)
    validate_seed(seed)
    rows: list[E4Row] = []
    for flood_rate in flood_rates:
        rows.append(_run_pull_under_flood(num_clients, flood_rate, items, seed)[0])
    for flood_rate in flood_rates:
        rows.append(
            _run_newswire_under_flood(num_clients, flood_rate, items, seed)[0]
        )
    return E4Result(rows)


@dataclass
class E4Timeline:
    """The E4 figure: delivery rate over time through the attack."""

    flood_rate: float
    window: float
    pull_art: str
    newswire_art: str

    def report(self) -> str:
        return (
            f"E4 figure: deliveries over time ({self.window:.0f}s windows), "
            f"flood {self.flood_rate:.0f} req/s from t=30s\n"
            f"  pull     |{self.pull_art}|\n"
            f"  newswire |{self.newswire_art}|"
        )


def run_e4_timeline(
    *,
    num_clients: int = 300,
    items: int = 10,
    flood_rate: float = 2000.0,
    window: float = 10.0,
    seed: int = 0,
) -> E4Timeline:
    """The per-window delivery-rate series behind the E4 table."""
    _, pull_trace = _run_pull_under_flood(num_clients, flood_rate, items, seed)
    _, newswire_trace = _run_newswire_under_flood(
        num_clients, flood_rate, items, seed
    )
    # Common horizon so the two sparklines are time-aligned.
    horizon = max(
        [event.time for event in pull_trace.events("pull-deliver")]
        + [event.time for event in newswire_trace.events("deliver")]
        + [window]
    )
    pull_buckets = event_timeline(
        pull_trace, "pull-deliver", window=window, end=horizon
    )
    newswire_buckets = event_timeline(
        newswire_trace, "deliver", window=window, end=horizon
    )
    return E4Timeline(
        flood_rate=flood_rate,
        window=window,
        pull_art=sparkline(pull_buckets),
        newswire_art=sparkline(newswire_buckets),
    )


def run_e4_physical(
    *,
    num_nodes: int = 200,
    items: int = 8,
    node_bandwidth: float = 125_000.0,   # ~1 Mbit/s per participant
    flood_rate: float = 500.0,
    flood_message_size: int = 8192,
    seed: int = 0,
) -> E4Row:
    """E4 with *physical* link modelling: every node has a finite
    downlink, and the flood genuinely saturates the publisher's
    (flood arrival rate × size ≈ 32× the link).  Delivery still
    completes because dissemination never transits the victim's
    downlink — consumers receive from their zone representatives.
    """
    config = NewsWireConfig()
    subject = "reuters/world"
    system = build_newswire(
        num_nodes,
        config,
        publisher_names=("reuters",),
        publisher_rate=50.0,
        subscriptions_for=lambda index: (Subscription(subject),),
        seed=seed,
        bandwidth=node_bandwidth,
        ingress_bandwidth=node_bandwidth,
    )
    system.run_for(2 * config.gossip.interval)
    publisher = system.publisher("reuters")
    start = system.sim.now + 10.0
    burst = _burst_trace(start=start, items=items, subject=subject)
    drive_trace(system, "reuters", burst)
    system.deployment.failures.flood(
        publisher.node_id, rate=flood_rate, start=start - 5.0,
        duration=600.0, message_size=flood_message_size,
    )
    system.sim.run_until(start + items * 2.0 + 90.0)
    expected = {
        f"reuters:{serial}.r0": num_nodes for serial in range(1, items + 1)
    }
    stats = collect_delivery_stats(system.trace)
    return E4Row(
        system="newswire(1Mbit links)",
        flood_rate=flood_rate,
        served_ratio=1.0,
        delivery_ratio=delivery_ratio(system.trace, expected, stats=stats),
        latency_p90=stats.summary.p90 if stats.summary.count else float("inf"),
    )


if __name__ == "__main__":
    print(run_e4().report())
    print()
    print(run_e4_timeline().report())
    print()
    row = run_e4_physical()
    print(
        f"E4 physical-link check: {row.system} under "
        f"{row.flood_rate:.0f} x 8KB/s flood -> delivery "
        f"{row.delivery_ratio:.2%}, p90 {row.latency_p90:.2f}s"
    )
