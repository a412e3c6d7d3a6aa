"""E9 — forwarding-queue fill strategies (paper §9).

Claim context: "The best strategy to fill queues is still under
research.  We are experimenting with weighted round-robin strategies,
as well as some more aggressive techniques."

Setup: a constrained publisher uplink (low ``max_send_rate``) facing a
burst of mixed-urgency items — the regime where the queue discipline
matters.  Swept: the four strategies.  Measured: overall delivery
latency, latency of *urgent* items (urgency 1–2), mean queueing wait,
and peak backlog.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.config import MulticastConfig, NewsWireConfig, QUEUE_STRATEGIES
from repro.experiments.common import (
    drive_trace,
    validate_positive,
    validate_seed,
)
from repro.experiments.registry import register
from repro.obs.stats import Summary, format_table
from repro.news.deployment import build_newswire
from repro.workloads.populations import InterestModel
from repro.workloads.scenarios import TECH_CATEGORIES, subjects_for
from repro.workloads.traces import Publication


@dataclass(frozen=True)
class E9Row:
    strategy: str
    deliveries: int
    all_p50: float
    all_p99: float
    urgent_p50: float
    urgent_p99: float
    publisher_peak_backlog: int
    publisher_mean_wait: float


@dataclass
class E9Result:
    rows: list[E9Row]

    def report(self) -> str:
        return format_table(
            ["strategy", "deliveries", "p50 (s)", "p99 (s)", "urgent p50",
             "urgent p99", "peak backlog", "mean queue wait (s)"],
            [
                (r.strategy, r.deliveries, r.all_p50, r.all_p99, r.urgent_p50,
                 r.urgent_p99, r.publisher_peak_backlog, r.publisher_mean_wait)
                for r in self.rows
            ],
            title=(
                "E9: forwarding-queue strategies under a constrained uplink "
                "(the open question of §9)"
            ),
        )


@register(
    "e9",
    claim=(
        '"The best strategy to fill queues is still under research" — '
        'forwarding-queue strategy comparison'
    ),
    quick={"num_nodes": 80, "items": 20},
)
def run_e9(
    *,
    num_nodes: int = 200,
    items: int = 40,
    strategies: Sequence[str] = QUEUE_STRATEGIES,
    send_rate: float = 12.0,
    seed: int = 0,
) -> E9Result:
    validate_positive("num_nodes", num_nodes)
    validate_positive("items", items)
    validate_positive("send_rate", send_rate)
    validate_seed(seed)
    subjects = subjects_for(("newswire",), TECH_CATEGORIES)
    rows: list[E9Row] = []
    for strategy in strategies:
        config = NewsWireConfig(
            branching_factor=8,
            multicast=MulticastConfig(
                queue_strategy=strategy,
                max_send_rate=send_rate,
                send_to_representatives=1,
            ),
        )
        interests = InterestModel(
            subjects=subjects, subscriptions_per_node=3, seed=seed
        )
        system = build_newswire(
            num_nodes,
            config,
            publisher_names=("newswire",),
            publisher_rate=1000.0,
            subscriptions_for=interests.subscriptions_for,
            seed=seed,
        )
        system.run_for(2 * config.gossip.interval)
        publisher = system.publisher("newswire")
        start = system.sim.now
        # A burst: everything lands at nearly the same instant; one in
        # five items is urgent (breaking news).
        trace = [
            Publication(
                time=start + 0.01 * index,
                subject=subjects[index % len(subjects)],
                headline=f"story {index}",
                body_words=120,
                urgency=1 if index % 5 == 0 else 6,
            )
            for index in range(items)
        ]
        drive_trace(system, "newswire", trace)
        system.sim.run_until(start + 120.0)

        all_latencies: list[float] = []
        urgent_latencies: list[float] = []
        urgent_serials = {index + 1 for index in range(items) if index % 5 == 0}
        for event in system.trace.events("deliver"):
            latency = event.get("latency")
            if latency is None:
                continue
            all_latencies.append(latency)
            item = event.get("item", "")
            serial = _serial_of(item)
            if serial in urgent_serials:
                urgent_latencies.append(latency)
        rows.append(
            E9Row(
                strategy=strategy,
                deliveries=len(all_latencies),
                all_p50=Summary.of(all_latencies).p50 if all_latencies else 0.0,
                all_p99=Summary.of(all_latencies).p99 if all_latencies else 0.0,
                urgent_p50=(
                    Summary.of(urgent_latencies).p50 if urgent_latencies else 0.0
                ),
                urgent_p99=(
                    Summary.of(urgent_latencies).p99 if urgent_latencies else 0.0
                ),
                publisher_peak_backlog=publisher.queues.stats.max_backlog,
                publisher_mean_wait=publisher.queues.stats.mean_wait,
            )
        )
    return E9Result(rows)


def _serial_of(item: str) -> int:
    """Parse the serial out of an ``ItemId`` string like ``pub:7.r0``."""
    try:
        return int(item.split(":")[1].split(".")[0])
    except (IndexError, ValueError):
        return -1


if __name__ == "__main__":
    print(run_e9().report())
