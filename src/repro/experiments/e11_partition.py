"""E11 — partition healing and the bounded repair window (§3, §5).

Claim anchors: "Astrolabe's epidemic communication techniques
guarantee that the state represented is eventually consistent" (§3),
and the §5 observation that the dissemination protocol "should have
many of the properties of Bimodal Multicast" — whose defining property
is a *bounded* repair window: delivery is near-certain within the
window and abandoned beyond it.

Setup: a NewsWire population split along top-level zones; the
publisher's side keeps publishing during the partition; we heal and
measure how much of the backlog the cut side recovers, and how fast.
Sweeping the partition length against the repair-buffer capacity makes
the bimodal boundary visible: items that age out of every buffer
before the heal are honestly lost, items inside the window arrive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.config import GossipConfig, MulticastConfig, NewsWireConfig
from repro.news.deployment import build_newswire
from repro.obs.causal import CausalSink, format_causal_report
from repro.obs.stats import format_table
from repro.pubsub.subscription import Subscription
from repro.experiments.common import (
    validate_positive,
    validate_seed,
    validate_sizes,
)
from repro.experiments.registry import register

SUBJECT = "reuters/world"


@dataclass(frozen=True)
class E11Row:
    partition_duration: float
    repair_buffer: int
    items_during_partition: int
    cut_side_nodes: int
    recovered_ratio: float            # backlog recovered on the cut side
    recovery_time_s: Optional[float]  # heal -> 99% of recoverable backlog


@dataclass
class E11Result:
    rows: list[E11Row]
    #: "<duration>s/buf<capacity>" -> CausalSink.summary() with
    #: report=True (stored by the CLI under manifest ``extra.causal``).
    causal: Optional[dict] = None
    #: Rendered causal report per run, same order as ``rows``.
    causal_text: Optional[list[str]] = None

    def report(self) -> str:
        table = format_table(
            ["partition (s)", "repair buffer", "items", "cut nodes",
             "recovered", "recovery time (s)"],
            [
                (
                    r.partition_duration,
                    r.repair_buffer,
                    r.items_during_partition,
                    r.cut_side_nodes,
                    r.recovered_ratio,
                    "n/a" if r.recovery_time_s is None else r.recovery_time_s,
                )
                for r in self.rows
            ],
            title=(
                "E11: partition healing vs bounded repair window "
                "(bimodal: inside the window ~all, beyond it ~none)"
            ),
        )
        if not self.causal_text:
            return table
        sections = [table]
        for row, text in zip(self.rows, self.causal_text):
            sections.append(
                f"--- causal report (partition {row.partition_duration}s, "
                f"buffer {row.repair_buffer}) ---"
            )
            sections.append(text)
        return "\n\n".join(sections)


@register(
    "e11",
    claim=(
        '"epidemic communication techniques guarantee that the state '
        'represented is eventually consistent" — partition healing'
    ),
    quick={"num_nodes": 80, "durations": (20.0,),
           "buffer_capacities": (16, 256)},
)
def run_e11(
    *,
    num_nodes: int = 120,
    durations: Sequence[float] = (20.0, 120.0),
    buffer_capacities: Sequence[int] = (16, 256),
    publish_interval: float = 4.0,
    seed: int = 0,
    report: bool = False,
) -> E11Result:
    validate_positive("num_nodes", num_nodes)
    validate_sizes("durations", durations)
    validate_sizes("buffer_capacities", buffer_capacities)
    validate_positive("publish_interval", publish_interval)
    validate_seed(seed)
    rows: list[E11Row] = []
    causal_summaries: dict = {}
    causal_texts: list[str] = []
    for duration in durations:
        for capacity in buffer_capacities:
            row, causal = _run_one(
                num_nodes, duration, capacity, publish_interval, seed, report
            )
            rows.append(row)
            if causal is not None:
                causal_summaries[f"{duration}s/buf{capacity}"] = causal.summary()
                causal_texts.append(format_causal_report(causal))
    if not report:
        return E11Result(rows)
    return E11Result(rows, causal=causal_summaries, causal_text=causal_texts)


def _run_one(
    num_nodes: int,
    duration: float,
    capacity: int,
    publish_interval: float,
    seed: int,
    report: bool = False,
) -> tuple[E11Row, Optional[CausalSink]]:
    config = NewsWireConfig(
        branching_factor=8,
        gossip=GossipConfig(interval=1.0, row_ttl_rounds=max(30, int(duration) + 20)),
        multicast=MulticastConfig(
            representatives=3,
            send_to_representatives=2,
            repair_interval=2.0,
            repair_buffer_capacity=capacity,
            cross_zone_repair_probability=0.25,
        ),
    )
    # Sinks are transparent: attaching the causal sink cannot change
    # the row values, only add the attribution view on top.
    causal = CausalSink() if report else None
    system = build_newswire(
        num_nodes,
        config,
        publisher_names=("reuters",),
        publisher_rate=50.0,
        subscriptions_for=lambda i: (Subscription(SUBJECT),),
        seed=seed,
        sinks=[causal] if causal is not None else None,
    )
    system.run_for(3.0)
    publisher = system.publisher("reuters")
    own_top = publisher.node_id.labels[0]
    side_a = [n.node_id for n in system.nodes if n.node_id.labels[0] == own_top]
    side_b = [n.node_id for n in system.nodes if n.node_id.labels[0] != own_top]
    cut_nodes = [n for n in system.nodes if n.node_id in set(side_b)]

    split_at = system.sim.now
    system.network.partition([side_a, side_b])
    items = []
    count = max(1, int(duration / publish_interval))
    for index in range(count):
        system.sim.call_at(
            split_at + index * publish_interval,
            lambda i=index: items.append(
                publisher.publish_news(SUBJECT, f"during-split-{i}")
            ),
        )
    heal_at = split_at + duration
    system.sim.call_at(heal_at, system.network.heal)
    system.sim.run_until(heal_at)

    # Track recovery on the cut side after the heal.
    horizon = heal_at + 240.0
    check_interval = 2.0
    recovery_time: Optional[float] = None
    final_ratio = 0.0
    now = heal_at
    while now < horizon:
        now = min(now + check_interval, horizon)
        system.sim.run_until(now)
        got = sum(
            1
            for node in cut_nodes
            for item in items
            if item.item_id in node.cache
        )
        total = len(cut_nodes) * len(items)
        final_ratio = got / total if total else 1.0
        if recovery_time is None and final_ratio >= 0.99:
            recovery_time = now - heal_at
            break
    if causal is not None:
        # Every node subscribes to SUBJECT, so every node is expected
        # to deliver every item published during the split — misses
        # must be fully attributed (partitioned, or aged out and hence
        # never repaired).
        everyone = {str(node.node_id) for node in system.nodes}
        for item in items:
            causal.expect(str(item.item_id), everyone)
    return (
        E11Row(
            partition_duration=duration,
            repair_buffer=capacity,
            items_during_partition=len(items),
            cut_side_nodes=len(cut_nodes),
            recovered_ratio=final_ratio,
            recovery_time_s=recovery_time,
        ),
        causal,
    )


if __name__ == "__main__":
    print(run_e11().report())
