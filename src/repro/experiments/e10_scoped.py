"""E10 — scoped publishing and predicate targeting (paper §8).

Claims: "A publisher is able to restrict the scope of the dissemination
of the data by selecting another zone than the root zone to publish
data into.  This for example allows the publisher to disseminate
localized news items in Asia."  And the future-work feature: "a
publisher could send some item only to premium subscribers" via
predicates over subscriber attributes.

Setup: a two-region population (/asia, /europe subtrees via top-level
zones).  Measured:

* **scope containment**: publishing into one top zone must deliver to
  0 subscribers outside it, with proportionally less traffic;
* **predicate targeting**: subscribers carrying a ``premium``
  predicate-bearing subscription receive premium-keyword items,
  ordinary subscribers on the same subject do not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.config import NewsWireConfig
from repro.core.identifiers import ZonePath
from repro.obs.stats import format_table
from repro.news.deployment import build_newswire
from repro.pubsub.subscription import Subscription
from repro.experiments.common import validate_positive, validate_seed
from repro.experiments.registry import register
from repro.obs.metrics import MetricsRegistry
from repro.obs.sinks import TraceSink


@dataclass(frozen=True)
class E10Row:
    case: str
    expected_receivers: int
    delivered_inside: int
    delivered_outside: int
    forwards: int


@dataclass
class E10Result:
    rows: list[E10Row]

    def report(self) -> str:
        return format_table(
            ["case", "expected", "inside", "outside (must be 0)", "forwards"],
            [
                (r.case, r.expected_receivers, r.delivered_inside,
                 r.delivered_outside, r.forwards)
                for r in self.rows
            ],
            title="E10: scoped publishing and premium predicate targeting (§8)",
        )


@register(
    "e10",
    claim=(
        '"A publisher is able to restrict the scope of the dissemination '
        'of the data" — scoped publishing and predicates'
    ),
    quick={"num_nodes": 120},
)
def run_e10(
    *,
    num_nodes: int = 240,
    seed: int = 0,
    sinks: Optional[Sequence[TraceSink]] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> E10Result:
    validate_positive("num_nodes", num_nodes)
    validate_seed(seed)
    subject = "reuters/world"
    config = NewsWireConfig(branching_factor=16)

    def subscriptions(index: int):
        # Every third subscriber is premium: their subscription's
        # predicate selects items carrying the 'premium' keyword too;
        # ordinary subscribers refuse premium-flagged items.
        if index % 3 == 0:
            return (Subscription(subject),)  # receives everything
        return (
            Subscription(subject, "NOT CONTAINS(keywords, 'premium')"),
        )

    system = build_newswire(
        num_nodes,
        config,
        publisher_names=("reuters",),
        publisher_rate=50.0,
        subscriptions_for=subscriptions,
        seed=seed,
        sinks=sinks,
        metrics=metrics,
    )
    system.run_for(2 * config.gossip.interval)
    publisher = system.publisher("reuters")
    rows: list[E10Row] = []

    # --- Case 1: global publish (baseline) -----------------------------
    marker = system.trace.count("forward")
    item1 = publisher.publish_news(subject, "global story")
    system.run_for(30.0)
    delivered = _deliveries_of(system, str(item1.item_id))
    rows.append(
        E10Row(
            case="global",
            expected_receivers=num_nodes,
            delivered_inside=len(delivered),
            delivered_outside=0,
            forwards=system.trace.count("forward") - marker,
        )
    )

    # --- Case 2: scoped publish into the publisher's own top zone -------
    top_zone = ZonePath(publisher.node_id.labels[:1])
    inside = {
        str(node.node_id)
        for node in system.nodes
        if top_zone.contains(node.node_id)
    }
    marker = system.trace.count("forward")
    item2 = publisher.publish_news(subject, "regional story", zone=top_zone)
    system.run_for(30.0)
    delivered = _deliveries_of(system, str(item2.item_id))
    rows.append(
        E10Row(
            case=f"scoped:{top_zone}",
            expected_receivers=len(inside),
            delivered_inside=sum(1 for node in delivered if node in inside),
            delivered_outside=sum(1 for node in delivered if node not in inside),
            forwards=system.trace.count("forward") - marker,
        )
    )

    # --- Case 3: premium-only item (predicate targeting) ----------------
    premium_subscribers = {
        str(node.node_id)
        for index, node in enumerate(system.nodes)
        if index % 3 == 0
    }
    marker = system.trace.count("forward")
    item3 = publisher.publish_news(
        subject, "premium story", keywords=("premium", "exclusive")
    )
    system.run_for(30.0)
    delivered = _deliveries_of(system, str(item3.item_id))
    rows.append(
        E10Row(
            case="premium-only",
            expected_receivers=len(premium_subscribers),
            delivered_inside=sum(
                1 for node in delivered if node in premium_subscribers
            ),
            delivered_outside=sum(
                1 for node in delivered if node not in premium_subscribers
            ),
            forwards=system.trace.count("forward") - marker,
        )
    )
    return E10Result(rows)


def _deliveries_of(system, item_id: str) -> list[str]:
    return [
        event["node"]
        for event in system.trace.events("deliver")
        if event.get("item") == item_id
    ]


if __name__ == "__main__":
    print(run_e10().report())
