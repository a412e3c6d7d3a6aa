"""E6 — subscription propagation time (paper §6).

Claim: "Eventually (within tens of seconds) the root zone will have
all the information on whether there are leaf nodes in the system that
have subscribed to particular publications."

Setup: a converged population; one leaf adds a subscription to a
subject nobody else has.  We measure

* **root visibility**: when the subject's filter bit is set in the
  root-table view of a node in a *different* top-level zone;
* **end-to-end readiness**: when an item published on that subject
  actually reaches the new subscriber.

Swept over population size and gossip interval — the paper's "tens of
seconds" presumes second-scale gossip rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.config import GossipConfig, NewsWireConfig
from repro.core.errors import ConfigurationError
from repro.obs.stats import format_table
from repro.news.deployment import build_newswire
from repro.pubsub.subscription import Subscription
from repro.workloads.scenarios import TECH_CATEGORIES, subjects_for
from repro.experiments.common import (
    validate_positive,
    validate_seed,
    validate_sizes,
)
from repro.experiments.registry import register


@dataclass(frozen=True)
class E6Row:
    num_nodes: int
    gossip_interval: float
    root_visibility_s: Optional[float]   # None = not within the horizon
    first_delivery_s: Optional[float]


@dataclass
class E6Result:
    rows: list[E6Row]

    def report(self) -> str:
        return format_table(
            ["nodes", "gossip interval (s)", "root visibility (s)",
             "publish->deliver ready (s)"],
            [
                (
                    r.num_nodes,
                    r.gossip_interval,
                    "timeout" if r.root_visibility_s is None else r.root_visibility_s,
                    "timeout" if r.first_delivery_s is None else r.first_delivery_s,
                )
                for r in self.rows
            ],
            title=(
                "E6: new-subscription propagation to the root "
                "(paper claims within tens of seconds)"
            ),
        )


@register(
    "e6",
    claim=(
        '"Eventually (within tens of seconds) the root zone will have all '
        'the information on ... subscribed" — subscription propagation'
    ),
    quick={"sizes": (100,), "gossip_intervals": (2.0,)},
)
def run_e6(
    *,
    sizes: Sequence[int] = (100, 500, 2000),
    gossip_intervals: Sequence[float] = (2.0, 5.0),
    horizon: float = 300.0,
    seed: int = 0,
    backend: str = "object",
) -> E6Result:
    """``backend="columnar"`` runs the same protocol question against
    the mega-scale backend (docs/SCALE.md): the run-time ``subscribe``
    takes the staged leaf→root propagation path and the probe reads the
    observer's top-zone root replica — the same measurement, different
    state representation.
    """
    validate_sizes("sizes", sizes)
    validate_sizes("gossip_intervals", gossip_intervals)
    validate_positive("horizon", horizon)
    validate_seed(seed)
    if backend not in ("object", "columnar"):
        raise ConfigurationError(
            f"backend must be 'object' or 'columnar', got {backend!r}"
        )
    base_subjects = subjects_for(("newswire",), TECH_CATEGORIES)
    fresh_subject = "newswire/raresubject"
    rows: list[E6Row] = []
    for num_nodes in sizes:
        for interval in gossip_intervals:
            config = NewsWireConfig(
                gossip=GossipConfig(interval=interval, jitter=min(1.0, interval / 2))
            )

            def base_subscriptions(i: int):
                return (Subscription(base_subjects[i % len(base_subjects)]),)

            # The new subscriber is the last node (different top zone
            # than node 0); the observer shares the publisher's top
            # zone, so visibility means the bit crossed the root.
            if backend == "columnar":
                from repro.scale.backend import build_columnar

                system = build_columnar(
                    num_nodes,
                    config,
                    publisher_names=("newswire",),
                    subscriptions_for=base_subscriptions,
                    seed=seed + num_nodes,
                )
                subscriber_index = num_nodes - 1
                subscriber_name = system.node_name(subscriber_index)
                positions = system.scheme.hints_for(fresh_subject, "newswire")

                def do_subscribe() -> None:
                    system.subscribe(subscriber_index, Subscription(fresh_subject))

                def root_visible() -> bool:
                    return system.root_subs_visible(1, positions)

            else:
                system = build_newswire(
                    num_nodes,
                    config,
                    publisher_names=("newswire",),
                    subscriptions_for=base_subscriptions,
                    seed=seed + num_nodes,
                )
                subscriber = system.nodes[-1]
                observer = system.nodes[1]
                subscriber_name = str(subscriber.node_id)
                positions = subscriber.scheme.hints_for(fresh_subject, "newswire")

                def do_subscribe() -> None:
                    subscriber.subscribe(Subscription(fresh_subject))

                def root_visible() -> bool:
                    subs = observer.evaluate_zone(observer.zones[0]).get("subs")
                    return isinstance(subs, int) and all(
                        (subs >> p) & 1 for p in positions
                    )

            system.run_for(2 * interval)
            publisher = system.publisher("newswire")

            t_subscribe = system.sim.now
            do_subscribe()

            visibility: list[float] = []

            def check_root() -> None:
                if visibility:
                    return
                if root_visible():
                    visibility.append(system.sim.now - t_subscribe)

            probe = system.sim.call_every(interval / 4, check_root)
            system.sim.run_until(t_subscribe + horizon)
            probe.cancel()

            first_delivery: Optional[float] = None
            if visibility:
                # Now measure end-to-end: publish on the fresh subject.
                t_publish = system.sim.now
                publisher.publish_news(fresh_subject, "for the new subscriber")
                system.sim.run_until(t_publish + 60.0)
                for event in system.trace.events("deliver"):
                    if (
                        event.get("node") == subscriber_name
                        and event.time >= t_publish
                    ):
                        first_delivery = event.time - t_publish
                        break
            rows.append(
                E6Row(
                    num_nodes=num_nodes,
                    gossip_interval=interval,
                    root_visibility_s=visibility[0] if visibility else None,
                    first_delivery_s=first_delivery,
                )
            )
    return E6Result(rows)


if __name__ == "__main__":
    print(run_e6().report())
