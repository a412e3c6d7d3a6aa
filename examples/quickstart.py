"""Quickstart: a 200-node NewsWire in ~40 lines.

Builds a collaborative delivery network, subscribes nodes to subjects,
publishes a few stories through an authenticated publisher, and shows
the end-to-end results: delivery counts, latencies, and what a
subscriber's message cache holds.

Run:  python examples/quickstart.py
"""

from repro.core import NewsWireConfig
from repro.news import build_newswire
from repro.obs import latency_summary
from repro.pubsub import Subscription

SUBJECTS = ["newswire/tech", "newswire/science", "newswire/sports"]


def main() -> None:
    config = NewsWireConfig(branching_factor=16)

    # Every third node likes a different subject.
    system = build_newswire(
        num_nodes=200,
        config=config,
        publisher_names=("newswire",),
        publisher_rate=20.0,
        subscriptions_for=lambda i: (Subscription(SUBJECTS[i % 3]),),
        seed=42,
    )

    # Let the epidemic state settle for a couple of gossip rounds.
    system.run_for(2 * config.gossip.interval)

    publisher = system.publisher("newswire")
    items = [
        publisher.publish_news(
            subject=SUBJECTS[index % 3],
            headline=f"Story number {index}",
            body="breaking developments " * 30,
            categories=(SUBJECTS[index % 3].split("/")[1],),
        )
        for index in range(6)
    ]
    system.run_for(30.0)

    print(f"published {len(items)} items to {len(system.nodes)} nodes")
    print(f"deliveries: {system.trace.count('deliver')}")
    print(f"in-network filter saves: {system.trace.count('filtered')} forwards")
    print(f"latency: {latency_summary(system.trace)}")

    subscriber = system.subscribers[0]
    print(f"\ncache of {subscriber.node_id} "
          f"(subscribed to {subscriber.subscriptions[0].subject}):")
    for item in subscriber.cache.items():
        print(f"  {item.item_id}  {item.subject:20s}  {item.headline}")


if __name__ == "__main__":
    main()
