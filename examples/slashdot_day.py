"""A day of Slashdot over NewsWire — the paper's motivating scenario.

Section 1 motivates the system with Slashdot.org: a million hits a day
on a front page whose content changes ~25 times a day, most of the
transferred bytes redundant.  This example runs both worlds side by
side on the same publication trace:

* the legacy world: a pull origin server polled by clients at various
  frequencies (measuring §1's redundancy claim), and
* the NewsWire world: the same stories bridged from the legacy RSS
  channel by a :class:`FeedAgent` (§10's bootstrap agents) and pushed
  to subscribers through the collaborative infrastructure.

Run:  python examples/slashdot_day.py
"""


from repro.baselines import OriginServer, PullClient
from repro.core import NewsWireConfig
from repro.core.identifiers import ZonePath
from repro.experiments.common import body_text, item_from_publication
from repro.news import FeedAgent, FeedEntry, SyntheticFeed, build_newswire
from repro.obs import latency_summary
from repro.runtime import SimRuntime
from repro.sim import FixedLatency, Network, Simulation
from repro.workloads import DAY, tech_news_scenario

POLLS_PER_DAY = (4, 24)


def legacy_world(scenario) -> None:
    """Pull clients vs the origin server (the §1 status quo)."""
    sim = Simulation(seed=7)
    runtime = SimRuntime(sim, Network(sim, latency=FixedLatency(0.05)))
    origin = OriginServer(
        ZonePath.parse("/www/slashdot"), runtime,
        capacity=5000.0, page_items=20,
    )
    for serial, publication in enumerate(scenario.trace, start=1):
        sim.call_at(
            publication.time,
            origin.publish,
            item_from_publication(publication, "slashdot", serial),
        )
    clients = []
    for index, visits in enumerate(POLLS_PER_DAY):
        client = PullClient(
            ZonePath.parse(f"/homes/reader{index}"), runtime,
            origin.node_id, poll_interval=DAY / visits, mode="full",
        )
        client.start()
        clients.append((visits, client))
    sim.run_until(DAY)

    print("legacy pull world:")
    for visits, client in clients:
        stats = client.stats
        print(
            f"  {visits:>2} visits/day: {stats.new_items} new items, "
            f"{stats.bytes_received:,} bytes received, "
            f"{stats.redundancy_ratio:.0%} redundant "
            f"(paper estimates ~70% at 4/day)"
        )


def newswire_world(scenario) -> None:
    """The same stories through the collaborative infrastructure."""
    # A stable long-running population gossips on a relaxed schedule:
    # membership/subscription state only needs to track slow change,
    # while item *delivery* latency is set by tree forwarding, not by
    # the gossip interval.  (It also keeps this day-long simulation
    # fast: ~1M events instead of ~50M at 2 s rounds.)
    from repro.core import CacheConfig, GossipConfig, MulticastConfig
    config = NewsWireConfig(
        branching_factor=16,
        gossip=GossipConfig(interval=120.0, jitter=30.0),
        multicast=MulticastConfig(repair_interval=300.0),
        cache=CacheConfig(capacity=100, max_age=DAY),  # keep the day's news
    )
    system = build_newswire(
        num_nodes=300,
        config=config,
        publisher_names=("slashdot",),
        publisher_rate=20.0,
        subscriptions_for=scenario.interests.subscriptions_for,
        seed=7,
    )
    # Bridge the legacy RSS channel into NewsWire (§10).
    feed = SyntheticFeed(
        "slashdot",
        [
            FeedEntry(
                available_at=p.time,
                subject=p.subject,
                headline=p.headline,
                body=body_text(p.body_words),
                categories=p.categories,
                urgency=p.urgency,
            )
            for p in scenario.trace
        ],
    )
    agent = FeedAgent(system.publisher("slashdot"), feed, poll_interval=300.0)
    agent.start()
    system.sim.run_until(DAY)

    deliveries = system.trace.count("deliver")
    print("\nnewswire world:")
    print(f"  feed agent bridged {agent.published} stories "
          f"({feed.polls} RSS polls)")
    print(f"  {deliveries} deliveries to "
          f"{len(system.subscribers)} subscribers, zero polling")
    print(f"  publish->deliver latency: {latency_summary(system.trace)}")
    sample = system.subscribers[0]
    print(f"  sample cache ({sample.node_id}): {len(sample.cache)} stories, "
          f"{sample.cache.stats.fused} revisions fused")


def main() -> None:
    scenario = tech_news_scenario(duration=DAY, items_per_day=25.0, seed=7)
    print(f"scenario: {len(scenario.trace)} stories across "
          f"{len(scenario.subjects)} subjects\n")
    legacy_world(scenario)
    newswire_world(scenario)


if __name__ == "__main__":
    main()
