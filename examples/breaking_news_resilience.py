"""Breaking news under attack — the robustness story of the paper.

Section 1: "As we have seen during the terrorist attacks in September
2001, Internet news sites become completely useless under overload."

This example stages that day twice with the same breaking-news burst:

1. against a centralized news site with realistic service capacity,
   under a request flood (the flash crowd / DoS);
2. over NewsWire, where the same flood hits the publisher node — and
   for good measure the publisher *crashes* right after the burst and a
   tenth of all forwarding nodes churn — yet delivery completes via
   redundant representatives and epidemic repair.

Run:  python examples/breaking_news_resilience.py
"""

from repro.baselines import OriginServer, PullClient
from repro.core import MulticastConfig, NewsWireConfig
from repro.core.identifiers import ZonePath
from repro.experiments.common import drive_trace, item_from_publication
from repro.news import build_newswire
from repro.obs import latency_summary
from repro.pubsub import Subscription
from repro.runtime import SimRuntime
from repro.sim import FailureInjector, HierarchicalLatency, Network, Simulation
from repro.sim.trace import TraceLog
from repro.workloads import breaking_news_scenario

FLOOD_RATE = 3000.0  # junk requests per second at the content source
NUM_READERS = 400


def centralized_world(scenario) -> None:
    sim = Simulation(seed=13)
    network = Network(sim, latency=HierarchicalLatency())
    runtime = SimRuntime(sim, network)
    trace_log = TraceLog(sim, kinds={"pull-deliver"})
    origin = OriginServer(
        ZonePath.parse("/www/news"), runtime,
        capacity=150.0, max_queue=60, trace=trace_log,
    )
    failures = FailureInjector(sim, network)
    for index in range(NUM_READERS):
        PullClient(
            ZonePath.parse(f"/homes/r{index}"), runtime,
            origin.node_id, poll_interval=60.0, mode="delta",
            trace=trace_log,
        ).start()
    for serial, publication in enumerate(scenario.trace, start=1):
        sim.call_at(
            publication.time,
            origin.publish,
            item_from_publication(publication, "news", serial),
        )
    # The flood begins as the story breaks (everyone hits refresh).
    spike_start = scenario.trace[0].time
    failures.flood(origin.node_id, rate=FLOOD_RATE, start=spike_start,
                   duration=1800.0)
    sim.run_until(3600.0)

    served = origin.stats.served / max(1, origin.stats.requests)
    items = len(scenario.trace)
    unique = {
        (e["node"], e["item"]) for e in trace_log.events("pull-deliver")
    }
    print("centralized site under flood:")
    print(f"  legitimate requests served: {served:.0%}")
    print(f"  requests dropped at the door: {origin.stats.dropped_overload:,}")
    print(f"  item deliveries achieved: "
          f"{len(unique):,} of {items * NUM_READERS:,} "
          f"({len(unique) / (items * NUM_READERS):.0%})")


def newswire_world(scenario) -> None:
    config = NewsWireConfig(
        branching_factor=16,
        multicast=MulticastConfig(
            representatives=3, send_to_representatives=2, repair_interval=3.0,
        ),
    )
    # The spike subject is the one that dominates the trace.
    from collections import Counter
    breaking_subject = Counter(
        p.subject for p in scenario.trace
    ).most_common(1)[0][0]
    system = build_newswire(
        num_nodes=NUM_READERS,
        config=config,
        publisher_names=scenario.publishers,
        publisher_rate=50.0,
        subscriptions_for=lambda i: (Subscription(breaking_subject),),
        seed=13,
    )
    system.run_for(2 * config.gossip.interval)
    publisher = system.publisher(scenario.publishers[0])

    burst = [p for p in scenario.trace if p.subject == breaking_subject][:20]
    assert len(burst) >= 10, "spike subject should dominate the trace"
    offset = system.sim.now + 5.0 - burst[0].time
    shifted = [
        type(p)(time=p.time + offset, subject=p.subject, headline=p.headline,
                body_words=p.body_words, categories=p.categories,
                urgency=p.urgency)
        for p in burst
    ]
    drive_trace(system, scenario.publishers[0], shifted)

    # Same flood, aimed at the publisher; then the publisher dies; then churn.
    start = shifted[0].time
    end = shifted[-1].time
    system.deployment.failures.flood(
        publisher.node_id, rate=FLOOD_RATE, start=start, duration=1800.0
    )
    system.deployment.failures.crash_at(end + 1.0, publisher)
    system.deployment.failures.churn(
        system.nodes[1:], rate=0.3, downtime=10.0, start=start,
        duration=300.0,
    )
    system.sim.run_until(end + 120.0)

    expected = len(shifted) * (NUM_READERS - 1)  # publisher crashed
    delivered = system.trace.count("deliver")
    print("\nnewswire under the same flood + publisher crash + churn:")
    print(f"  deliveries: {delivered:,} "
          f"(~{delivered / expected:.0%} of the ideal {expected:,}; "
          f"crashed-at-the-time nodes account for the gap)")
    print(f"  repaired after loss: {system.trace.count('repair-delivered'):,}")
    print(f"  duplicates suppressed: {system.trace.count('dup-dropped'):,}")
    print(f"  latency: {latency_summary(system.trace)}")


def main() -> None:
    scenario = breaking_news_scenario(duration=3600.0, spike_factor=20.0, seed=13)
    print(f"breaking-news burst: {len(scenario.trace)} stories, "
          f"flood rate {FLOOD_RATE:.0f} req/s\n")
    centralized_world(scenario)
    newswire_world(scenario)


if __name__ == "__main__":
    main()
