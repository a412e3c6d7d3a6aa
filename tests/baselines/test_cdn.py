"""Tests for the hybrid push/pull CDN baseline."""

import pytest

from repro.core.errors import ConfigurationError
from repro.core.identifiers import ItemId, ZonePath
from repro.sim.engine import Simulation
from repro.sim.network import FixedLatency, Network
from repro.sim.trace import TraceLog
from repro.baselines.cdn import build_cdn, nearest_edge
from repro.baselines.pull import PullClient
from repro.news.item import NewsItem
from repro.runtime.sim import SimRuntime


def item(serial):
    return NewsItem(ItemId("cdn", serial), "cdn/c", f"h{serial}",
                    body="x" * 100, published_at=0.0)


def rig(num_edges=3):
    sim = Simulation(seed=4)
    network = Network(sim, latency=FixedLatency(0.02))
    trace = TraceLog(sim, kinds={"pull-deliver", "cdn-publish"})
    origin, edges = build_cdn(SimRuntime(sim, network), num_edges, trace=trace)
    return sim, network, trace, origin, edges


class TestCdn:
    def test_publish_replicates_to_all_edges(self):
        sim, network, trace, origin, edges = rig()
        origin.publish(item(1))
        sim.run()
        for edge in edges:
            assert edge.latest_serial == 1
        assert origin.stats.pushed == 3

    def test_publisher_load_is_per_edge_not_per_consumer(self):
        sim, network, trace, origin, edges = rig()
        for serial in range(1, 6):
            origin.publish(item(serial))
        sim.run()
        assert origin.stats.pushed == 5 * 3  # items x edges, no consumers

    def test_consumers_pull_from_their_edge(self):
        sim, network, trace, origin, edges = rig()
        client = PullClient(
            ZonePath.parse("/region1/homes/c0"), SimRuntime(sim, network),
            nearest_edge(ZonePath.parse("/region1/homes/c0"), edges).node_id,
            poll_interval=5.0, mode="delta", trace=trace,
        )
        client.start()
        origin.publish(item(1))
        sim.run_until(12.0)
        assert client.stats.new_items == 1

    def test_nearest_edge_matches_region(self):
        sim, network, trace, origin, edges = rig()
        assert nearest_edge(
            ZonePath.parse("/region2/homes/x"), edges
        ).node_id == ZonePath.parse("/region2/edge")

    def test_nearest_edge_fallback_deterministic(self):
        sim, network, trace, origin, edges = rig()
        client = ZonePath.parse("/elsewhere/homes/x")
        assert nearest_edge(client, edges) is nearest_edge(client, edges)

    def test_edge_overload_is_local(self):
        """Flooding one edge leaves the other regions' consumers fine."""
        from repro.sim.failures import FailureInjector

        sim, network, trace, origin, edges = rig()
        injector = FailureInjector(sim, network)
        clients = []
        for region in (0, 1):
            client = PullClient(
                ZonePath.parse(f"/region{region}/homes/c"), SimRuntime(sim, network),
                edges[region].node_id, poll_interval=5.0, mode="delta",
                trace=trace,
            )
            client.start()
            clients.append(client)
        injector.flood(edges[0].node_id, rate=5000.0, start=0.0, duration=60.0)
        origin.publish(item(1))
        sim.run_until(30.0)
        flooded, healthy = clients
        assert healthy.stats.new_items == 1
        assert edges[0].stats.dropped_overload > 0

    def test_needs_edges(self):
        runtime = SimRuntime()
        with pytest.raises(ConfigurationError):
            build_cdn(runtime, 0)

    def test_publish_without_edges_rejected(self):
        from repro.baselines.cdn import CdnOrigin

        runtime = SimRuntime()
        origin = CdnOrigin(ZonePath.parse("/o/c"), runtime)
        with pytest.raises(ConfigurationError):
            origin.publish(item(1))
