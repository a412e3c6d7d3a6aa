"""Tests for the centralized origin server."""

import pytest

from repro.core.errors import ConfigurationError
from repro.core.identifiers import ItemId, ZonePath
from repro.sim.engine import Simulation
from repro.sim.failures import FloodMessage
from repro.sim.network import FixedLatency, Network
from repro.sim.node import Process
from repro.baselines.origin import (
    ArticleRequest,
    ArticleResponse,
    OriginServer,
    PullRequest,
    PullResponse,
)
from repro.news.item import NewsItem
from repro.runtime.sim import SimRuntime


def zp(text):
    return ZonePath.parse(text)


def item(serial):
    return NewsItem(ItemId("www", serial), "www/c", f"h{serial}",
                    body="x" * 100, published_at=float(serial))


class Client(Process):
    def __init__(self, *args):
        super().__init__(*args)
        self.responses = []

    def on_message(self, sender, message):
        self.responses.append(message)


@pytest.fixture
def rig():
    sim = Simulation(seed=1)
    network = Network(sim, latency=FixedLatency(0.01))
    runtime = SimRuntime(sim, network)
    origin = OriginServer(zp("/o/www"), runtime, capacity=100.0,
                          max_queue=5, page_items=3)
    client = Client(zp("/c/c0"), runtime)
    return sim, origin, client


class TestFrontPage:
    def test_page_bounded(self, rig):
        sim, origin, client = rig
        for serial in range(1, 6):
            origin.publish(item(serial))
        assert [i.item_id.serial for i in origin.front_page()] == [3, 4, 5]
        assert origin.latest_serial == 5

    def test_full_mode_returns_page(self, rig):
        sim, origin, client = rig
        origin.publish(item(1))
        client.send(origin.node_id, PullRequest("full"))
        sim.run()
        response = client.responses[0]
        assert isinstance(response, PullResponse)
        assert [i.item_id.serial for i in response.items] == [1]
        assert not response.not_modified

    def test_cond_mode_not_modified(self, rig):
        sim, origin, client = rig
        origin.publish(item(1))
        client.send(origin.node_id, PullRequest("cond", last_serial=1))
        sim.run()
        assert client.responses[0].not_modified
        assert client.responses[0].wire_size < 100

    def test_cond_mode_full_when_changed(self, rig):
        sim, origin, client = rig
        origin.publish(item(1))
        origin.publish(item(2))
        client.send(origin.node_id, PullRequest("cond", last_serial=1))
        sim.run()
        assert not client.responses[0].not_modified
        assert len(client.responses[0].items) == 2

    def test_delta_mode_only_new(self, rig):
        sim, origin, client = rig
        for serial in range(1, 4):
            origin.publish(item(serial))
        client.send(origin.node_id, PullRequest("delta", last_serial=2))
        sim.run()
        assert [i.item_id.serial for i in client.responses[0].items] == [3]

    def test_rss_mode_summaries_only(self, rig):
        sim, origin, client = rig
        origin.publish(item(1))
        client.send(origin.node_id, PullRequest("rss"))
        sim.run()
        response = client.responses[0]
        assert response.items == ()
        assert response.summaries == ((1, "www/c"),)

    def test_article_request(self, rig):
        sim, origin, client = rig
        origin.publish(item(7))
        client.send(origin.node_id, ArticleRequest(7))
        sim.run()
        response = client.responses[0]
        assert isinstance(response, ArticleResponse)
        assert response.item.item_id.serial == 7

    def test_article_request_unknown(self, rig):
        sim, origin, client = rig
        client.send(origin.node_id, ArticleRequest(99))
        sim.run()
        assert client.responses[0].item is None


class TestOverload:
    def test_queue_bound_drops(self, rig):
        sim, origin, client = rig
        for _ in range(20):
            client.send(origin.node_id, PullRequest("full"))
        sim.run()
        assert origin.stats.dropped_overload > 0
        assert origin.stats.served + origin.stats.dropped_overload == 20

    def test_flood_consumes_capacity(self, rig):
        sim, origin, client = rig
        for _ in range(5):
            origin.receive(zp("/attacker"), FloodMessage())
        client.send(origin.node_id, PullRequest("full"))
        sim.run()
        assert origin.stats.flood_requests == 5
        # The legitimate request was served after the junk.
        assert len(client.responses) == 1

    def test_capacity_validation(self):
        runtime = SimRuntime()
        with pytest.raises(ConfigurationError):
            OriginServer(zp("/o/www"), runtime, capacity=0.0)
        with pytest.raises(ConfigurationError):
            OriginServer(zp("/o/www"), runtime, max_queue=0)

    def test_service_rate_paces_responses(self, rig):
        sim, origin, client = rig
        for _ in range(3):
            client.send(origin.node_id, PullRequest("full"))
        sim.run()
        # 3 requests at 100/s: last response ~0.03s + 2*latency
        assert sim.now >= 0.03
