"""Tests for pull clients: redundancy accounting."""

import pytest

from repro.core.errors import ConfigurationError
from repro.core.identifiers import ItemId, ZonePath
from repro.sim.engine import Simulation
from repro.sim.network import FixedLatency, Network
from repro.sim.trace import TraceLog
from repro.baselines.origin import OriginServer
from repro.baselines.pull import PullClient
from repro.news.item import NewsItem
from repro.runtime.sim import SimRuntime


def zp(text):
    return ZonePath.parse(text)


def rig(mode="full", poll_interval=10.0, subjects=None):
    sim = Simulation(seed=2)
    network = Network(sim, latency=FixedLatency(0.01))
    runtime = SimRuntime(sim, network)
    trace = TraceLog(sim, kinds={"pull-deliver"})
    origin = OriginServer(zp("/o/www"), runtime, capacity=1000.0,
                          page_items=5, trace=trace)
    client = PullClient(zp("/c/c0"), runtime, origin.node_id,
                        poll_interval=poll_interval, mode=mode,
                        subjects=subjects, trace=trace)
    client.start()
    return sim, origin, client, trace


def publish(sim, origin, serial, at, subject="www/c"):
    sim.call_at(at, origin.publish, NewsItem(
        ItemId("www", serial), subject, f"h{serial}",
        body="x" * 200, published_at=at,
    ))


class TestFullMode:
    def test_counts_new_and_redundant(self):
        sim, origin, client, trace = rig(mode="full", poll_interval=10.0)
        publish(sim, origin, 1, at=1.0)
        sim.run_until(35.0)
        # Polls at ~jittered t, item visible from t=1: received repeatedly.
        assert client.stats.new_items == 1
        assert client.stats.redundant_items >= 1
        assert client.stats.redundancy_ratio > 0

    def test_latency_recorded(self):
        sim, origin, client, trace = rig()
        publish(sim, origin, 1, at=1.0)
        sim.run_until(30.0)
        events = list(trace.events("pull-deliver"))
        assert events and 0 <= events[0]["latency"] <= 10.5


class TestDeltaMode:
    def test_no_redundancy(self):
        sim, origin, client, trace = rig(mode="delta")
        for serial in range(1, 5):
            publish(sim, origin, serial, at=serial * 7.0)
        sim.run_until(60.0)
        assert client.stats.new_items == 4
        assert client.stats.redundant_items == 0


class TestCondMode:
    def test_not_modified_responses(self):
        sim, origin, client, trace = rig(mode="cond")
        publish(sim, origin, 1, at=1.0)
        sim.run_until(60.0)
        assert client.stats.not_modified >= 3  # quiet polls after the item


class TestRssMode:
    def test_fetches_only_interesting_articles(self):
        sim, origin, client, trace = rig(mode="rss", subjects={"www/want"})
        publish(sim, origin, 1, at=1.0, subject="www/want")
        publish(sim, origin, 2, at=1.5, subject="www/skip")
        sim.run_until(30.0)
        assert client.stats.article_fetches == 1
        assert client.stats.new_items == 1


class TestValidation:
    def test_bad_mode(self):
        runtime = SimRuntime()
        with pytest.raises(ConfigurationError):
            PullClient(zp("/c/x"), runtime, zp("/o/www"),
                       poll_interval=1.0, mode="push")

    def test_bad_interval(self):
        runtime = SimRuntime()
        with pytest.raises(ConfigurationError):
            PullClient(zp("/c/x"), runtime, zp("/o/www"),
                       poll_interval=0.0)
