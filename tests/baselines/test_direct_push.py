"""Tests for the direct one-to-many push baseline."""

import pytest

from repro.core.errors import ConfigurationError
from repro.core.identifiers import ItemId, ZonePath
from repro.sim.engine import Simulation
from repro.sim.network import FixedLatency, Network
from repro.sim.trace import TraceLog
from repro.baselines.direct_push import PushOrigin, PushSubscriber
from repro.news.item import NewsItem
from repro.runtime.sim import SimRuntime


def zp(text):
    return ZonePath.parse(text)


def rig(num_subscribers=10, send_rate=100.0):
    sim = Simulation(seed=3)
    network = Network(sim, latency=FixedLatency(0.01))
    runtime = SimRuntime(sim, network)
    trace = TraceLog(sim, kinds={"push-deliver"})
    origin = PushOrigin(zp("/o/p"), runtime, send_rate=send_rate, trace=trace)
    subscribers = [
        PushSubscriber(zp(f"/s/s{i}"), runtime, trace=trace)
        for i in range(num_subscribers)
    ]
    return sim, origin, subscribers, trace


def item(serial, subject="a"):
    return NewsItem(ItemId("p", serial), subject, f"h{serial}", published_at=0.0)


class TestPush:
    def test_fanout_matches_matching_subscribers(self):
        sim, origin, subscribers, trace = rig()
        for index, sub in enumerate(subscribers):
            origin.subscribe(sub.node_id, {"a"} if index % 2 == 0 else {"b"})
        fanout = origin.publish(item(1, subject="a"))
        sim.run()
        assert fanout == 5
        assert sum(s.received for s in subscribers) == 5

    def test_unsubscribe(self):
        sim, origin, subscribers, trace = rig()
        origin.subscribe(subscribers[0].node_id, {"a"})
        origin.unsubscribe(subscribers[0].node_id)
        assert origin.publish(item(1)) == 0
        assert origin.roster_size == 0

    def test_publisher_load_linear_in_roster(self):
        sim, origin, subscribers, trace = rig()
        for sub in subscribers:
            origin.subscribe(sub.node_id, {"a"})
        origin.publish(item(1))
        sim.run()
        stats = sim and origin.stats
        assert stats.sends == 10
        assert stats.bytes_sent > 0

    def test_send_rate_paces_last_delivery(self):
        sim, origin, subscribers, trace = rig(send_rate=10.0)
        for sub in subscribers:
            origin.subscribe(sub.node_id, {"a"})
        origin.publish(item(1))
        sim.run()
        latencies = [e["latency"] for e in trace.events("push-deliver")]
        assert max(latencies) >= 0.9  # 10 sends at 10/s

    def test_peak_backlog_tracked(self):
        sim, origin, subscribers, trace = rig(send_rate=1.0)
        for sub in subscribers:
            origin.subscribe(sub.node_id, {"a"})
        origin.publish(item(1))
        assert origin.stats.peak_backlog == 10

    def test_send_rate_validation(self):
        runtime = SimRuntime()
        with pytest.raises(ConfigurationError):
            PushOrigin(zp("/o/p"), runtime, send_rate=0.0)
