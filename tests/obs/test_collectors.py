"""Tests for the trace-reading delivery collectors."""

import pytest

from repro.obs.collectors import (
    collect_delivery_stats,
    delivery_latencies,
    delivery_ratio,
)
from repro.obs.sinks import StreamingSink
from repro.sim.engine import Simulation
from repro.sim.trace import TraceLog


def trace_with_deliveries(**kwargs):
    sim = Simulation()
    trace = TraceLog(sim, **kwargs)
    trace.record("deliver", node="/a", item="i1", latency=0.5)
    trace.record("deliver", node="/b", item="i1", latency=1.5)
    trace.record("deliver", node="/a", item="i2", latency=2.0)
    return trace


class TestCollectors:
    def test_delivery_latencies(self):
        assert delivery_latencies(trace_with_deliveries()) == [0.5, 1.5, 2.0]

    def test_delivery_ratio_full(self):
        trace = trace_with_deliveries()
        assert delivery_ratio(trace, {"i1": 2, "i2": 1}) == 1.0

    def test_delivery_ratio_partial(self):
        trace = trace_with_deliveries()
        assert delivery_ratio(trace, {"i1": 4, "i2": 2}) == 0.5

    def test_delivery_ratio_caps_overdelivery(self):
        trace = trace_with_deliveries()
        assert delivery_ratio(trace, {"i1": 1, "i2": 1}) == 1.0

    def test_delivery_ratio_empty_expectation(self):
        assert delivery_ratio(trace_with_deliveries(), {}) == 0.0


class TestCollectorSources:
    def test_memory_source_shares_one_pass(self):
        stats = collect_delivery_stats(trace_with_deliveries())
        assert stats.source == "memory"
        assert stats.latencies == [0.5, 1.5, 2.0]
        assert stats.per_item == {"i1": 2, "i2": 1}
        assert stats.per_node == {"/a": 2, "/b": 1}
        assert sum(stats.per_item.values()) == 3
        assert stats.summary.count == 3
        assert stats.summary.maximum == 2.0

    def test_streaming_source_used_without_memory(self):
        trace = trace_with_deliveries(sinks=[StreamingSink()])
        stats = collect_delivery_stats(trace)
        assert stats.source == "streaming"
        assert stats.latencies == []  # exact values not retained
        assert stats.per_item == {"i1": 2, "i2": 1}
        assert stats.per_node == {"/a": 2, "/b": 1}
        assert stats.summary.count == 3
        assert stats.summary.maximum == 2.0
        assert stats.summary.p50 == pytest.approx(1.5, abs=1.0)
        assert delivery_ratio(trace, {"i1": 2, "i2": 1}, stats=stats) == 1.0

    def test_empty_source_falls_back_to_kind_counter(self):
        # Only a kinds-filtered log: no sink aggregates at all, but the
        # always-on counter still supports an (uncapped) ratio.
        sim = Simulation()
        trace = TraceLog(sim, kinds=set())
        trace.record("deliver", node="/a", item="i1", latency=0.5)
        stats = collect_delivery_stats(trace)
        assert stats.source == "empty"
        assert delivery_ratio(trace, {"i1": 1}, stats=stats) == 1.0
        assert delivery_ratio(trace, {"i1": 2}, stats=stats) == 0.5

