"""E2-shaped latency points on the columnar backend at 20k and 100k nodes.

Zipf interests over the tech subjects, two settle rounds, three items
one second apart, a 20 s drain.  Traces go to a
:class:`~repro.obs.sinks.StreamingSink`, the documented sink at this
scale (docs/SCALE.md).  The delivery counts and per-item digests are
pinned: the same seed must mean the same delivery sets on any machine.
"""

import hashlib
import json

import pytest

from repro.core.config import NewsWireConfig
from repro.core.identifiers import ItemId
from repro.obs.sinks import StreamingSink
from repro.scale.backend import build_columnar
from repro.testkit.invariants import InvariantSuite
from repro.workloads.populations import InterestModel
from repro.workloads.scenarios import TECH_CATEGORIES, subjects_for

ITEMS = 3


def run_point(num_nodes, suite=None):
    """Run one point; return (expected, delivered, digest)."""
    subjects = subjects_for(("newswire",), TECH_CATEGORIES)
    interests = InterestModel(subjects=subjects, subscriptions_per_node=3, seed=0)
    interests.prepare(num_nodes)
    sink = StreamingSink()
    system = build_columnar(
        num_nodes,
        NewsWireConfig(),
        subscriptions_for=interests.subscriptions_for,
        seed=num_nodes,
        sinks=[sink] if suite is None else [sink, suite],
    )
    system.run_for(2 * system.config.gossip.interval)
    publisher = system.publisher("newswire")
    start = system.sim.now
    item_subjects = [subjects[index % len(subjects)] for index in range(ITEMS)]
    for index, subject in enumerate(item_subjects):
        system.sim.call_at(
            start + index, publisher.publish_news, subject, f"story {index}"
        )
    system.sim.run_until(start + ITEMS + 20.0)

    if suite is not None:
        for serial, subject in enumerate(item_subjects, start=1):
            suite.causal.expect(
                str(ItemId("newswire", serial)),
                {
                    system.node_name(index)
                    for index in range(num_nodes)
                    if any(
                        subscription.matches_subject(subject)
                        for subscription in interests.subscriptions_for(index)
                    )
                },
            )
    expected = sum(
        interests.expected_receivers(num_nodes, subject) for subject in item_subjects
    )
    per_item = sorted(sink.deliveries_per_item.items())
    digest = hashlib.sha256(json.dumps(per_item).encode("utf-8")).hexdigest()
    return expected, sink.count("deliver"), digest


@pytest.mark.slow
def test_20k_nodes_deliver_everything_under_the_invariant_suite():
    suite = InvariantSuite()
    expected, delivered, digest = run_point(20_000, suite)
    assert suite.finalize(None) == []
    assert delivered == expected == 40214
    assert digest == (
        "a796a2c726cb6cf4de856a2bc455a3bbe9ed9ce852c7f6dbdacc5f1e0419bfe3"
    )


@pytest.mark.slow
def test_100k_nodes_deliver_everything():
    expected, delivered, digest = run_point(100_000)
    assert delivered == expected == 201157
    assert digest == (
        "f10c2143a62e6e8c00b3373272bb8654df953bbe0159402aeff42cd1ebcf6ed4"
    )
