"""Work checksums of the four substrate hot paths under every experiment.

Each workload drives one hot path (the event loop under timer churn,
anti-entropy reconciliation, AQL zone aggregation, the Bloom forwarding
test) through a fixed, deterministic piece of work and sums what it
observed.  The sums are pinned: an optimisation of any of these paths
must leave them unchanged, or it changed behaviour, not just speed.
"""

from repro.astrolabe.deployment import build_astrolabe
from repro.core.bloom import BloomFilter
from repro.core.config import BloomConfig, NewsWireConfig
from repro.gossip.antientropy import VersionedStore
from repro.pubsub.schemes import BloomScheme
from repro.sim.engine import Simulation


def _noop():
    pass


def test_event_loop_churn_guard():
    """Per wave: 500 near events, 500 far timeouts all cancelled (the
    repair/retry-timer pattern), a ``pending_events`` poll, then time
    advances past the near events."""
    sim = Simulation(seed=1)
    guard = 0
    for _ in range(40):
        start = sim.now
        timeouts = [sim.call_after(10_000.0, _noop) for _ in range(500)]
        for index in range(500):
            sim.call_after(0.001 * (index + 1), _noop)
        for handle in timeouts:
            handle.cancel()
        guard += sim.pending_events
        sim.run_until(start + 1.0)
    assert guard == 20000


def test_antientropy_digest_guard():
    """3000 digest/delta exchanges on a 64-entry store, one own-row
    refresh per exchange: the per-round cost of one gossip pairing."""
    entries = 64
    local = VersionedStore()
    remote = VersionedStore()
    for index in range(entries):
        local.put(f"k{index}", index, (float(index), "w"))
        if index % 2 == 0:
            remote.put(f"k{index}", index, (float(index), "w"))
    guard = 0
    for round_no in range(3000):
        delta = local.delta_for(remote.digest())
        remote.apply_delta(delta)
        back = remote.delta_for(local.digest())
        local.apply_delta(back)
        guard += len(delta) + len(back)
        local.put(
            f"k{round_no % entries}", round_no, (float(entries + round_no), "w")
        )
    assert guard == 3031


def test_aql_zone_aggregation_guard():
    """400 aggregate queries over an unchanged 64-row zone table."""
    deployment = build_astrolabe(64, NewsWireConfig(branching_factor=64), seed=3)
    deployment.run_rounds(2)
    agent = deployment.agents[0]
    root = agent.zones[0]
    guard = sum(int(agent.evaluate_zone(root)["nmembers"]) for _ in range(400))
    assert guard == 25600


def test_bloom_forward_test_guard():
    """40000 forwarding tests of 96 subjects' hints against a child
    zone's aggregate filter holding 64 of them."""
    config = BloomConfig(num_bits=1024, num_hashes=4)
    scheme = BloomScheme(config)
    aggregate = BloomFilter(config.num_bits, config.num_hashes)
    for index in range(64):
        aggregate.add(f"newswire/topic-{index}")
    row = {"subs": aggregate.to_int()}
    hints = [
        scheme.hints_for(f"newswire/topic-{index}", "newswire") for index in range(96)
    ]
    guard = sum(
        1
        for index in range(40000)
        if scheme.zone_may_match(row, hints[index % len(hints)])
    )
    assert guard == 27104
