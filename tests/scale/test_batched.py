"""BatchedGossip: staged propagation cadence, replica anti-entropy,
failure expiry — the protocol semantics behind the one-event round."""

import hashlib
import json

from repro.core.config import GossipConfig, NewsWireConfig
from repro.pubsub.subscription import Subscription
from repro.scale.backend import build_columnar


def build(num_nodes, branching=8, **kwargs):
    config = NewsWireConfig(
        gossip=GossipConfig(interval=1.0, jitter=0.0),
        branching_factor=branching,
    )
    return build_columnar(num_nodes, config, **kwargs)


class TestStagedPropagation:
    def test_one_tree_level_per_round(self):
        """A leaf interest change climbs exactly one depth per round."""
        system = build(512, branching=8)  # levels=3, width=8
        columns = system.columns
        assert columns.levels == 3
        target = 511  # last node, remote from the publisher's zones
        mask_before_top = columns.agg_subs[1][columns.zone_of(target, 1)]
        system.subscribe(target, Subscription("fresh/subject"))
        new_bits = columns.interest[target] & ~mask_before_top

        leaf = columns.leaf_zone(target)
        mid = columns.zone_of(target, 1)
        assert new_bits  # the fresh subject set at least one new bit

        system.run_for(1.0)  # round 1: leaf recomputed
        assert columns.agg_subs[2][leaf] & new_bits == new_bits
        assert columns.agg_subs[1][mid] & new_bits == 0

        system.run_for(1.0)  # round 2: mid zone recomputed, replica row set
        assert columns.agg_subs[1][mid] & new_bits == new_bits

    def test_replica_ring_spreads_top_row_to_all_zones(self):
        system = build(512, branching=8)
        columns = system.columns
        gossip = system.gossip
        target = 511
        system.subscribe(target, Subscription("fresh/subject"))
        bit_mask = columns.interest[target]
        # Leaf -> mid takes 2 rounds; the doubling ring then needs
        # O(log T) rounds to reach every top-zone replica.
        system.run_for(10.0)
        for observer in (0, 1, 100, 511):
            view = gossip.root_subs_view(observer)
            assert view & bit_mask == bit_mask

    def test_generation_skip_saves_converged_reconciles(self):
        system = build(512, branching=8)
        gossip = system.gossip
        system.run_for(3.0)
        busy = gossip.reconciles
        system.run_for(20.0)  # converged: every pair exchange is a skip
        assert gossip.reconciles_skipped > 0
        assert gossip.reconciles - busy <= len(gossip.replicas)


class TestFailureExpiry:
    def test_failed_node_expires_and_leaves_aggregates(self):
        system = build(64, branching=8)
        columns = system.columns
        victim = 9
        count_before = columns.agg_count[0][0]
        system.fail_node(victim)
        assert columns.alive[victim] == 0
        assert columns.member[victim] == 1  # not reaped yet
        # Run past the expiry horizon (rtt_timeout * multiplier).
        system.run_for(60.0)
        assert columns.member[victim] == 0
        assert columns.agg_count[0][0] == count_before - 1
        # Zone is clean again once every failure is reaped.
        assert columns.zone_clean[columns.leaf_zone(victim)] == 1

    def test_recovered_node_rejoins(self):
        system = build(64, branching=8)
        columns = system.columns
        victim = 9
        system.fail_node(victim)
        system.run_for(60.0)
        assert columns.member[victim] == 0
        system.recover_node(victim)
        system.run_for(2.0)
        assert columns.member[victim] == 1
        assert columns.agg_count[0][0] == 64

    def test_failed_carrier_falls_back_for_delivery(self):
        system = build(
            64,
            branching=8,
            subscriptions_for=lambda i: [Subscription("s/all")],
        )
        columns = system.columns
        zone = columns.leaf_zone(16)
        members = list(columns.leaf_members(zone))
        system.fail_node(members[0])  # the zone's representative
        system.run_for(2.0)
        system.publisher("newswire").publish_news("s/all", "story")
        system.run_for(10.0)
        delivered = {
            event["node"] for event in system.trace.events("deliver")
        }
        for index in members[1:]:
            assert columns.node_path(index) in delivered
        assert columns.node_path(members[0]) not in delivered


class TestQuietZones:
    def test_failure_in_quiet_zone_expires_without_collateral(self):
        """A zone quiet for many rounds rides the shared refresh stamp;
        a failure there reaps only the failed node, never its alive
        neighbours."""
        system = build(512, seed=1)
        columns = system.columns
        system.run_for(10.0)
        victim = 300
        zone = columns.leaf_zone(victim)
        assert columns.zone_clean[zone]
        system.fail_node(victim)
        system.run_for(60.0)
        assert columns.member[victim] == 0
        for neighbour in columns.leaf_members(zone):
            if neighbour != victim:
                assert columns.member[neighbour] == 1


class TestDeliveryDigest:
    def test_fixed_seed_delivery_set_is_pinned(self):
        """Publish, subscribe mid-run, publish again: the sorted
        (item, node) delivery set of a fixed-seed run never drifts."""
        system = build(
            512, subscriptions_for=lambda i: [Subscription(f"s/{i % 4}")], seed=3
        )
        system.run_for(3.0)
        publisher = system.publisher("newswire")
        publisher.publish_news("s/0", "one")
        system.run_for(5.0)
        system.subscribe(100, Subscription("s/fresh"))
        system.run_for(5.0)
        publisher.publish_news("s/fresh", "two")
        system.run_for(10.0)
        delivers = sorted(
            (event["item"], event["node"]) for event in system.trace.events("deliver")
        )
        assert len(delivers) == 129  # 128 subscribers of s/0, then node 100
        digest = hashlib.sha256(json.dumps(delivers).encode()).hexdigest()
        assert digest == (
            "b95f73b2441fba7ccf4c9d1e270b6f4902273fc1f10f64091afa890702bbb498"
        )
