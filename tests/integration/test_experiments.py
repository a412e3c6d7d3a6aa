"""Shape tests: every claim-reproduction experiment.

These assert the *direction* of each paper claim (who wins, roughly by
how much), not absolute numbers.  Most run at small parameters; the
``slow`` ones run at the full sizes EXPERIMENTS.md records, where a
claim only shows at that scale.
"""

import pytest

from repro.experiments.e1_redundancy import run_e1
from repro.experiments.e2_latency import run_e2
from repro.experiments.e3_publisher_load import run_e3
from repro.experiments.e4_overload import run_e4
from repro.experiments.e5_bloom import run_e5_analytic, run_e5_system
from repro.experiments.e6_subscription import run_e6
from repro.experiments.e7_redundancy import run_e7
from repro.experiments.e8_branching import run_e8
from repro.experiments.e9_queues import run_e9
from repro.experiments.e10_scoped import run_e10


class TestE1PullRedundancy:
    def test_claim_70_percent_at_4_visits(self):
        result = run_e1(days=2.0, visits_per_day=(1, 4, 24), modes=("full",))
        at4 = result.redundancy_at("full", 4)
        assert 0.5 <= at4 <= 0.85  # "about 70%"

    def test_redundancy_monotone_in_poll_rate(self):
        result = run_e1(days=1.0, visits_per_day=(2, 8, 48), modes=("full",))
        values = [row.redundancy_ratio for row in result.rows]
        assert values == sorted(values)

    def test_delta_eliminates_redundancy(self):
        result = run_e1(days=1.0, visits_per_day=(8,), modes=("delta",))
        assert result.rows[0].redundancy_ratio == 0.0


class TestE2LatencyScaling:
    def test_full_delivery_within_tens_of_seconds(self):
        result = run_e2(sizes=(60, 240), items=3)
        for row in result.rows:
            assert row.ratio == 1.0
            assert row.latency.maximum < 30.0  # "tens of seconds"

    def test_latency_grows_sublinearly(self):
        result = run_e2(sizes=(60, 240), items=3)
        small, large = result.rows
        assert large.latency.p99 < small.latency.p99 * 4  # log-ish, not 4x


class TestE3PublisherLoad:
    @pytest.mark.slow
    def test_newswire_publisher_load_sublinear(self):
        result = run_e3(sizes=(50, 200), items=5)
        by_system = {}
        for row in result.rows:
            by_system.setdefault(row.system, []).append(row)
        push_growth = (
            by_system["direct-push"][1].publisher_msgs_per_item
            / by_system["direct-push"][0].publisher_msgs_per_item
        )
        newswire_growth = (
            by_system["newswire"][1].publisher_msgs_per_item
            / by_system["newswire"][0].publisher_msgs_per_item
        )
        assert push_growth > 3.0       # ~linear in N (4x nodes)
        assert newswire_growth < 2.0   # ~flat

    @pytest.mark.slow
    def test_newswire_bytes_below_half_of_direct_push(self):
        # At a few hundred nodes the gossip background still outweighs
        # the saving; at 2000 it is under half.
        result = run_e3(sizes=(100, 500, 2000), items=10)
        largest = {
            row.system: row for row in result.rows if row.num_subscribers == 2000
        }
        assert (
            largest["newswire"].publisher_bytes_per_item
            < largest["direct-push"].publisher_bytes_per_item / 2
        )


class TestE4Overload:
    @pytest.mark.slow
    def test_pull_collapses_newswire_survives(self):
        result = run_e4(num_clients=80, items=5, flood_rates=(0.0, 2000.0))
        rows = {(r.system, r.flood_rate): r for r in result.rows}
        pull_attacked = rows[("pull", 2000.0)]
        newswire_attacked = rows[("newswire+pubcrash", 2000.0)]
        assert pull_attacked.delivery_ratio < 0.5
        assert newswire_attacked.delivery_ratio > 0.95
        assert pull_attacked.served_ratio < 0.5
        assert rows[("pull", 0.0)].delivery_ratio > 0.95
        for flood in (0.0, 2000.0):
            assert rows[("newswire+pubcrash", flood)].delivery_ratio > 0.95


class TestE5Bloom:
    def test_fp_rate_drops_with_bits(self):
        rows = run_e5_analytic(
            bit_sizes=(256, 2048), subscription_counts=(200,), probes=1500
        )
        assert rows[0].measured_fp_rate > rows[1].measured_fp_rate

    def test_measured_matches_prediction(self):
        rows = run_e5_analytic(
            bit_sizes=(1024,), subscription_counts=(200,), probes=3000
        )
        row = rows[0]
        assert abs(row.measured_fp_rate - row.predicted_fp_rate) < 0.05
        assert row.measured_fp_rate < 0.25  # "~1000 bits adequate"

    def test_fp_rate_falls_with_bits_at_every_subscription_count(self):
        by_count = {}
        for row in run_e5_analytic():
            by_count.setdefault(row.subscriptions, []).append(row)
        for rows in by_count.values():
            rates = [row.measured_fp_rate for row in sorted(rows, key=lambda r: r.num_bits)]
            assert rates == sorted(rates, reverse=True)

    def test_mask_scheme_exact(self):
        rows = run_e5_system(num_nodes=60, bit_sizes=(64,))
        mask_row = rows[-1]
        assert mask_row.scheme == "mask(§7)"
        assert mask_row.leaf_rejections == 0

    def test_small_bloom_wastes_forwards(self):
        rows = run_e5_system(num_nodes=60, bit_sizes=(64, 1024))
        small, large = rows[0], rows[1]
        assert small.leaf_rejections >= large.leaf_rejections


class TestE6SubscriptionPropagation:
    def test_within_tens_of_seconds(self):
        result = run_e6(sizes=(60,), gossip_intervals=(2.0,), horizon=120.0)
        row = result.rows[0]
        assert row.root_visibility_s is not None
        assert row.root_visibility_s < 60.0
        assert row.first_delivery_s is not None

    @pytest.mark.slow
    def test_slower_gossip_slows_propagation(self):
        result = run_e6(sizes=(100, 500), gossip_intervals=(2.0, 5.0))
        by_interval = {}
        for row in result.rows:
            by_interval.setdefault(row.gossip_interval, []).append(
                row.root_visibility_s
            )
        assert min(by_interval[5.0]) > min(by_interval[2.0])


class TestE7Redundancy:
    def test_more_reps_more_robust(self):
        result = run_e7(
            num_nodes=80, items=5, rep_counts=(1, 3),
            repair_options=(False,), loss_rate=0.08, crash_fraction=0.1,
        )
        one, three = result.rows
        assert three.delivery_ratio >= one.delivery_ratio
        assert three.duplicates_per_delivery > one.duplicates_per_delivery
        assert one.duplicates_per_delivery < 0.05

    def test_repair_lifts_delivery(self):
        result = run_e7(
            num_nodes=80, items=5, rep_counts=(1,),
            repair_options=(False, True), loss_rate=0.08, crash_fraction=0.1,
        )
        off, on = result.rows
        assert on.delivery_ratio >= off.delivery_ratio
        assert on.delivery_ratio > 0.9

    @pytest.mark.slow
    def test_repair_completes_every_level_and_duplicates_grow(self):
        result = run_e7(num_nodes=300, items=10)
        rows = {(row.representatives, row.repair): row for row in result.rows}
        for reps in (1, 2, 3):
            assert rows[(reps, True)].delivery_ratio > 0.97
        assert (
            rows[(3, False)].duplicates_per_delivery
            > rows[(2, False)].duplicates_per_delivery
        )


class TestE8Branching:
    def test_depth_decreases_with_branching(self):
        result = run_e8(num_nodes=128, branchings=(4, 64), items=3,
                        measure_time=30.0)
        assert result.rows[0].depth > result.rows[1].depth

    def test_latency_tracks_depth(self):
        result = run_e8(num_nodes=128, branchings=(4, 64), items=3,
                        measure_time=30.0)
        assert result.rows[0].deliver_p99 > result.rows[1].deliver_p99


class TestE9Queues:
    def test_urgency_first_prioritizes_flashes(self):
        result = run_e9(
            num_nodes=60, items=20,
            strategies=("fifo", "urgency_first"), send_rate=10.0,
        )
        fifo, urgency = result.rows
        assert urgency.urgent_p50 < fifo.urgent_p50

    @pytest.mark.slow
    def test_urgency_first_beats_half_of_fifo(self):
        result = run_e9(num_nodes=200, items=40)
        rows = {row.strategy: row for row in result.rows}
        assert rows["urgency_first"].urgent_p50 < rows["fifo"].urgent_p50 / 2

    @pytest.mark.slow
    def test_all_strategies_deliver_everything(self):
        result = run_e9(num_nodes=60, items=10, send_rate=20.0)
        deliveries = {row.deliveries for row in result.rows}
        assert len(deliveries) == 1  # same workload, same totals
        rows = {row.strategy: row for row in result.rows}
        assert rows["weighted_rr"].all_p50 <= rows["fifo"].all_p50


class TestE10Scoped:
    def test_scope_containment_and_premium(self):
        result = run_e10(num_nodes=120)
        by_case = {row.case.split(":")[0]: row for row in result.rows}
        assert by_case["scoped"].delivered_outside == 0
        assert by_case["scoped"].delivered_inside == by_case["scoped"].expected_receivers
        assert by_case["premium-only"].delivered_outside == 0
        assert (
            by_case["premium-only"].delivered_inside
            == by_case["premium-only"].expected_receivers
        )
        assert by_case["scoped"].forwards < by_case["global"].forwards / 4


class TestE11Partition:
    def test_short_partition_heals_fully(self):
        from repro.experiments.e11_partition import run_e11

        result = run_e11(
            num_nodes=60, durations=(15.0,), buffer_capacities=(64,),
            publish_interval=5.0,
        )
        row = result.rows[0]
        assert row.recovered_ratio > 0.95
        assert row.recovery_time_s is not None

    @pytest.mark.slow
    def test_long_partition_small_buffer_loses_backlog(self):
        from repro.experiments.e11_partition import run_e11

        result = run_e11(
            num_nodes=60, durations=(90.0,), buffer_capacities=(8, 128),
            publish_interval=4.0,
        )
        small, large = result.rows
        assert small.recovered_ratio < large.recovered_ratio
        assert large.recovered_ratio > 0.95


class TestE4Physical:
    @pytest.mark.slow
    def test_delivery_survives_physically_saturated_downlink(self):
        from repro.experiments.e4_overload import run_e4_physical

        row = run_e4_physical(num_nodes=100, items=5)
        assert row.delivery_ratio > 0.95
        assert row.latency_p90 < 5.0
