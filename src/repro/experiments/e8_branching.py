"""E8 — zone branching factor ablation (paper §3).

Claim context: "Each of these tables is limited to some small size
(say, 64 rows); thus the hierarchy may be several levels deep."  The
paper never justifies 64; this ablation shows the trade-off it sits
on: small zones → deep trees → more forwarding hops and higher
latency; large zones → shallow trees but bigger tables → more gossip
bytes per round and larger per-zone state.

Fixed N; branching factor swept.  Measured: hierarchy depth, per-node
gossip traffic, multicast delivery latency, and forwarding hops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.config import NewsWireConfig
from repro.experiments.common import (
    drive_trace,
    validate_positive,
    validate_seed,
    validate_sizes,
)
from repro.experiments.registry import register
from repro.obs.collectors import delivery_latencies
from repro.obs.stats import Summary, format_table
from repro.news.deployment import build_newswire
from repro.workloads.populations import InterestModel
from repro.workloads.scenarios import TECH_CATEGORIES, subjects_for
from repro.workloads.traces import Publication


@dataclass(frozen=True)
class E8Row:
    branching: int
    depth: int
    gossip_bytes_per_node_per_s: float
    deliver_p50: float
    deliver_p99: float
    forwards_per_item: float


@dataclass
class E8Result:
    rows: list[E8Row]

    def report(self) -> str:
        return format_table(
            ["branching", "depth", "gossip B/node/s", "deliver p50 (s)",
             "deliver p99 (s)", "forwards/item"],
            [
                (r.branching, r.depth, r.gossip_bytes_per_node_per_s,
                 r.deliver_p50, r.deliver_p99, r.forwards_per_item)
                for r in self.rows
            ],
            title=(
                "E8: branching-factor trade-off at fixed N "
                "(paper picks 64-row zone tables)"
            ),
        )


@register(
    "e8",
    claim=(
        '"Each of these tables is limited to some small size (say, 64 '
        'rows)" — branching-factor ablation'
    ),
    quick={"num_nodes": 128, "branchings": (4, 64), "items": 3,
           "measure_time": 30.0},
)
def run_e8(
    *,
    num_nodes: int = 512,
    branchings: Sequence[int] = (4, 8, 16, 64),
    items: int = 5,
    measure_time: float = 60.0,
    seed: int = 0,
) -> E8Result:
    validate_positive("num_nodes", num_nodes)
    validate_sizes("branchings", branchings)
    validate_positive("items", items)
    validate_positive("measure_time", measure_time)
    validate_seed(seed)
    subjects = subjects_for(("newswire",), TECH_CATEGORIES)
    rows: list[E8Row] = []
    for branching in branchings:
        config = NewsWireConfig(branching_factor=branching)
        interests = InterestModel(
            subjects=subjects, subscriptions_per_node=3, seed=seed
        )
        system = build_newswire(
            num_nodes,
            config,
            publisher_names=("newswire",),
            publisher_rate=50.0,
            subscriptions_for=interests.subscriptions_for,
            seed=seed,
        )
        depth = max(node.node_id.depth for node in system.nodes)
        system.run_for(2 * config.gossip.interval)
        system.network.reset_node_stats()
        start = system.sim.now
        trace = [
            Publication(
                time=start + index * 1.0,
                subject=subjects[index % len(subjects)],
                headline=f"story {index}",
                body_words=120,
            )
            for index in range(items)
        ]
        drive_trace(system, "newswire", trace)
        system.sim.run_until(start + measure_time)

        total_bytes = sum(
            system.network.node_stats(node.node_id).sent_bytes
            for node in system.nodes
        )
        latencies = delivery_latencies(system.trace)
        rows.append(
            E8Row(
                branching=branching,
                depth=depth,
                gossip_bytes_per_node_per_s=total_bytes / num_nodes / measure_time,
                deliver_p50=Summary.of(latencies).p50 if latencies else 0.0,
                deliver_p99=Summary.of(latencies).p99 if latencies else 0.0,
                forwards_per_item=system.trace.count("forward") / items,
            )
        )
    return E8Result(rows)


if __name__ == "__main__":
    print(run_e8().report())
