"""E7 — redundant representatives & repair (paper §9, §5).

Claim: "we use multiple representatives to forward a new item, to
increase the robustness of the delivery" (duplicates removed via item
ids), and the §5 note that the protocol "should have many of the
properties of Bimodal Multicast" (epidemic repair).

Setup: a lossy network plus random crashes *during* dissemination.
Swept: representatives used per forward (k = 1, 2, 3) × repair on/off.
Measured: delivery ratio, duplicate suppression overhead
(dup-dropped per delivery), and repair contribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.config import MulticastConfig, NewsWireConfig
from repro.experiments.common import (
    drive_trace,
    validate_fraction,
    validate_positive,
    validate_seed,
    validate_sizes,
)
from repro.experiments.registry import SweepCell, register
from repro.obs.collectors import delivery_ratio
from repro.obs.stats import format_table
from repro.news.deployment import build_newswire
from repro.workloads.populations import InterestModel
from repro.workloads.scenarios import TECH_CATEGORIES, subjects_for
from repro.workloads.traces import Publication


@dataclass(frozen=True)
class E7Row:
    representatives: int
    repair: bool
    loss_rate: float
    crash_fraction: float
    delivery_ratio: float
    duplicates_per_delivery: float
    repair_deliveries: int


@dataclass
class E7Result:
    rows: list[E7Row]

    def report(self) -> str:
        return format_table(
            ["reps", "repair", "loss", "crashes", "delivery ratio",
             "dups/delivery", "repaired"],
            [
                (r.representatives, "on" if r.repair else "off", r.loss_rate,
                 r.crash_fraction, r.delivery_ratio,
                 r.duplicates_per_delivery, r.repair_deliveries)
                for r in self.rows
            ],
            title=(
                "E7: redundant representatives + bimodal repair vs loss/crashes "
                "(paper §9: redundancy increases robustness; dups removed by id)"
            ),
        )


def run_e7_cell(
    *,
    num_nodes: int = 300,
    items: int = 10,
    reps: int = 1,
    repair: bool = False,
    loss_rate: float = 0.05,
    crash_fraction: float = 0.10,
    seed: int = 0,
) -> E7Row:
    """One (representatives, repair) combination of the E7 sweep.

    Builds its own system from the shared seed, so combinations are
    independent — the unit the parallel executor fans out."""
    subjects = subjects_for(("newswire",), TECH_CATEGORIES)
    config = NewsWireConfig(
        multicast=MulticastConfig(
            representatives=max(3, reps),
            send_to_representatives=reps,
            repair_enabled=repair,
            repair_interval=3.0,
        )
    )
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
        loss_rate=loss_rate,
    )
    system.run_for(2 * config.gossip.interval)
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
    if crash_fraction > 0:
        # Crash forwarders mid-dissemination; they stay down.
        system.deployment.failures.crash_fraction(
            start + 0.05, system.nodes[1:], crash_fraction
        )
    system.sim.run_until(start + items * 1.0 + 60.0)

    # Crashed nodes cannot deliver; expectation covers survivors.
    crashed = {str(n.node_id) for n in system.nodes if n.crashed}
    expected = _adjust_for_crashes(
        interests, num_nodes, trace, "newswire", crashed, system
    )
    deliveries = system.trace.count("deliver")
    dups = system.trace.count("dup-dropped")
    return E7Row(
        representatives=reps,
        repair=repair,
        loss_rate=loss_rate,
        crash_fraction=crash_fraction,
        delivery_ratio=delivery_ratio(system.trace, expected),
        duplicates_per_delivery=dups / deliveries if deliveries else 0.0,
        repair_deliveries=system.trace.count("repair-delivered"),
    )


def _e7_cells(kwargs: dict) -> list[SweepCell]:
    """One cell per (representatives, repair) combination."""
    cells = []
    for reps in kwargs["rep_counts"]:
        for repair in kwargs["repair_options"]:
            cells.append(
                SweepCell(
                    index=len(cells),
                    label=f"reps={reps},repair={'on' if repair else 'off'}",
                    runner=run_e7_cell,
                    kwargs={
                        "num_nodes": kwargs["num_nodes"],
                        "items": kwargs["items"],
                        "reps": reps,
                        "repair": bool(repair),
                        "loss_rate": kwargs["loss_rate"],
                        "crash_fraction": kwargs["crash_fraction"],
                        "seed": kwargs["seed"],
                    },
                )
            )
    return cells


def _e7_merge(kwargs: dict, results: list) -> "E7Result":
    return E7Result(list(results))


@register(
    "e7",
    claim=(
        '"we use multiple representatives to forward a new item, to '
        'increase the robustness of the delivery" + epidemic repair'
    ),
    quick={"num_nodes": 120, "items": 5},
    cells=_e7_cells,
    merge=_e7_merge,
)
def run_e7(
    *,
    num_nodes: int = 300,
    items: int = 10,
    rep_counts: Sequence[int] = (1, 2, 3),
    repair_options: Sequence[bool] = (False, True),
    loss_rate: float = 0.05,
    crash_fraction: float = 0.10,
    seed: int = 0,
) -> E7Result:
    validate_positive("num_nodes", num_nodes)
    validate_positive("items", items)
    validate_sizes("rep_counts", rep_counts)
    validate_fraction("loss_rate", loss_rate)
    validate_fraction("crash_fraction", crash_fraction)
    validate_seed(seed)
    rows = [
        run_e7_cell(
            num_nodes=num_nodes,
            items=items,
            reps=reps,
            repair=repair,
            loss_rate=loss_rate,
            crash_fraction=crash_fraction,
            seed=seed,
        )
        for reps in rep_counts
        for repair in repair_options
    ]
    return E7Result(rows)


def _adjust_for_crashes(
    interests: InterestModel,
    num_nodes: int,
    trace: Sequence[Publication],
    publisher: str,
    crashed: set[str],
    system,
) -> dict[str, int]:
    """Expected deliveries counting only nodes that stayed up."""
    alive_indices = [
        index
        for index, node in enumerate(system.nodes)
        if str(node.node_id) not in crashed
    ]
    expected: dict[str, int] = {}
    from repro.core.identifiers import ItemId

    by_subject: dict[str, int] = {}
    for serial, publication in enumerate(trace, start=1):
        count = by_subject.get(publication.subject)
        if count is None:
            count = sum(
                1
                for index in alive_indices
                if any(
                    s.subject == publication.subject
                    for s in interests.subscriptions_for(index)
                )
            )
            by_subject[publication.subject] = count
        expected[str(ItemId(publisher, serial))] = count
    return expected


if __name__ == "__main__":
    print(run_e7().report())
