"""E12 — adaptive routing schemes under churn (paper §6–§7, §10).

The paper sizes one flat Bloom summary for the whole population (§6)
and leaves richer routing to future work (§7).  E12 compares the
forwarding schemes on three fronts, all under the same workload, the
same interest churn storm, and — for the stabilizing variants — the
same summary-corruption attack (docs/ROUTING.md):

* **false positives**: forwards into subtrees with no true subscriber
  and leaf-level rejections — the waste subgrouping exists to cut;
* **redundancy / latency**: duplicate copies dropped and mean
  publish→deliver latency — the cost side of the ledger;
* **stabilization**: repair rounds fired and end-of-run divergence
  between exported summaries and subscription ground truth — the
  reconvergence contract after corruption.

Every scheme runs the identical seeded scenario, so rows differ only
by the scheme under test; deliveries must agree wherever the
zero-false-negative property holds (tests/pubsub pin this).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.core.config import BloomConfig, NewsWireConfig
from repro.obs.causal import CausalSink, format_causal_report
from repro.obs.sinks import MemorySink, TraceSink
from repro.obs.stats import format_table
from repro.pubsub.engine import build_pubsub
from repro.pubsub.schemes import (
    BloomScheme,
    StabilizingScheme,
    SubgroupScheme,
    SubscriptionScheme,
)
from repro.workloads.populations import InterestModel
from repro.experiments.common import validate_seed
from repro.experiments.registry import SweepCell, register

#: The scheme ladder E12 sweeps, flat baselines first.
E12_SCHEMES: tuple[str, ...] = (
    "bloom",
    "subgroup",
    "stabilizing-bloom",
    "stabilizing-subgroup",
)


def _scheme_instance(name: str, config: NewsWireConfig) -> SubscriptionScheme:
    if name == "bloom":
        return BloomScheme(config.bloom)
    if name == "subgroup":
        return SubgroupScheme(config.bloom)
    if name == "stabilizing-bloom":
        return StabilizingScheme(BloomScheme(config.bloom))
    if name == "stabilizing-subgroup":
        return StabilizingScheme(SubgroupScheme(config.bloom))
    raise ValueError(f"unknown scheme {name!r}; choose from {E12_SCHEMES}")


@dataclass(frozen=True)
class E12Row:
    scheme: str
    forwards: int
    filtered: int
    leaf_rejections: int       # arrivals the leaf's final test refused (FPs)
    deliveries: int
    duplicates: int            # redundant copies dropped before the app
    mean_latency: float        # publish -> deliver, seconds
    resubscriptions: int       # churn swaps applied
    corruptions: int
    repairs: int
    diverged: int              # nodes whose summary != ground truth at end
    wasted_forward_ratio: float


@dataclass
class E12Result:
    rows: list[E12Row]
    #: Rendered causal report per scheme (only with ``report=True``).
    causal_reports: list[str] = field(default_factory=list)

    def _row(self, scheme: str) -> Optional[E12Row]:
        for row in self.rows:
            if row.scheme == scheme:
                return row
        return None

    def report(self) -> str:
        table = format_table(
            ["scheme", "forwards", "filtered", "leaf FPs", "deliveries",
             "dups", "latency", "resubs", "corrupt", "repairs", "diverged",
             "wasted fwd"],
            [
                (r.scheme, r.forwards, r.filtered, r.leaf_rejections,
                 r.deliveries, r.duplicates, r.mean_latency,
                 r.resubscriptions, r.corruptions, r.repairs, r.diverged,
                 r.wasted_forward_ratio)
                for r in self.rows
            ],
            title=(
                "E12: forwarding schemes under churn + corruption "
                "(docs/ROUTING.md)"
            ),
        )
        sections = [table]
        flat, grouped = self._row("bloom"), self._row("subgroup")
        if flat and grouped:
            sections.append(
                f"subgroup vs flat bloom: leaf false positives "
                f"{flat.leaf_rejections} -> {grouped.leaf_rejections}, "
                f"forwards {flat.forwards} -> {grouped.forwards}, "
                f"deliveries {flat.deliveries} vs {grouped.deliveries} "
                f"(equal redundancy config; zero false negatives)"
            )
        stabilized = [r for r in self.rows if r.scheme.startswith("stabilizing")]
        if stabilized:
            sections.append(
                "stabilization: "
                + "; ".join(
                    f"{r.scheme} repaired {r.repairs} summaries after "
                    f"{r.corruptions} corruptions, {r.diverged} diverged at end"
                    for r in stabilized
                )
            )
        for text in self.causal_reports:
            sections.append(text)
        return "\n\n".join(sections)


def run_e12_cell(
    *,
    scheme: str,
    num_nodes: int = 96,
    num_subjects: int = 64,
    subscriptions_per_node: int = 2,
    churn_rate: float = 4.0,
    churn_duration: float = 10.0,
    corrupt_fraction: float = 0.25,
    num_bits: int = 64,
    num_hashes: int = 2,
    seed: int = 0,
    sinks: Optional[Sequence[TraceSink]] = None,
    report: bool = False,
) -> tuple[E12Row, Optional[str]]:
    """One scheme under the shared scenario — the parallel-executor unit.
    Returns the measurement row plus a rendered causal report (None
    unless ``report``).

    The Bloom geometry is deliberately tight (``num_bits``) with k=2
    hashes: the cross-member false positive subgrouping exists to cut
    — bit i set by one subscriber, bit j by another, their union
    spuriously "containing" a subject nobody asked for — requires
    multi-bit masks, and the paper's k=1 single-bit hash makes every
    zone test equivalent under any partition of the membership.

    Three acts: a pre-churn publish round over every subject, a churn
    storm (plus, for stabilizing schemes only, a mid-storm corruption
    of ``corrupt_fraction`` of the population — corrupting a flat
    scheme would just permanently poison its routing state and measure
    nothing), then a settle window covering several refresh intervals
    and a post-churn publish round.
    """
    publishers = ("reuters", "nytimes")
    categories = tuple(f"cat{i}" for i in range(max(1, num_subjects // 2)))
    subjects = [f"{p}/{c}" for p in publishers for c in categories]
    config = NewsWireConfig(
        branching_factor=8,
        bloom=BloomConfig(num_bits=num_bits, num_hashes=num_hashes),
    )
    the_scheme = _scheme_instance(scheme, config)
    cell_sinks: list[TraceSink] = [
        MemorySink(), *(sinks if sinks is not None else ())
    ]
    causal: Optional[CausalSink] = None
    if report:
        causal = CausalSink()
        cell_sinks.append(causal)
    interests = InterestModel(
        subjects=subjects,
        subscriptions_per_node=subscriptions_per_node,
        seed=seed,
    )
    deployment = build_pubsub(
        num_nodes,
        config,
        scheme=the_scheme,
        subscriptions_for=interests.subscriptions_for,
        seed=seed,
        sinks=cell_sinks,
    )
    deployment.run_rounds(2)
    publisher_node = deployment.agents[0]

    def publish_round(tag: str) -> None:
        for subject in subjects:
            publisher_node.publish(
                subject, {tag: subject}, publisher=subject.split("/")[0]
            )

    publish_round("h1")
    deployment.sim.run_for(15.0)

    injector = deployment.failures
    storm_start = deployment.sim.now
    injector.churn_storm(
        storm_start, deployment.agents, churn_rate, churn_duration, subjects
    )
    if the_scheme.stabilizes and corrupt_fraction > 0:
        rng = random.Random(f"e12-corrupt-{seed}")
        count = min(max(1, int(num_nodes * corrupt_fraction)), num_nodes - 1)
        for index in sorted(rng.sample(range(1, num_nodes), count)):
            injector.corrupt_summary_at(
                storm_start + churn_duration / 2, deployment.agents[index]
            )
    # Settle long enough for several refresh rounds (default interval
    # 5s) plus gossip re-aggregation before measuring the second round.
    deployment.sim.run_for(churn_duration + 25.0)
    publish_round("h2")
    deployment.sim.run_for(15.0)

    trace = deployment.trace
    publish_times = {
        event["item"]: event.time for event in trace.events("publish")
    }
    latencies = [
        event.time - publish_times[event["item"]]
        for event in trace.events("deliver")
        if event["item"] in publish_times
    ]
    diverged = 0
    for node in deployment.agents:
        exported = {
            attr: node.get_attribute(attr)
            for attr in node.scheme.summary_attributes()
        }
        if not node.scheme.summary_matches(
            exported, node.subscriptions, str(node.node_id)
        ):
            diverged += 1
    forwards = trace.count("forward")
    rejected = trace.count("rejected")
    causal_text = None
    if causal is not None:
        causal_text = (
            f"--- causal report ({scheme}) ---\n" + format_causal_report(causal)
        )
    row = E12Row(
        scheme=scheme,
        forwards=forwards,
        filtered=trace.count("filtered"),
        leaf_rejections=rejected,
        deliveries=trace.count("deliver"),
        duplicates=trace.count("dup-dropped"),
        mean_latency=(
            round(sum(latencies) / len(latencies), 4) if latencies else 0.0
        ),
        resubscriptions=trace.count("resubscribe"),
        corruptions=trace.count("summary-corrupt"),
        repairs=trace.count("summary-repair"),
        diverged=diverged,
        wasted_forward_ratio=(
            round(rejected / forwards, 4) if forwards else 0.0
        ),
    )
    return row, causal_text


def _cell_kwargs(kwargs: dict) -> dict:
    passthrough = (
        "num_nodes",
        "num_subjects",
        "subscriptions_per_node",
        "churn_rate",
        "churn_duration",
        "corrupt_fraction",
        "num_bits",
        "num_hashes",
        "seed",
        "sinks",
        "report",
    )
    return {key: kwargs[key] for key in passthrough if key in kwargs}


def _e12_cells(kwargs: dict) -> list[SweepCell]:
    shared = _cell_kwargs(kwargs)
    # Causal sinks aren't picklable across workers; the serial path
    # still renders them.
    shared.pop("sinks", None)
    shared.pop("report", None)
    return [
        SweepCell(
            index=index,
            label=f"scheme:{name}",
            runner=run_e12_cell,
            kwargs={"scheme": name, **shared},
        )
        for index, name in enumerate(E12_SCHEMES)
    ]


def _e12_merge(kwargs: dict, results: list) -> "E12Result":
    return E12Result(
        rows=[row for row, _ in results],
        causal_reports=[text for _, text in results if text],
    )


@register(
    "e12",
    claim=(
        '"more complex selection criteria" (§7) + "robust against node '
        'failure" (§10) — subgroup summaries cut false-positive '
        "forwarding; stabilizing refresh reconverges routing state "
        "after corruption"
    ),
    quick={
        "num_nodes": 48,
        "churn_rate": 2.0,
        "churn_duration": 6.0,
    },
    cells=_e12_cells,
    merge=_e12_merge,
)
def run_e12(
    *,
    num_nodes: int = 96,
    num_subjects: int = 64,
    subscriptions_per_node: int = 2,
    churn_rate: float = 4.0,
    churn_duration: float = 10.0,
    corrupt_fraction: float = 0.25,
    num_bits: int = 64,
    num_hashes: int = 2,
    seed: int = 0,
    sinks: Optional[Sequence[TraceSink]] = None,
    report: bool = False,
) -> E12Result:
    validate_seed(seed)
    kwargs = _cell_kwargs(locals())
    rows: list[E12Row] = []
    causal_reports: list[str] = []
    for name in E12_SCHEMES:
        row, causal_text = run_e12_cell(scheme=name, **kwargs)
        rows.append(row)
        if causal_text:
            causal_reports.append(causal_text)
    return E12Result(rows=rows, causal_reports=causal_reports)


if __name__ == "__main__":
    print(run_e12().report())
