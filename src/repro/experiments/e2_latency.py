"""E2 — delivery latency vs system size (abstract, §9).

Claim: "deliver news updates to hundreds of thousands of subscribers
within tens of seconds of the moment of publishing"; §9: "in the order
of tens of seconds, even if tens or hundreds of thousands of
subscribers are active".

Setup: NewsWire populations of increasing size, Zipf interests over
tech subjects, hierarchical (zone-distance) latency.  After the
population converges, a publisher injects items; we record the full
publish→deliver latency distribution and the delivery ratio.

What to expect: dissemination is a recursion over a tree of depth
O(log_b N) with per-hop forwarding-queue and WAN delays, so latency
grows logarithmically — comfortably inside "tens of seconds" at any
simulated size — while the *subscription* state that routes it takes
tens of seconds to converge (that path is measured separately in E6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.config import NewsWireConfig
from repro.core.errors import ConfigurationError
from repro.experiments.common import (
    SystemSpec,
    build_system,
    drive_trace,
    expected_deliveries,
    expected_delivery_nodes,
    validate_non_negative,
    validate_positive,
    validate_seed,
    validate_sizes,
)
from repro.experiments.registry import SweepCell, register
from repro.obs.causal import CausalSink, format_causal_report
from repro.obs.collectors import collect_delivery_stats, delivery_ratio
from repro.obs.metrics import MetricsRegistry
from repro.obs.sinks import MemorySink, StreamingSink, TraceSink
from repro.obs.stats import Summary, format_table
from repro.workloads.scenarios import TECH_CATEGORIES, subjects_for
from repro.workloads.traces import Publication

#: At or above this population, ``sink="auto"`` switches the per-size
#: primary sink from a retained-event MemorySink to a bounded-memory
#: StreamingSink (exact counts, bucket-approximate percentiles).
#: Documented default — docs/SCALE.md and ``--sink`` in the CLI.
STREAMING_NODE_THRESHOLD = 10_000


@dataclass(frozen=True)
class E2Row:
    num_nodes: int
    items: int
    expected: int
    delivered: int
    ratio: float
    latency: Summary


@dataclass
class E2Result:
    rows: list[E2Row]
    #: str(num_nodes) -> CausalSink.summary() when run with report=True
    #: (what the run manifest stores under ``extra.causal``).
    causal: Optional[dict] = None
    #: Rendered causal report per sweep size, same order as ``rows``.
    causal_text: Optional[list[str]] = None

    def report(self) -> str:
        table = format_table(
            ["nodes", "items", "expected", "delivered", "ratio",
             "lat p50 (s)", "lat p90 (s)", "lat p99 (s)", "lat max (s)"],
            [
                (
                    row.num_nodes,
                    row.items,
                    row.expected,
                    row.delivered,
                    row.ratio,
                    row.latency.p50,
                    row.latency.p90,
                    row.latency.p99,
                    row.latency.maximum,
                )
                for row in self.rows
            ],
            title=(
                "E2: delivery latency vs population size "
                "(paper claims tens of seconds at 10^5 subscribers)"
            ),
        )
        if not self.causal_text:
            return table
        sections = [table]
        for row, text in zip(self.rows, self.causal_text):
            sections.append(f"--- causal report ({row.num_nodes} nodes) ---")
            sections.append(text)
        return "\n\n".join(sections)


def _e2_cells(kwargs: dict) -> list[SweepCell]:
    """One cell per population size.

    Each sweep iteration in :func:`run_e2` builds a fresh system from
    ``seed + num_nodes`` with a fixed interest seed, so the sizes are
    fully independent: running each as its own single-size ``run_e2``
    call reproduces the serial rows byte-for-byte.
    """
    cells = []
    for index, num_nodes in enumerate(kwargs["sizes"]):
        cell_kwargs = dict(kwargs)
        cell_kwargs["sizes"] = (num_nodes,)
        cells.append(
            SweepCell(
                index=index,
                label=f"nodes={num_nodes}",
                runner=run_e2,
                kwargs=cell_kwargs,
            )
        )
    return cells


def _e2_merge(kwargs: dict, results: list) -> "E2Result":
    rows = [row for result in results for row in result.rows]
    if not kwargs.get("report"):
        return E2Result(rows)
    causal: dict = {}
    causal_texts: list[str] = []
    for result in results:
        causal.update(result.causal or {})
        causal_texts.extend(result.causal_text or [])
    return E2Result(rows, causal=causal, causal_text=causal_texts)


@register(
    "e2",
    claim=(
        '"deliver news updates to hundreds of thousands of subscribers '
        'within tens of seconds of the moment of publishing" — latency '
        "vs population size"
    ),
    quick={"sizes": (100, 400), "items": 3},
    cells=_e2_cells,
    merge=_e2_merge,
)
def run_e2(
    *,
    sizes: Sequence[int] = (100, 500, 2000),
    items: int = 5,
    item_spacing: float = 1.0,
    subscriptions_per_node: int = 3,
    settle_rounds: float = 3.0,
    drain_time: float = 30.0,
    seed: int = 0,
    config: Optional[NewsWireConfig] = None,
    sinks: Optional[Sequence[TraceSink]] = None,
    metrics: Optional[MetricsRegistry] = None,
    report: bool = False,
    backend: str = "object",
    sink: str = "auto",
) -> E2Result:
    """``backend`` selects the state representation ("object" or the
    mega-scale "columnar", docs/SCALE.md).  ``sink`` picks the per-size
    *primary* sink: "memory" retains events, "streaming" folds them
    into bounded aggregates, and the default "auto" uses memory below
    ``STREAMING_NODE_THRESHOLD`` nodes and streaming at or above it.
    Defaults reproduce the historical (golden-pinned) rows exactly.
    """
    validate_sizes("sizes", sizes)
    validate_positive("items", items)
    validate_positive("item_spacing", item_spacing)
    validate_positive("subscriptions_per_node", subscriptions_per_node)
    validate_non_negative("settle_rounds", settle_rounds)
    validate_non_negative("drain_time", drain_time)
    validate_seed(seed)
    if sink not in ("auto", "memory", "streaming"):
        raise ConfigurationError(
            f"sink must be 'auto', 'memory' or 'streaming', got {sink!r}"
        )
    subjects = subjects_for(("newswire",), TECH_CATEGORIES)
    rows: list[E2Row] = []
    causal_summaries: dict = {}
    causal_texts: list[str] = []
    for num_nodes in sizes:
        cfg = config if config is not None else NewsWireConfig()
        # Each size gets its own fresh *primary* MemorySink: the row
        # stats must cover only this size's events.  Caller sinks are
        # fanned out to as well (they observe the whole sweep), but a
        # shared caller MemorySink must never be the stats source — it
        # would bleed the previous size's deliveries into this size's
        # latency summary.  The causal sink is also per size: item
        # keys repeat across sizes (same publisher, serials restart),
        # so a shared sink would merge trees from different
        # populations.  Sinks are transparent, so attaching one cannot
        # change rows.
        causal: Optional[CausalSink] = None
        use_streaming = sink == "streaming" or (
            sink == "auto" and num_nodes >= STREAMING_NODE_THRESHOLD
        )
        primary: TraceSink = StreamingSink() if use_streaming else MemorySink()
        size_sinks: list[TraceSink] = [
            primary, *(sinks if sinks is not None else ())
        ]
        if report:
            causal = CausalSink()
            size_sinks.append(causal)
        # The per-size deployment seed varies while the interest seed
        # stays fixed — the historical (golden-fingerprinted) pattern.
        system, interests = build_system(
            SystemSpec(
                num_nodes=num_nodes,
                subjects=subjects,
                subscriptions_per_node=subscriptions_per_node,
                seed=seed + num_nodes,
                interest_seed=seed,
                publisher_names=("newswire",),
                publisher_rate=50.0,
                config=cfg,
                sinks=size_sinks,
                metrics=metrics,
                backend=backend,
            )
        )
        system.run_for(settle_rounds * cfg.gossip.interval)
        start = system.sim.now
        trace = [
            Publication(
                time=start + index * item_spacing,
                subject=subjects[index % len(subjects)],
                headline=f"story {index}",
                body_words=200,
            )
            for index in range(items)
        ]
        drive_trace(system, "newswire", trace)
        system.sim.run_until(start + items * item_spacing + drain_time)

        expected = expected_deliveries(interests, num_nodes, trace, "newswire")
        # One shared trace pass: latencies, per-item counts and the
        # delivery ratio all come out of the same scan.
        stats = collect_delivery_stats(system.trace)
        rows.append(
            E2Row(
                num_nodes=num_nodes,
                items=items,
                expected=sum(expected.values()),
                delivered=system.trace.count("deliver"),
                ratio=delivery_ratio(system.trace, expected, stats=stats),
                latency=stats.summary,
            )
        )
        if causal is not None:
            for item, nodes in expected_delivery_nodes(
                interests, system, trace, "newswire"
            ).items():
                causal.expect(item, nodes)
            causal_summaries[str(num_nodes)] = causal.summary()
            causal_texts.append(format_causal_report(causal))
    if not report:
        return E2Result(rows)
    return E2Result(rows, causal=causal_summaries, causal_text=causal_texts)


if __name__ == "__main__":
    print(run_e2().report())
