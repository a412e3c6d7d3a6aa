"""Columnar ↔ object backend equivalence — the contract that makes
columnar numbers at 100k nodes speak for the object protocol.

A fixed-seed run must produce the same *canonical trace* — sorted
publish tuples and sorted ``(item, node)`` delivery pairs — on either
backend, and the invariant suite must reach the same verdicts.  The
digests are additionally pinned as hex constants (the golden): if
either backend legitimately changes semantics, re-capture both and
document why they still agree.

Also pins the satellite guarantees of the same PR: the precomputed
RNG substream table is byte-identical to per-call derivation, and
attaching the invariant suite to a columnar run is transparent
(PR 9's suite-transparency pin, extended to the new backend).
"""

import hashlib
import json

import pytest

from repro.experiments.e2_latency import run_e2
from repro.experiments.e6_subscription import run_e6
from repro.obs.sinks import MemorySink, StreamingSink
from repro.pubsub.subscription import Subscription
from repro.scale.backend import build_columnar, canonical_digest, canonical_trace
from repro.sim.rng import derive_substream, substream_table
from repro.testkit.invariants import InvariantSuite
from repro.workloads.populations import InterestModel


def canonical(sink: MemorySink) -> str:
    publishes = sorted(
        (e["item"], e["node"], e["subject"])
        for e in sink.events
        if e.kind == "publish"
    )
    delivers = sorted(
        (e["item"], e["node"]) for e in sink.events if e.kind == "deliver"
    )
    doc = {"publish": publishes, "deliver": delivers}
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode("utf-8")
    ).hexdigest()


E2_SMALL_KWARGS = dict(
    sizes=(48,),
    items=3,
    item_spacing=1.0,
    subscriptions_per_node=2,
    settle_rounds=2.0,
    drain_time=20.0,
    seed=11,
)
E2_SMALL_DIGEST = (
    "ad29cb8411cd84cd98c2a51435303820c7742de9d28a0821c31644fa3ecd117c"
)

E2_MEDIUM_KWARGS = dict(
    sizes=(96,),
    items=4,
    item_spacing=1.0,
    subscriptions_per_node=3,
    settle_rounds=3.0,
    drain_time=25.0,
    seed=5,
)
E2_MEDIUM_DIGEST = (
    "b111cfebdcd9dbb063250fb8ccbf524f437dd7c4f583089c7aaebbb1c35f1a60"
)


class TestE2Equivalence:
    @pytest.mark.parametrize(
        "kwargs,pinned",
        [
            (E2_SMALL_KWARGS, E2_SMALL_DIGEST),
            (E2_MEDIUM_KWARGS, E2_MEDIUM_DIGEST),
        ],
        ids=["small-48", "medium-96"],
    )
    def test_canonical_trace_byte_identical(self, kwargs, pinned):
        digests = {}
        fingerprints = {}
        for backend in ("object", "columnar"):
            sink = MemorySink()
            result = run_e2(sinks=[sink], backend=backend, **kwargs)
            digests[backend] = canonical(sink)
            row = result.rows[0]
            fingerprints[backend] = (row.expected, row.delivered, row.ratio)
        assert digests["object"] == digests["columnar"] == pinned
        assert fingerprints["object"] == fingerprints["columnar"]

    def test_invariant_verdicts_identical(self):
        verdicts = {}
        for backend in ("object", "columnar"):
            suite = InvariantSuite()
            run_e2(sinks=[suite], backend=backend, **E2_SMALL_KWARGS)
            verdicts[backend] = [str(v) for v in suite.finalize(None)]
        assert verdicts["object"] == verdicts["columnar"] == []

    def test_suite_attachment_is_transparent_on_columnar(self):
        """PR 9's transparency pin, extended: the full invariant suite
        riding along cannot perturb a columnar fixed-seed run."""
        bare = MemorySink()
        run_e2(sinks=[bare], backend="columnar", **E2_SMALL_KWARGS)
        observed = MemorySink()
        run_e2(
            sinks=[observed, InvariantSuite()],
            backend="columnar",
            **E2_SMALL_KWARGS,
        )
        assert canonical(bare) == canonical(observed) == E2_SMALL_DIGEST

    def test_streaming_sink_preserves_counts(self):
        """sink="streaming" changes retention, never results: exact
        per-item counts and the delivery total match the memory run."""
        memory_rows = run_e2(
            sink="memory", backend="columnar", **E2_SMALL_KWARGS
        ).rows
        stream = StreamingSink()
        streaming_rows = run_e2(
            sink="streaming",
            backend="columnar",
            sinks=[stream],
            **E2_SMALL_KWARGS,
        ).rows
        assert memory_rows[0].delivered == streaming_rows[0].delivered
        assert memory_rows[0].ratio == streaming_rows[0].ratio
        assert stream.retained_events == 0


class TestE6Equivalence:
    def test_verdicts_agree_at_small_n(self):
        """Both backends must reach root visibility and deliver to the
        new subscriber within the horizon; the deliver/publish *sets*
        for the fresh item are identical (only the subscriber gets it).
        """
        rows = {}
        for backend in ("object", "columnar"):
            result = run_e6(
                sizes=(100,), gossip_intervals=(2.0,), seed=0, backend=backend
            )
            rows[backend] = result.rows[0]
        for backend, row in rows.items():
            assert row.root_visibility_s is not None, backend
            assert row.first_delivery_s is not None, backend
            assert row.root_visibility_s < 60.0
            assert row.first_delivery_s < 10.0


class TestCanonicalHelpers:
    def test_canonical_digest_matches_trace(self):
        system = build_columnar(
            48,
            subscriptions_for=lambda i: [Subscription(f"news/t{i % 3}")],
            seed=11,
        )
        system.run_for(2.0)
        system.publisher("newswire").publish_news("news/t1", "hello")
        system.run_for(20.0)
        doc = canonical_trace(system.trace)
        assert doc["publish_count"] == 1
        assert doc["deliver_count"] == len(doc["deliver"]) == 16
        payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        assert (
            canonical_digest(system.trace)
            == hashlib.sha256(payload.encode()).hexdigest()
        )


class TestSubstreamTable:
    def test_table_matches_per_call_derivation(self):
        for seed in (0, 11, 2**63):
            assert substream_table(seed, 200) == [
                derive_substream(seed, index) for index in range(200)
            ]

    def test_prepared_interest_model_draws_identically(self):
        subjects = [f"s/{i}" for i in range(20)]
        prepared = InterestModel(
            subjects=subjects, subscriptions_per_node=3, seed=7
        )
        prepared.prepare(500)
        lazy = InterestModel(
            subjects=subjects, subscriptions_per_node=3, seed=7
        )
        for index in (0, 1, 17, 499, 500, 10_000):
            # Indices beyond the prepared range fall back to per-call
            # derivation and must still agree.
            assert prepared.subscriptions_for(index) == lazy.subscriptions_for(
                index
            )
