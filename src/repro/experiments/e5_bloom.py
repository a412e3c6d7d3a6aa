"""E5 — Bloom-filter sizing (paper §6–§7).

Claims: "we can use a large single bit array in the order of a
thousand bits or more"; "the accuracy can be made as good as desired
by varying the size of the bit array, and we believe that a relatively
small array will be more than adequate for the target domain of our
effort"; §7: the per-publisher bitmask prototype is exact but "poorly
scalable in the selection of publishers".

Two parts:

1. **Analytic sweep** (data-structure level): false-positive rate of
   the aggregated root filter vs array size and subscription count —
   the accuracy/size trade-off of §6.
2. **System sweep**: a deployment per filter size; wasted forwarding
   (forwards into subtrees with no true subscriber + leaf-level
   rejections) vs filter size, compared against the exact §7 mask
   scheme.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.bloom import BloomFilter
from repro.core.config import BloomConfig, NewsWireConfig
from repro.obs.stats import format_table
from repro.pubsub.engine import build_pubsub
from repro.pubsub.schemes import BloomScheme, PublisherMaskScheme, categories_registry
from repro.workloads.populations import InterestModel
from repro.experiments.common import validate_seed
from repro.experiments.registry import SweepCell, register


@dataclass(frozen=True)
class E5AnalyticRow:
    num_bits: int
    num_hashes: int
    subscriptions: int
    fill_ratio: float
    measured_fp_rate: float
    predicted_fp_rate: float


@dataclass(frozen=True)
class E5SystemRow:
    scheme: str
    num_bits: int
    forwards: int
    filtered: int
    leaf_rejections: int       # items delivered to non-subscribers (FPs)
    deliveries: int
    wasted_forward_ratio: float


@dataclass
class E5Result:
    analytic: list[E5AnalyticRow]
    system: list[E5SystemRow]

    def report(self) -> str:
        part1 = format_table(
            ["bits", "hashes", "subscriptions", "fill", "FP measured",
             "FP predicted"],
            [
                (r.num_bits, r.num_hashes, r.subscriptions, r.fill_ratio,
                 r.measured_fp_rate, r.predicted_fp_rate)
                for r in self.analytic
            ],
            title=(
                "E5a: aggregated-filter false positives vs array size "
                "(paper: ~1000 bits adequate; accuracy tunable)"
            ),
        )
        part2 = format_table(
            ["scheme", "bits", "forwards", "filtered", "leaf FPs",
             "deliveries", "wasted fwd"],
            [
                (r.scheme, r.num_bits, r.forwards, r.filtered,
                 r.leaf_rejections, r.deliveries, r.wasted_forward_ratio)
                for r in self.system
            ],
            title="E5b: in-network filtering efficiency per scheme/size",
        )
        return part1 + "\n\n" + part2


def run_e5_analytic(
    *,
    bit_sizes: Sequence[int] = (256, 512, 1024, 2048, 4096, 8192),
    subscription_counts: Sequence[int] = (50, 200, 1000, 5000),
    hash_counts: Sequence[int] = (1,),
    probes: int = 4000,
    seed: int = 0,
) -> list[E5AnalyticRow]:
    """The accuracy sweep.  The paper's scheme hashes each subscription
    "to a single bit" (k=1); pass ``hash_counts=(1, 2, 4)`` to ablate
    the k>1 variants (fewer FPs at low fill, saturation sooner)."""
    rng = random.Random(seed)
    rows: list[E5AnalyticRow] = []
    for num_bits in bit_sizes:
      for num_hashes in hash_counts:
        for count in subscription_counts:
            subjects = [f"subject-{rng.getrandbits(48):012x}" for _ in range(count)]
            bloom = BloomFilter.from_items(subjects, num_bits, num_hashes)
            known = set(subjects)
            false_positives = 0
            tested = 0
            while tested < probes:
                probe = f"probe-{rng.getrandbits(48):012x}"
                if probe in known:
                    continue
                tested += 1
                if probe in bloom:
                    false_positives += 1
            rows.append(
                E5AnalyticRow(
                    num_bits=num_bits,
                    num_hashes=num_hashes,
                    subscriptions=count,
                    fill_ratio=bloom.fill_ratio,
                    measured_fp_rate=false_positives / probes,
                    predicted_fp_rate=bloom.expected_fp_rate(),
                )
            )
    return rows


#: The system sweep run_e5 drives (and the parallel cell plan mirrors).
DEFAULT_SYSTEM_BIT_SIZES: tuple[int, ...] = (64, 256, 1024)


def run_e5_system_cell(
    *,
    num_nodes: int = 200,
    num_bits: Optional[int] = None,
    items_per_subject: int = 1,
    num_subjects: int = 48,
    seed: int = 0,
) -> E5SystemRow:
    """One scheme of the system sweep: a Bloom filter of ``num_bits``
    bits, or the exact §7 publisher-mask scheme when ``num_bits`` is
    None.  Every cell builds its own fresh deployment from the same
    seed, so cells are independent — the unit the parallel executor
    fans out."""
    publishers = ("slashdot", "wired")
    categories = tuple(f"cat{i}" for i in range(num_subjects // len(publishers)))
    subjects = [f"{p}/{c}" for p in publishers for c in categories]
    if num_bits is None:
        registries = categories_registry({p: categories for p in publishers})
        scheme = PublisherMaskScheme(registries)
        label, reported_bits = "mask(§7)", len(categories)
    else:
        scheme = BloomScheme(BloomConfig(num_bits=num_bits, num_hashes=1))
        label, reported_bits = "bloom", num_bits
    config = NewsWireConfig(branching_factor=8)
    interests = InterestModel(
        subjects=subjects, subscriptions_per_node=2, seed=seed
    )
    deployment = build_pubsub(
        num_nodes,
        config,
        scheme=scheme,
        subscriptions_for=interests.subscriptions_for,
        seed=seed,
    )
    deployment.run_rounds(2)
    publisher = deployment.agents[0]
    for subject in subjects[: items_per_subject * len(subjects)]:
        publisher.publish(subject, {"h": subject}, publisher=subject.split("/")[0])
    deployment.sim.run_for(20.0)
    trace = deployment.trace
    forwards = trace.count("forward")
    rejected = trace.count("rejected")
    deliveries = trace.count("deliver")
    return E5SystemRow(
        scheme=label,
        num_bits=reported_bits,
        forwards=forwards,
        filtered=trace.count("filtered"),
        leaf_rejections=rejected,
        deliveries=deliveries,
        wasted_forward_ratio=rejected / forwards if forwards else 0.0,
    )


def run_e5_system(
    *,
    num_nodes: int = 200,
    bit_sizes: Sequence[int] = DEFAULT_SYSTEM_BIT_SIZES,
    items_per_subject: int = 1,
    num_subjects: int = 48,
    seed: int = 0,
) -> list[E5SystemRow]:
    cell_kwargs = dict(
        num_nodes=num_nodes,
        items_per_subject=items_per_subject,
        num_subjects=num_subjects,
        seed=seed,
    )
    rows = [
        run_e5_system_cell(num_bits=num_bits, **cell_kwargs)
        for num_bits in bit_sizes
    ]
    rows.append(run_e5_system_cell(num_bits=None, **cell_kwargs))
    return rows


def _e5_cells(kwargs: dict) -> list[SweepCell]:
    """The analytic sweep (one sequential RNG stream, kept whole) plus
    one cell per system scheme — all independent given the seed."""
    seed = kwargs.get("seed", 0)
    cells = [
        SweepCell(
            index=0,
            label="analytic",
            runner=run_e5_analytic,
            kwargs={"seed": seed},
        )
    ]
    for num_bits in (*DEFAULT_SYSTEM_BIT_SIZES, None):
        label = f"system:bloom-{num_bits}" if num_bits else "system:mask"
        cells.append(
            SweepCell(
                index=len(cells),
                label=label,
                runner=run_e5_system_cell,
                kwargs={"num_bits": num_bits, "seed": seed},
            )
        )
    return cells


def _e5_merge(kwargs: dict, results: list) -> "E5Result":
    return E5Result(analytic=results[0], system=list(results[1:]))


@register(
    "e5",
    claim=(
        '"the accuracy can be made as good as desired by varying the '
        'size of the bit array" — Bloom-filter sizing'
    ),
    cells=_e5_cells,
    merge=_e5_merge,
)
def run_e5(*, seed: int = 0) -> E5Result:
    validate_seed(seed)
    return E5Result(
        analytic=run_e5_analytic(seed=seed),
        system=run_e5_system(seed=seed),
    )


if __name__ == "__main__":
    print(run_e5().report())
