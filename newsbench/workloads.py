"""The three benchmark workloads: seeded inputs, one driven run, the gate.

Every input is generated here from the ``--seed`` argument — the
interest model's seed, the publication trace and the churn trace — and
handed to the program through its public builders and entry points
(``build_system``, ``publish_news``, ``resubscribe``).  Inputs are
*stratified* so that runs with different seeds stay comparable: each
workload publishes a fixed number of items with fixed per-subject
counts (Zipf shares over ``TECH_CATEGORIES``) and a fixed multiset of
body sizes, and only the order, the arrival times and the subscriber
population change with the seed.  Arrivals are open-loop at a fixed
mean rate: the window is cut into one slot per arrival and each
arrival falls uniformly inside its slot (jittered, not clustered like
a Poisson process, whose bursts would make the latency tail a property
of the seed rather than of the program); the churn storm is generated
the same way.

The correctness gate compares every delivery the program traced with
the set the inputs imply:

* static interests (``breaking-news``, ``columnar-100k``): each item
  reaches exactly the nodes whose subscriptions match its subject,
  each exactly once;
* churn (``interest-churn``): a node whose matching subscription was
  held from ``settling_window`` seconds before the publish until the
  end of the drain must receive the item exactly once; a node that
  held no matching subscription anywhere between publish and the end
  of the drain must not receive it; everyone else may receive it at
  most once.  The settling window is the subscription propagation
  allowance (README.md, "Correctness gate").
"""

from __future__ import annotations

import bisect
import functools
import gc
import hashlib
import heapq
import json
import math
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.identifiers import ItemId, ZonePath
from repro.experiments.common import SystemSpec, body_text, build_system
from repro.experiments.e2_latency import STREAMING_NODE_THRESHOLD
from repro.multicast.messages import Envelope, ForwardMsg
from repro.news.item import NewsItem
from repro.obs.sinks import MemorySink
from repro.pubsub.subscription import Subscription
from repro.workloads.populations import zipf_weights
from repro.workloads.scenarios import TECH_CATEGORIES, subjects_for
from repro.workloads.traces import Publication

PUBLISHER = "newswire"
SUBJECTS: Tuple[str, ...] = tuple(subjects_for((PUBLISHER,), TECH_CATEGORIES))
SUBSCRIPTIONS_PER_NODE = 3


@dataclass(frozen=True)
class Shape:
    """Size and timing of one workload (simulated seconds)."""

    name: str
    backend: str            # "object" or "columnar"
    nodes: int
    items: int
    publish_window: float   # items (and churn) arrive over this window
    settle: float           # simulated time before the window opens
    drain: float            # simulated time after the window closes
    churn_swaps: int = 0    # resubscriptions spread over the window
    settling_window: float = 0.0

    @property
    def end(self) -> float:
        return self.settle + self.publish_window + self.drain


SHAPES: Dict[str, Shape] = {
    "breaking-news": Shape(
        name="breaking-news",
        backend="object",
        nodes=500,
        items=60,
        publish_window=10.0,
        settle=4.0,
        drain=6.0,
    ),
    "interest-churn": Shape(
        name="interest-churn",
        backend="object",
        nodes=500,
        items=16,
        publish_window=20.0,
        settle=4.0,
        drain=10.0,
        churn_swaps=400,
        settling_window=10.0,
    ),
    "columnar-100k": Shape(
        name="columnar-100k",
        backend="columnar",
        nodes=100_000,
        items=9,
        publish_window=9.0,
        settle=4.0,
        drain=20.0,
    ),
}

#: Self-test sizes: the same workloads, small enough to run in seconds.
TINY: Dict[str, Shape] = {
    "breaking-news": Shape(
        "breaking-news", "object", nodes=100, items=12, publish_window=3.0,
        settle=4.0, drain=6.0,
    ),
    "interest-churn": Shape(
        "interest-churn", "object", nodes=100, items=6, publish_window=8.0,
        settle=4.0, drain=10.0, churn_swaps=30, settling_window=10.0,
    ),
    "columnar-100k": Shape(
        "columnar-100k", "columnar", nodes=STREAMING_NODE_THRESHOLD, items=3,
        publish_window=3.0, settle=4.0, drain=20.0,
    ),
}


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Swap:
    """One resubscription: ``node`` drops ``drop`` and adopts ``adopt``."""

    time: float
    node: int
    drop: str
    adopt: str


@dataclass(frozen=True)
class Inputs:
    """Everything a run feeds the program; times are absolute sim time."""

    publications: Tuple[Publication, ...]
    swaps: Tuple[Swap, ...]


def zipf_counts(total: int, slots: int) -> List[int]:
    """``total`` split over ``slots`` by Zipf share, largest remainder."""
    weights = zipf_weights(slots)
    scale = total / sum(weights)
    exact = [weight * scale for weight in weights]
    counts = [math.floor(value) for value in exact]
    by_remainder = sorted(
        range(slots), key=lambda index: (counts[index] - exact[index], index)
    )
    for index in by_remainder[: total - sum(counts)]:
        counts[index] += 1
    return counts


def body_sizes(count: int) -> List[int]:
    """A fixed multiset of article lengths: lognormal quantiles (words)."""
    normal = statistics.NormalDist()
    return [
        max(50, min(1500, round(250 * math.exp(0.6 * normal.inv_cdf((k + 0.5) / count)))))
        for k in range(count)
    ]


def arrival_times(rng: random.Random, count: int, start: float,
                  window: float) -> List[float]:
    """``count`` jittered arrivals, one uniform draw per equal slot."""
    slot = window / count
    return [start + (k + rng.random()) * slot for k in range(count)]


def publication_trace(shape: Shape, seed: int) -> Tuple[Publication, ...]:
    """Items at jittered times over the window, stratified subjects."""
    rng = random.Random(f"newsbench/publications/{shape.name}/{seed}")
    subjects = [
        subject
        for subject, count in zip(SUBJECTS, zipf_counts(shape.items, len(SUBJECTS)))
        for _ in range(count)
    ]
    rng.shuffle(subjects)
    sizes = body_sizes(shape.items)
    rng.shuffle(sizes)
    times = arrival_times(rng, shape.items, shape.settle, shape.publish_window)
    return tuple(
        Publication(
            time=when,
            subject=subject,
            headline=f"{subject} story {serial}",
            body_words=words,
            categories=(subject.rpartition("/")[2],),
        )
        for serial, (when, subject, words) in enumerate(
            zip(times, subjects, sizes), start=1
        )
    )


def churn_trace(
    shape: Shape, seed: int, initial: Sequence[Sequence[str]]
) -> Tuple[Swap, ...]:
    """Resubscriptions at jittered times; each drops a held subject
    and adopts one the node does not hold, so every swap is a real
    change that the node must re-export."""
    if not shape.churn_swaps:
        return ()
    rng = random.Random(f"newsbench/churn/{shape.name}/{seed}")
    held = [sorted(subjects) for subjects in initial]
    times = arrival_times(
        rng, shape.churn_swaps, shape.settle, shape.publish_window
    )
    swaps = []
    for when in times:
        node = rng.randrange(shape.nodes)
        drop = rng.choice(held[node])
        adopt = rng.choice([s for s in SUBJECTS if s not in held[node]])
        held[node] = sorted([s for s in held[node] if s != drop] + [adopt])
        swaps.append(Swap(when, node, drop, adopt))
    return tuple(swaps)


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------

@dataclass
class RunRecord:
    """What one build + run produced, before checking."""

    setup_s: float
    run_s: float
    reference_s: Tuple[float, float, float]  # before set-up, between, after run
    inputs: Inputs
    node_names: List[str]
    initial: List[Tuple[str, ...]]
    publishes: Dict[str, Tuple[float, str]]       # item -> (time, subject)
    deliveries: List[Tuple[str, str, float]]      # (item, node, latency)
    forwards: List[Tuple[float, str, str]]        # (time, zone, item)
    queue_waits: List[float]
    network: Dict[str, int]
    counters: Dict[str, float]
    trace_counts: Dict[str, int]
    events: int
    cache_items_max: int
    queue_depth_max: int
    zone_forwards: List[Tuple[str, int, int]] = field(default_factory=list)
    system: object = field(default=None, repr=False)


def _network_totals(system) -> Dict[str, int]:
    network = getattr(system, "network", None)
    if network is None:
        return {"msgs": 0, "bytes": 0, "drops": 0}
    stats = network.stats
    return {
        "msgs": stats.delivered,
        "bytes": stats.total_bytes,
        "drops": stats.dropped,
    }


def _counter_values(system) -> Dict[str, float]:
    values: Dict[str, float] = {}
    for name, value in system.metrics.snapshot().items():
        if isinstance(value, (int, float)):
            values[name] = value
    return values


class CarrierCounter:
    """Counts the columnar walk's modelled forwarding messages.

    The columnar backend replaces per-hop messages with an analytic
    walk; each zone it forwards into costs one message to that zone's
    carrier (``MembershipColumns.carrier_for`` returning a member).
    Installed around that public method, and around
    ``ColumnarPublisher.publish_news`` to tell the items apart, for
    every columnar run, traced or not: ``msgs_per_delivery`` is an
    end-to-end metric.  ``forwards`` holds ``(subject, depth, zone)``.
    """

    def __init__(self) -> None:
        self.forwards: List[Tuple[str, int, int]] = []
        self._originals: List[Tuple[type, str, object]] = []

    def install(self) -> None:
        from repro.scale.backend import ColumnarPublisher
        from repro.scale.columns import MembershipColumns

        carrier_for = MembershipColumns.carrier_for
        publish_news = ColumnarPublisher.publish_news
        forwards = self.forwards
        current = [""]

        @functools.wraps(carrier_for)
        def counted_carrier_for(columns, depth, zone):
            carrier = carrier_for(columns, depth, zone)
            if carrier is not None:
                forwards.append((current[0], depth, zone))
            return carrier

        @functools.wraps(publish_news)
        def marked_publish_news(publisher, subject, *args, **kwargs):
            current[0] = subject
            return publish_news(publisher, subject, *args, **kwargs)

        self._originals = [
            (MembershipColumns, "carrier_for", carrier_for),
            (ColumnarPublisher, "publish_news", publish_news),
        ]
        MembershipColumns.carrier_for = counted_carrier_for
        ColumnarPublisher.publish_news = marked_publish_news

    def uninstall(self) -> None:
        while self._originals:
            cls, attr, original = self._originals.pop()
            setattr(cls, attr, original)


class GateSink:
    """A trace sink that keeps only what the gate and the metrics read,
    as flat tuples of strings and floats.

    Below ``STREAMING_NODE_THRESHOLD`` nodes the workloads trace into
    the program's default :class:`MemorySink`; from that size on they
    trace into this, as the program's own experiments stop retaining
    trace events there (``StreamingSink``): a ``MemorySink``'s event
    objects at that size add to every full collection and to peak
    memory.  Unlike ``StreamingSink`` this keeps every (item, node)
    delivery, which the exact gate needs, in tuples of atoms that the
    collector stops tracking.
    """

    def __init__(self) -> None:
        self.publishes: Dict[str, Tuple[float, str]] = {}
        self.deliveries: List[Tuple[str, str, float]] = []
        self.forwards: List[Tuple[float, str, str]] = []
        self.waits: List[float] = []

    def emit(self, time, kind, fields) -> None:
        if kind == "deliver":
            self.deliveries.append((fields["item"], fields["node"], fields["latency"]))
        elif kind == "publish":
            self.publishes[fields["item"]] = (time, fields["subject"])
        elif kind == "forward":
            self.forwards.append((time, fields["zone"], fields["item"]))
        elif kind == "queue-sent":
            self.waits.append(fields["wait"])

    def clear(self) -> None:
        self.__init__()

    def close(self) -> None:
        pass


def build(shape: Shape, seed: int):
    """The timed set-up: ``build_system`` for the workload's backend."""
    spec = SystemSpec(
        num_nodes=shape.nodes,
        subjects=SUBJECTS,
        subscriptions_per_node=SUBSCRIPTIONS_PER_NODE,
        seed=seed,
        sinks=[
            MemorySink() if shape.nodes < STREAMING_NODE_THRESHOLD else GateSink()
        ],
        backend=shape.backend,
    )
    return build_system(spec)


#: Operations in one :func:`reference_work`.
REFERENCE_OPS = 500_000


def reference_work() -> float:
    """Wall time of a fixed piece of pure-Python work that does not use
    the program: pushes and pops on a small heap, dict counts and
    string conversions, in a few hundred kilobytes of memory.

    The shared host's speed swings by up to twice over minutes
    (README.md, "Reference speed, bounds and spread").  Timed next to
    each phase, this tells how fast the host ran then.  The collector
    is off while it runs, so the program's heap does not change its
    cost.
    """
    gc.disable()
    try:
        started = time.perf_counter()
        heap = list(range(1024))
        counts: Dict[str, int] = {}
        for i in range(REFERENCE_OPS):
            heapq.heappushpop(heap, (i * 7919) % 10007)
            key = str(i % 3001)
            counts[key] = counts.get(key, 0) + 1
        return time.perf_counter() - started
    finally:
        gc.enable()


def run_once(shape: Shape, seed: int, tracer=None) -> RunRecord:
    """Build, drive and read back one run of ``shape`` at ``seed``.

    ``tracer`` (a :class:`newsbench.tracer.Tracer`) is told where the
    set-up and run phases start and end; None runs untraced.  The
    reference work is timed before the set-up, between set-up and run
    phase, and after the run phase.
    """
    carriers = CarrierCounter() if shape.backend == "columnar" else None
    if carriers is not None:
        carriers.install()
    try:
        reference_before = reference_work()
        gc.collect()
        if tracer is not None:
            tracer.begin_setup()
        started = time.perf_counter()
        system, interests = build(shape, seed)
        setup_s = time.perf_counter() - started
        if tracer is not None:
            tracer.end_setup(setup_s)

        agents = system.deployment.agents
        node_names = [str(agents[index].node_id) for index in range(shape.nodes)]
        initial = [
            tuple(s.subject for s in interests.subscriptions_for(index))
            for index in range(shape.nodes)
        ]
        inputs = Inputs(
            publication_trace(shape, seed), churn_trace(shape, seed, initial)
        )
        _schedule(system, shape, inputs)
        net_before = _network_totals(system)
        counters_before = _counter_values(system)
        trace_before = system.trace.counts()
        events_before = system.sim.events_processed
        if carriers is not None:
            carriers.forwards.clear()

        reference_between = reference_work()
        gc.collect()
        if tracer is not None:
            tracer.begin_run(system.sim)
        started = time.perf_counter()
        system.sim.run_until(shape.end)
        run_s = time.perf_counter() - started
        if tracer is not None:
            tracer.end_run(run_s)
        reference_s = (reference_before, reference_between, reference_work())
    finally:
        if carriers is not None:
            carriers.uninstall()

    record = _read_back(
        system, shape, inputs, node_names, initial, setup_s, run_s,
        reference_s, net_before, counters_before, trace_before, events_before,
    )
    if carriers is not None:
        record.zone_forwards = carriers.forwards
    return record


def _schedule(system, shape: Shape, inputs: Inputs) -> None:
    sim = system.sim
    publisher = system.publisher(PUBLISHER)
    if shape.backend == "columnar":
        for publication in inputs.publications:
            sim.call_at(
                publication.time,
                publisher.publish_news,
                publication.subject,
                publication.headline,
            )
    else:
        for publication in inputs.publications:
            sim.call_at(
                publication.time,
                publisher.publish_news,
                publication.subject,
                publication.headline,
                body_text(publication.body_words),
                publication.categories,
            )
    nodes = system.nodes
    for swap in inputs.swaps:
        sim.call_at(
            swap.time,
            nodes[swap.node].resubscribe,
            Subscription(swap.drop),
            Subscription(swap.adopt),
        )


def _read_back(
    system, shape, inputs, node_names, initial, setup_s, run_s,
    reference_s, net_before, counters_before, trace_before, events_before,
) -> RunRecord:
    gate = system.trace.sinks[0]
    if not isinstance(gate, GateSink):
        gate = GateSink()
        for event in system.trace.events():
            gate.emit(event.time, event.kind, event)
    net_after = _network_totals(system)
    counters_after = _counter_values(system)
    trace_after = system.trace.counts()
    nodes = system.nodes
    return RunRecord(
        setup_s=setup_s,
        run_s=run_s,
        reference_s=reference_s,
        inputs=inputs,
        node_names=node_names,
        initial=initial,
        publishes=gate.publishes,
        deliveries=gate.deliveries,
        forwards=gate.forwards,
        queue_waits=gate.waits,
        network={k: net_after[k] - net_before[k] for k in net_after},
        counters={
            name: value - counters_before.get(name, 0)
            for name, value in counters_after.items()
        },
        trace_counts={
            kind: count - trace_before.get(kind, 0)
            for kind, count in trace_after.items()
        },
        events=system.sim.events_processed - events_before,
        cache_items_max=max((len(n.cache) for n in nodes), default=0),
        queue_depth_max=max((n.queues.stats.max_backlog for n in nodes), default=0),
        system=system,
    )


def modelled_traffic(record: RunRecord) -> Tuple[int, int]:
    """Messages and bytes the columnar walk stands in for.

    One message per zone forward (counted at ``carrier_for``) plus one
    per leaf delivery to a member other than its leaf zone's carrier.
    Each is charged what the object backend charges a ``ForwardMsg``
    carrying the item; the items differ only in headline length, so
    the mean size over the items is used.
    """
    system = record.system
    columns = system.columns
    leaf_depth = columns.levels - 1
    publisher_index = system.publisher(PUBLISHER).node_index
    publisher_zone = columns.leaf_zone(publisher_index)
    carriers: Dict[int, Optional[int]] = {publisher_zone: publisher_index}
    index_of = {name: index for index, name in enumerate(record.node_names)}
    leaf_sends = 0
    for _, node, _ in record.deliveries:
        index = index_of[node]
        zone = columns.leaf_zone(index)
        if zone not in carriers:
            carriers[zone] = columns.carrier_for(leaf_depth, zone)
        if carriers[zone] != index:
            leaf_sends += 1
    sizes = []
    for serial, publication in enumerate(record.inputs.publications, start=1):
        item = NewsItem(
            item_id=ItemId(PUBLISHER, serial),
            subject=publication.subject,
            headline=publication.headline,
            publisher=PUBLISHER,
        )
        envelope = Envelope(
            item_key=item.item_id,
            payload=item,
            publisher=PUBLISHER,
            subject=item.subject,
            wire_size=item.wire_size(),
        )
        sizes.append(ForwardMsg(ZonePath(), envelope).wire_size)
    msgs = len(record.zone_forwards) + leaf_sends
    return msgs, round(msgs * statistics.fmean(sizes))


# ----------------------------------------------------------------------
# The gate
# ----------------------------------------------------------------------

@dataclass
class Check:
    attempted: int          # deliveries the inputs require
    missed: int
    duplicates: int
    spurious: int
    correct: int            # required deliveries made exactly once
    latencies: List[float]  # sim seconds, over the required deliveries
    digest: str
    published: int
    expected_items: int
    late_adopters: int = 0  # churn: late (item, adopter) pairs ...
    late_covered: int = 0   # ... and how many of them were delivered

    @property
    def failed(self) -> int:
        return self.missed + self.duplicates + self.spurious

    @property
    def ok(self) -> bool:
        return self.failed == 0 and self.published == self.expected_items


def delivery_digest(deliveries: Sequence[Tuple[str, str, float]]) -> str:
    """sha256 over sorted per-item, per-node delivery counts."""
    counts: Dict[Tuple[str, str], int] = {}
    for item, node, _ in deliveries:
        key = (item, node)
        counts[key] = counts.get(key, 0) + 1
    payload = json.dumps(sorted((i, n, c) for (i, n), c in counts.items()))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class Holdings:
    """Per-node subscription timelines, from the initial interests and
    the churn trace: ``holds(node, subject, t)`` at any sim time."""

    def __init__(self, initial: Sequence[Sequence[str]], swaps: Sequence[Swap]):
        self.times: List[List[float]] = [[0.0] for _ in initial]
        self.sets: List[List[frozenset]] = [[frozenset(s)] for s in initial]
        for swap in swaps:
            current = set(self.sets[swap.node][-1])
            current.discard(swap.drop)
            current.add(swap.adopt)
            self.times[swap.node].append(swap.time)
            self.sets[swap.node].append(frozenset(current))

    def window(self, node: int, start: float, end: float) -> List[frozenset]:
        """Every subscription set ``node`` held during [start, end]."""
        times = self.times[node]
        first = bisect.bisect_right(times, start) - 1
        last = bisect.bisect_right(times, end)
        return self.sets[node][max(first, 0):last]

    def holds(self, node: int, subject: str, when: float) -> bool:
        return subject in self.window(node, when, when)[-1]


def check(shape: Shape, record: RunRecord) -> Check:
    """Compare traced deliveries with what the inputs require."""
    index_of = {name: index for index, name in enumerate(record.node_names)}
    per_item: Dict[str, Dict[int, List[float]]] = {}
    for item, node, lat in record.deliveries:
        per_item.setdefault(item, {}).setdefault(index_of[node], []).append(lat)
    holdings = Holdings(record.initial, record.inputs.swaps)
    duplicates = sum(
        len(lats) - 1 for got in per_item.values() for lats in got.values()
    )
    # Deliveries of items nobody published are spurious outright.
    spurious = sum(
        len(got) for item, got in per_item.items() if item not in record.publishes
    )
    attempted = missed = correct = late = late_covered = 0
    latencies: List[float] = []
    static: Dict[str, List[int]] = {}
    for item, (published, subject) in record.publishes.items():
        got = per_item.get(item, {})
        if shape.churn_swaps:
            required, allowed = _churn_sets(
                holdings, subject, published, shape.end, shape.settling_window
            )
            # Late adopters: hold a match at the end of the drain, but
            # adopted it too recently (or mid-flight) to be required.
            lates = [
                node for node in allowed.difference(required)
                if holdings.holds(node, subject, shape.end)
            ]
            late += len(lates)
            late_covered += sum(1 for node in lates if node in got)
        else:
            if subject not in static:
                static[subject] = [
                    n for n, subs in enumerate(record.initial) if subject in subs
                ]
            required = static[subject]
            allowed = set(required)
        attempted += len(required)
        for node in required:
            lats = got.get(node)
            if lats is None:
                missed += 1
            elif len(lats) == 1:
                correct += 1
                latencies.append(lats[0])
        spurious += sum(1 for node in got if node not in allowed)
    return Check(
        attempted=attempted,
        missed=missed,
        duplicates=duplicates,
        spurious=spurious,
        correct=correct,
        latencies=latencies,
        digest=delivery_digest(record.deliveries),
        published=len(record.publishes),
        expected_items=len(record.inputs.publications),
        late_adopters=late,
        late_covered=late_covered,
    )


def _churn_sets(holdings: Holdings, subject: str, published: float,
                end: float, settle: float):
    """(required nodes, allowed nodes) for one item under churn."""
    required: List[int] = []
    allowed = set()
    for node in range(len(holdings.times)):
        if any(subject in held for held in holdings.window(node, published, end)):
            allowed.add(node)
            if all(
                subject in held
                for held in holdings.window(node, published - settle, end)
            ):
                required.append(node)
    return required, allowed


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]
