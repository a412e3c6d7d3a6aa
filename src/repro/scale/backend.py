"""The columnar NewsWire system facade (``SystemSpec(backend="columnar")``).

:class:`ColumnarNewsWire` exposes the slice of the
:class:`~repro.news.deployment.NewsWireSystem` surface the experiment
runners drive — ``sim`` / ``runtime`` / ``trace`` / ``run_for`` /
``publisher(name).publish_news(...)`` — on top of the struct-of-arrays
state in :mod:`repro.scale.columns` and the batched rounds in
:mod:`repro.scale.batched`.

Dissemination is an **analytic walk** instead of simulated per-hop
messages: at publish time the walk descends the zone tree exactly as a
carrier chain would — the publisher's *root-replica* rows gate the
top-level fan-out, canonical aggregates gate deeper levels, and the
exact interned-subject match selects leaf subscribers — accumulating
each delivery's arrival time from the same per-hop ingredients the
object backend pays (forwarding delay, send-rate pacing, zone-distance
latency bands).  All deliveries are then scheduled in one
:meth:`~repro.sim.engine.Simulation.call_at_batch` call; the events
that fire emit ordinary ``deliver`` trace records, so sinks, metric
collectors and the invariant suite see a normal run.

Equivalence contract (pinned in ``tests/scale/test_equivalence.py``):
for a fixed seed under converged routing state, the *canonical trace*
— sorted publish tuples, sorted ``(item, node)`` delivery pairs, and
their counts — is byte-identical across backends; individual latencies
are statistically, not bitwise, equivalent (same per-band ranges,
different draws).  Deliver events carry ``sender=<publisher>`` and a
positive ``hop`` so causal-tree reconstruction anchors every delivery
chain at its publish.

Not modeled here (use the object backend): publish flow control and
credential checks, zone-scoped publishes, message loss/partitions,
repair anti-entropy for items, and live runtimes.
"""

from __future__ import annotations

import hashlib
import json
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.bloom import positions_mask
from repro.core.config import NewsWireConfig
from repro.core.errors import ConfigurationError
from repro.news.deployment import NEWSWIRE_TRACE_KINDS
from repro.obs.metrics import MetricsRegistry
from repro.obs.sinks import TraceSink
from repro.pubsub.schemes import BloomScheme
from repro.pubsub.subscription import Subscription
from repro.scale.batched import BatchedGossip
from repro.scale.columns import MembershipColumns
from repro.sim.engine import Simulation
from repro.sim.network import HierarchicalLatency
from repro.sim.rng import derive_rng
from repro.sim.trace import TraceLog
from repro.workloads.populations import InterestModel

#: Stream tag for per-item latency draws (one substream per publish,
#: so walk order changes never perturb other items' draws).
_LATENCY_STREAM = 0x5CA1E1


class _AgentRef:
    """Name-only stand-in for an agent (``deployment.agents[i]``)."""

    __slots__ = ("node_id",)

    def __init__(self, node_id: str):
        self.node_id = node_id


class _AgentSeq:
    def __init__(self, columns: MembershipColumns):
        self._columns = columns

    def __len__(self) -> int:
        return self._columns.num_nodes

    def __getitem__(self, index: int) -> _AgentRef:
        return _AgentRef(self._columns.node_path(index))


class _DeploymentView:
    """Duck-typed ``system.deployment`` for helpers that only read
    ``agents[i].node_id`` (e.g. ``expected_delivery_nodes``)."""

    def __init__(self, columns: MembershipColumns):
        self.agents = _AgentSeq(columns)


class ColumnarPublisher:
    """Publisher shim bound to one node index.

    Mirrors :meth:`repro.news.node.NewsWireNode.publish_news`'s
    signature for the arguments experiments use; flow control and
    credential checks are not modeled (rates in the experiments are
    sized to never trip them).
    """

    def __init__(self, system: "ColumnarNewsWire", name: str, node_index: int):
        self.system = system
        self.name = name
        self.node_index = node_index
        self._serial = 0

    def publish_news(
        self,
        subject: str,
        headline: str,
        body: str = "",
        categories: Tuple[str, ...] = (),
        keywords: Tuple[str, ...] = (),
        urgency: int = 5,
        zone=None,
        zone_predicate=None,
    ) -> Dict[str, object]:
        if zone is not None or zone_predicate is not None:
            raise ConfigurationError(
                "the columnar backend publishes root scope only; "
                "use backend='object' for zone-scoped publishes"
            )
        self._serial += 1
        return self.system._publish(self.name, self.node_index, self._serial, subject)


class ColumnarNewsWire:
    """A running columnar NewsWire population."""

    def __init__(
        self,
        columns: MembershipColumns,
        sim: Simulation,
        trace: TraceLog,
        scheme: BloomScheme,
        config: NewsWireConfig,
        gossip: BatchedGossip,
        seed: int,
    ):
        self.columns = columns
        self._sim = sim
        self._trace = trace
        self.scheme = scheme
        self.config = config
        self.gossip = gossip
        self.seed = seed
        self.publishers: Dict[str, ColumnarPublisher] = {}
        self._subject_ids: Dict[str, int] = {}
        self._bands = HierarchicalLatency().bands
        self._walk_serial = 0
        self._deployment: Optional[_DeploymentView] = None

    # -- NewsWireSystem surface -------------------------------------------

    @property
    def sim(self) -> Simulation:
        return self._sim

    @property
    def runtime(self) -> Simulation:
        """The scheduling substrate (``call_at`` / ``run_for``)."""
        return self._sim

    @property
    def trace(self) -> TraceLog:
        return self._trace

    @property
    def metrics(self) -> MetricsRegistry:
        return self._trace.metrics

    @property
    def num_nodes(self) -> int:
        return self.columns.num_nodes

    @property
    def nodes(self) -> tuple:
        """Empty: columnar state has no per-node objects.  Checkers
        that need live agents (zone reconvergence, queue accounting)
        skip gracefully on an empty roster."""
        return ()

    @property
    def deployment(self) -> _DeploymentView:
        if self._deployment is None:
            self._deployment = _DeploymentView(self.columns)
        return self._deployment

    def publisher(self, name: str) -> ColumnarPublisher:
        return self.publishers[name]

    def run_for(self, duration: float) -> None:
        self._sim.run_for(duration)

    def node_name(self, index: int) -> str:
        return self.columns.node_path(index)

    # -- subscriptions -----------------------------------------------------

    def _subject_id(self, subject: str) -> int:
        sid = self._subject_ids.get(subject)
        if sid is None:
            sid = len(self._subject_ids)
            self._subject_ids[subject] = sid
        return sid

    def _subject_mask(self, subject: str) -> int:
        return positions_mask(self.scheme.hints_for(subject, ""))

    def install_subscriptions(
        self, index: int, subscriptions: Sequence[Subscription]
    ) -> None:
        """Build-time interest installation (no trace, no dirtying —
        aggregates are rebuilt wholesale afterwards, mirroring the
        time-zero pre-seed)."""
        columns = self.columns
        ids = list(columns.subjects[index])
        mask = columns.interest[index]
        for subscription in subscriptions:
            sid = self._subject_id(subscription.subject)
            if sid not in ids:
                ids.append(sid)
            mask |= self._subject_mask(subscription.subject)
        columns.subjects[index] = tuple(ids)
        columns.interest[index] = mask

    def subscribe(self, index: int, subscription: Subscription) -> None:
        """Run-time subscription: takes the real propagation path —
        leaf dirty → one tree level per gossip round → root replicas."""
        columns = self.columns
        sid = self._subject_id(subscription.subject)
        if sid not in columns.subjects[index]:
            columns.subjects[index] = columns.subjects[index] + (sid,)
        columns.interest[index] |= self._subject_mask(subscription.subject)
        self.gossip.mark_dirty(columns.leaf_zone(index))
        self._trace.record(
            "subscribe",
            node=columns.node_path(index),
            subject=subscription.subject,
        )

    def root_subs_visible(self, observer_index: int, positions) -> bool:
        """Are all of a subject's filter bits set in the root view of
        ``observer_index``'s top-level zone replica?  (E6's probe.)"""
        view = self.gossip.root_subs_view(observer_index)
        return all((view >> position) & 1 for position in positions)

    # -- failures ----------------------------------------------------------

    def fail_node(self, index: int) -> None:
        self.gossip.fail_node(index)

    def recover_node(self, index: int) -> None:
        self.gossip.recover_node(index)

    # -- publishing --------------------------------------------------------

    def _publish(
        self, name: str, node_index: int, serial: int, subject: str
    ) -> Dict[str, object]:
        columns = self.columns
        item = f"{name}:{serial}.r0"
        publisher_node = columns.node_path(node_index)
        self._trace.record(
            "publish",
            node=publisher_node,
            subject=subject,
            item=item,
            scope="/",
        )
        created = self._sim.now
        deliveries = self._walk(subject, name, node_index)
        entries = []
        for time, index, hop in deliveries:
            sender = "" if index == node_index else publisher_node
            entries.append(
                (time, self._deliver, (item, index, created, sender, hop))
            )
        self._sim.call_at_batch(entries)
        return {"item": item, "subject": subject, "publisher": name}

    def _deliver(
        self, item: str, index: int, created: float, sender: str, hop: int
    ) -> None:
        columns = self.columns
        if not columns.alive[index] or not columns.member[index]:
            return  # crashed while the copy was in flight
        self._trace.record(
            "deliver",
            node=columns.node_path(index),
            item=item,
            latency=self._sim.now - created,
            sender=sender,
            hop=hop,
            via="tree",
        )

    def _walk(
        self, subject: str, publisher_name: str, publisher_index: int
    ) -> List[Tuple[float, int, int]]:
        """Analytic dissemination: ``(arrival_time, node, hop)`` per
        delivery, one tree descent, each leaf zone visited at most once.
        """
        columns = self.columns
        scheme = self.scheme
        hints = scheme.hints_for(subject, publisher_name)
        sid = self._subject_ids.get(subject)
        now = self._sim.now
        self._walk_serial += 1
        rng = derive_rng(self.seed, _LATENCY_STREAM, self._walk_serial)
        forwarding_delay = self.config.multicast.forwarding_delay
        send_gap = 1.0 / self.config.multicast.max_send_rate
        bands = self._bands
        levels = columns.levels
        alive = columns.alive
        member = columns.member
        subjects = columns.subjects
        out: List[Tuple[float, int, int]] = []

        def band_draw(depth: int) -> float:
            # Fanning across children of a depth-`depth` zone: their
            # members' paths share `depth` labels of `levels`, so the
            # zone distance is levels - depth.
            low, high = bands[min(levels - depth, len(bands)) - 1]
            return rng.uniform(low, high)

        def leaf(zone: int, carrier: int, time: float, hop: int) -> None:
            if sid is None:
                return  # nobody anywhere subscribes to this subject
            pacing = 0
            for index in columns.leaf_members(zone):
                if not alive[index] or not member[index]:
                    continue
                if sid not in subjects[index]:
                    continue
                if index == carrier:
                    out.append((time, index, hop))
                else:
                    pacing += 1
                    out.append(
                        (
                            time
                            + forwarding_delay
                            + pacing * send_gap
                            + band_draw(levels - 1),
                            index,
                            hop + 1,
                        )
                    )

        def descend(depth: int, zone: int, carrier: int, time: float, hop: int) -> None:
            if depth == levels - 1:
                leaf(zone, carrier, time, hop)
                return
            carrier_child = columns.zone_of(carrier, depth + 1)
            pacing = 0
            for child in columns.children(depth, zone):
                if child == carrier_child:
                    # The carrier is inside: processed synchronously,
                    # no network hop.
                    descend(depth + 1, child, carrier, time, hop)
                    continue
                if depth == 0 and levels > 1:
                    mask = self.gossip.top_child_mask(publisher_index, child)
                else:
                    mask = columns.agg_subs[depth + 1][child]
                if mask is None or not scheme.zone_may_match({"subs": mask}, hints):
                    continue
                next_carrier = columns.carrier_for(depth + 1, child)
                if next_carrier is None:
                    continue
                pacing += 1
                arrival = (
                    time
                    + forwarding_delay
                    + pacing * send_gap
                    + band_draw(depth)
                )
                descend(depth + 1, child, next_carrier, arrival, hop + 1)

        descend(0, 0, publisher_index, now, 0)
        return out


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------

def build_columnar(
    num_nodes: int,
    config: Optional[NewsWireConfig] = None,
    *,
    publisher_names: Sequence[str] = ("newswire",),
    subscriptions_for: Optional[Callable[[int], Sequence[Subscription]]] = None,
    seed: int = 0,
    sinks: Optional[Sequence[TraceSink]] = None,
    metrics: Optional[MetricsRegistry] = None,
    start: bool = True,
) -> ColumnarNewsWire:
    """Stand up a columnar NewsWire population.

    Mirrors :func:`repro.news.deployment.build_newswire` for the
    parameters the experiment runners use: the first
    ``len(publisher_names)`` nodes double as publishers and
    ``subscriptions_for(index)`` seeds each node's interests before
    the time-zero aggregate build.  Publishers are not rate limited
    (no flow-control model here).
    """
    config = (config or NewsWireConfig()).validate()
    if num_nodes <= 0:
        raise ConfigurationError("num_nodes must be positive")

    sim = Simulation(seed=seed)
    trace = TraceLog(
        sim, kinds=set(NEWSWIRE_TRACE_KINDS), sinks=sinks, metrics=metrics
    )
    scheme = BloomScheme(config.bloom)
    columns = MembershipColumns(
        num_nodes,
        config.branching_factor,
        representatives=config.multicast.representatives,
    )
    gossip = BatchedGossip(sim, columns, config)
    system = ColumnarNewsWire(columns, sim, trace, scheme, config, gossip, seed)

    if subscriptions_for is not None:
        for index in range(num_nodes):
            system.install_subscriptions(index, subscriptions_for(index))
    columns.build_aggregates()
    # Re-seed the root replicas now that aggregates include the
    # time-zero interests (the consistent snapshot _preseed hands out).
    gossip._seed_replicas()

    for index, name in enumerate(publisher_names):
        if index >= num_nodes:
            break
        system.publishers[name] = ColumnarPublisher(system, name, index)

    if start:
        gossip.start()
    return system


def build_columnar_system(spec) -> Tuple[ColumnarNewsWire, InterestModel]:
    """`build_system` twin for ``SystemSpec(backend="columnar")``."""
    spec.validate()
    if not (spec.runtime is None or spec.runtime == "sim"):
        raise ConfigurationError(
            "the columnar backend runs on the simulator only; "
            "live runtimes need backend='object'"
        )
    interest_seed = spec.interest_seed if spec.interest_seed is not None else spec.seed
    interests = InterestModel(
        subjects=spec.subjects,
        subscriptions_per_node=spec.subscriptions_per_node,
        seed=interest_seed,
    )
    interests.prepare(spec.num_nodes)
    system = build_columnar(
        spec.num_nodes,
        spec.config if spec.config is not None else NewsWireConfig(),
        publisher_names=tuple(spec.publisher_names),
        subscriptions_for=interests.subscriptions_for,
        seed=spec.seed,
        sinks=spec.sinks,
        metrics=spec.metrics,
    )
    return system, interests


# ----------------------------------------------------------------------
# Canonical-trace equivalence helpers
# ----------------------------------------------------------------------

def canonical_trace(trace: TraceLog) -> Dict[str, object]:
    """The backend-equivalence view of a recorded run.

    Sorted publish tuples, sorted ``(item, node)`` delivery pairs and
    the raw counts — exactly the events whose sets a fixed-seed run
    must reproduce bit-for-bit on either backend.  Per-event *timings*
    are deliberately excluded: they are statistically, not bitwise,
    equivalent across backends.
    """
    publishes = sorted(
        (str(event["item"]), str(event["node"]), str(event["subject"]))
        for event in trace.events("publish")
    )
    delivers = sorted(
        (str(event["item"]), str(event["node"]))
        for event in trace.events("deliver")
    )
    return {
        "publish": publishes,
        "deliver": delivers,
        "publish_count": trace.count("publish"),
        "deliver_count": trace.count("deliver"),
    }


def canonical_digest(trace: TraceLog) -> str:
    """sha256 over the canonical trace (the golden-pinnable form)."""
    doc = canonical_trace(trace)
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
