"""The Astrolabe agent: per-node epidemic aggregation protocol.

Every participating machine runs one agent (§3).  An agent at leaf
path ``/usa/ithaca/node07``:

* owns its leaf *row* (attributes it exports — load, subscriptions,
  publisher lists, ...), refreshed every gossip round;
* replicates the zone tables of every ancestor on its root path
  (``/usa/ithaca``, ``/usa``, ``/``) — the "jigsaw puzzle" of §3;
* recomputes, each round, the aggregate row of each zone it belongs to
  from its replica of that zone's table, by evaluating the installed
  aggregation-function certificates (mobile code, §3);
* gossips: always within its parent zone, and at every higher level
  where it is currently one of the elected *contacts* (gossip
  representatives) of the child zone it descends through — Astrolabe's
  mechanism for keeping wide-area traffic bounded;
* expires rows whose owners stopped refreshing them, which is how
  crashed members and dead sub-zones leave the hierarchy.

Eventual consistency comes from last-writer-wins merges of versioned
rows: every replica applies the same deterministic rule, so once
updates quiesce all replicas of a table agree (§3: "if one were to
freeze the system, all nodes would eventually enter into consistent
states") — hypothesis-tested in ``tests/astrolabe``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Mapping, Optional

from repro.core.config import NewsWireConfig
from repro.core.errors import CertificateError, ZoneError
from repro.core.identifiers import NodeId, ZonePath
from repro.gossip.antientropy import Version, VersionedStore
from repro.runtime.interface import Runtime
from repro.sim.node import Process
from repro.sim.trace import TraceLog
from repro.astrolabe.aql import compile_program
from repro.astrolabe.certificates import AggregationCertificate, KeyChain
from repro.astrolabe.messages import (
    CertDelta,
    CertDigest,
    GossipFinish,
    GossipReply,
    GossipRequest,
    JoinReply,
    JoinRequest,
)
from repro.astrolabe.mib import AttributeValue, Row
from repro.astrolabe.zone import ZoneDelta, ZoneTable

#: Attributes every leaf row carries so the standard aggregations work.
BASE_LEAF_ATTRIBUTES = ("nmembers", "load", "contacts", "loads", "leaf")

#: Listener signature for table-change notifications.
TableListener = Callable[[ZonePath, list[str]], None]


def expiry_cutoff(now: float, config: NewsWireConfig) -> float:
    """Timestamp horizon below which unrefreshed rows are reaped.

    One definition shared by the per-agent expiry/merge paths here and
    the batched rounds of ``repro.scale`` — both backends must age out
    a silent member after exactly ``row_ttl_rounds`` gossip intervals,
    or their zone views drift apart.
    """
    return now - config.gossip.interval * config.gossip.row_ttl_rounds


class AstrolabeAgent(Process):
    """One Astrolabe participant (a leaf of the zone tree)."""

    def __init__(
        self,
        node_id: NodeId,
        runtime: Runtime,
        config: NewsWireConfig,
        keychain: KeyChain,
        trace: Optional[TraceLog] = None,
    ):
        if node_id.depth < 1:
            raise ZoneError("an agent needs a leaf path below the root")
        super().__init__(node_id, runtime)
        self.config = config
        self.keychain = keychain
        self.trace = trace if trace is not None else TraceLog(runtime, kinds=set())
        # Instruments are looked up once here; gossip hot paths then pay
        # a single attribute increment per observation.
        metrics = self.trace.metrics
        self._m_gossip_rounds = metrics.counter("gossip.rounds")
        self._m_gossip_requests = metrics.counter("gossip.requests")
        self._m_delta_bytes = metrics.counter("gossip.delta_bytes")
        #: Ancestors root-first: zones[0] is the root, zones[-1] the parent.
        self.zones: list[ZonePath] = list(node_id.ancestors())
        self.tables: Dict[ZonePath, ZoneTable] = {
            zone: ZoneTable(zone, config.branching_factor) for zone in self.zones
        }
        self._own_attributes: Dict[str, AttributeValue] = {
            "zone": node_id.name,
            "nmembers": 1,
            "load": 0.0,
            "contacts": (str(node_id),),
            "loads": (0.0,),
            "leaf": True,
        }
        self._certs: VersionedStore[str, AggregationCertificate] = VersionedStore()
        #: Sorted (name, cert) view, rebuilt lazily behind a dirty flag
        #: instead of re-sorting on every evaluation of every zone.
        self._certs_sorted: Optional[list[tuple[str, AggregationCertificate]]] = None
        #: Bumped on every accepted install; part of the aggregation
        #: cache key so new mobile code invalidates cached results.
        self._certs_token = 0
        #: Per-zone aggregation results keyed on (table content, certs)
        #: tokens — unchanged zones skip AQL re-evaluation entirely.
        self._agg_cache: Dict[
            ZonePath, tuple[tuple[int, int], Dict[str, AttributeValue]]
        ] = {}
        self._listeners: list[TableListener] = []
        self._rng = runtime.rng("gossip")
        self._gossip_timer = None
        #: Contacts seen recently, kept across expiry so an agent whose
        #: rows all aged out (e.g. after a long crash) can re-join
        #: instead of staying isolated forever.
        self._remembered_peers: list[str] = []
        self._last_stamp = -1.0

    def _stamp(self) -> float:
        """A strictly increasing local timestamp.

        Two row updates within the same instant must produce ordered
        versions, or the second write loses the LWW merge against the
        first and is silently discarded.
        """
        stamp = self.now
        if stamp <= self._last_stamp:
            stamp = self._last_stamp + 1e-9
        self._last_stamp = stamp
        return stamp

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def on_start(self) -> None:
        self._refresh_own_row()
        self._recompute_aggregates()
        jitter = self._rng.uniform(0, self.config.gossip.jitter)
        self._gossip_timer = self.every(
            self.config.gossip.interval,
            self._gossip_round,
            first_delay=jitter if jitter > 0 else self.config.gossip.interval,
        )

    def on_recover(self) -> None:
        """Restart the gossip loop; replicated state survived the crash."""
        self.on_start()

    # ------------------------------------------------------------------
    # Own row management
    # ------------------------------------------------------------------

    @property
    def parent_zone(self) -> ZonePath:
        return self.zones[-1]

    def set_attribute(self, name: str, value: AttributeValue) -> None:
        """Export ``value`` as attribute ``name`` of this agent's row.

        Takes effect immediately in the local replica; other replicas
        learn of it epidemically within O(log n) gossip rounds.
        """
        self._own_attributes[name] = value
        if name == "load":
            self._own_attributes["loads"] = (value,)
        if not self.crashed:
            self._refresh_own_row()
            self._recompute_aggregates()

    def set_attributes(self, attributes: Mapping[str, AttributeValue]) -> None:
        for name, value in attributes.items():
            self._own_attributes[name] = value
            if name == "load":
                self._own_attributes["loads"] = (value,)
        if not self.crashed:
            self._refresh_own_row()
            self._recompute_aggregates()

    def get_attribute(self, name: str) -> AttributeValue:
        return self._own_attributes.get(name)

    @property
    def load(self) -> float:
        return float(self._own_attributes.get("load", 0.0))

    def set_load(self, load: float) -> None:
        self.set_attribute("load", float(load))

    def refresh(self) -> None:
        """Re-publish the own row and recompute aggregates immediately."""
        self._refresh_own_row()
        self._recompute_aggregates()

    def _refresh_own_row(self) -> None:
        writer = str(self.node_id)
        row = Row(self._own_attributes, (self._stamp(), writer), writer)
        self.tables[self.parent_zone].put_row(self.node_id.name, row)

    def own_row(self) -> Optional[Row]:
        return self.tables[self.parent_zone].row(self.node_id.name)

    # ------------------------------------------------------------------
    # Tables and aggregation
    # ------------------------------------------------------------------

    def zone_table(self, zone: ZonePath) -> ZoneTable:
        try:
            return self.tables[zone]
        except KeyError:
            raise ZoneError(f"{self.node_id} does not replicate {zone}") from None

    def replicates(self, zone: ZonePath) -> bool:
        return zone in self.tables

    def add_table_listener(self, listener: TableListener) -> None:
        """Register a callback fired as ``listener(zone, changed_labels)``."""
        self._listeners.append(listener)

    def install_aggregation(self, certificate: AggregationCertificate) -> bool:
        """Verify and install mobile code; newest ``issued_at`` wins."""
        certificate.verify(self.keychain)
        try:
            compile_program(certificate.aql_source)
        except Exception as exc:
            raise CertificateError(
                f"aggregation certificate {certificate.name!r} does not parse: {exc}"
            ) from exc
        version: Version = (certificate.issued_at, certificate.certificate.issuer)
        installed = self._certs.put(certificate.name, certificate, version)
        if installed:
            self._certs_sorted = None
            self._certs_token += 1
            if not self.crashed:
                self._recompute_aggregates()
        return installed

    def aggregation_certificates(self) -> list[AggregationCertificate]:
        return [cert for _, cert in self._sorted_certs()]

    def _sorted_certs(self) -> list[tuple[str, AggregationCertificate]]:
        if self._certs_sorted is None:
            self._certs_sorted = sorted(self._certs.items(), key=lambda kv: kv[0])
        return self._certs_sorted

    def evaluate_zone(self, zone: ZonePath) -> Dict[str, AttributeValue]:
        """Evaluate all in-scope aggregation functions over ``zone``'s table.

        This is both the internal step that produces ``zone``'s row in
        its parent table, and the public query interface ("the root
        zone will have all the information", §6) — call it with the
        root path to read global aggregates as this agent sees them.

        Results are cached per zone, keyed on the table's content token
        and the installed-certificate generation: aggregation is a pure
        function of row *values* and programs, so when neither changed
        since the last evaluation the cached map is returned (as a
        fresh copy — callers may mutate it) and the AQL run is skipped.
        Version-only row refreshes do not invalidate the cache.
        """
        table = self.zone_table(zone)
        token = (table.content_token, self._certs_token)
        cached = self._agg_cache.get(zone)
        if cached is not None and cached[0] == token:
            return dict(cached[1])
        rows = table.row_mappings()
        output: Dict[str, AttributeValue] = {}
        for name, certificate in self._sorted_certs():
            if not certificate.scope.contains(zone):
                continue
            program = compile_program(certificate.aql_source)
            result = program.evaluate(rows)
            for key, value in result.items():
                if isinstance(value, (list, set)):
                    value = tuple(value)
                output[key] = value
        self._agg_cache[zone] = (token, output)
        return dict(output)

    def _recompute_aggregates(self) -> None:
        """Refresh the aggregate row of every zone on the root path.

        Bottom-up, so a leaf change flows into the parent row before
        the parent's table is itself aggregated one level higher —
        "much as a spreadsheet updates dependent cells" (§3).
        """
        writer = f"agg:{self.node_id}"
        for index in range(len(self.zones) - 1, 0, -1):
            zone = self.zones[index]
            table = self.tables[zone]
            if table.is_empty:
                continue
            attributes = self.evaluate_zone(zone)
            if not attributes:
                continue
            attributes["zone"] = zone.name
            attributes["leaf"] = False
            row = Row(attributes, (self._stamp(), writer), writer)
            self.tables[self.zones[index - 1]].put_row(zone.name, row)

    # ------------------------------------------------------------------
    # Gossip
    # ------------------------------------------------------------------

    def _gossip_round(self) -> None:
        self._m_gossip_rounds.inc()
        self._refresh_own_row()
        self._recompute_aggregates()
        self._expire_rows()
        gossiped = False
        for zone in self._gossip_zones():
            for partner in self._pick_partners(zone):
                self._send_request(partner, zone)
                gossiped = True
        if not gossiped and self._remembered_peers:
            # Isolated (every row expired, e.g. after a long crash):
            # fall back to the join protocol through a remembered peer.
            introducer = ZonePath.parse(self._rng.choice(self._remembered_peers))
            self.join_via(introducer)

    def _gossip_zones(self) -> list[ZonePath]:
        """Zones this agent gossips this round.

        Everyone gossips its parent zone.  At higher levels only the
        elected contacts of the child zone the agent descends through
        gossip — this keeps per-level wide-area traffic proportional to
        the number of representatives, not members.  While a level is
        still sparse (bootstrap/join), the agent gossips it regardless
        so it can be discovered.
        """
        zones = [self.parent_zone]
        me = str(self.node_id)
        for index in range(len(self.zones) - 1):
            zone = self.zones[index]
            child = self.zones[index + 1]
            child_row = self.tables[zone].row(child.name)
            if child_row is None or len(self.tables[zone]) < 2:
                zones.append(zone)  # bootstrap: not yet aggregated/connected
                continue
            contacts = child_row.get("contacts", ())
            if isinstance(contacts, tuple) and me in contacts:
                zones.append(zone)
        return zones

    def _pick_partners(self, zone: ZonePath) -> list[NodeId]:
        """Gossip partners: contacts drawn from ``zone``'s table rows."""
        me = str(self.node_id)
        candidates: list[str] = []
        for _, row in self.tables[zone].rows():
            contacts = row.get("contacts", ())
            if not isinstance(contacts, tuple):
                continue
            candidates.extend(c for c in contacts if isinstance(c, str) and c != me)
        if not candidates:
            return []
        unique = sorted(set(candidates))
        self._remember_peers(unique)
        count = min(self.config.gossip.fanout, len(unique))
        return [ZonePath.parse(pick) for pick in self._rng.sample(unique, count)]

    def _remember_peers(self, peers: Iterable[str]) -> None:
        for peer in peers:
            if peer not in self._remembered_peers:
                self._remembered_peers.append(peer)
        if len(self._remembered_peers) > 16:
            del self._remembered_peers[: len(self._remembered_peers) - 16]

    def _path_digests(self, zone: ZonePath) -> Dict[ZonePath, Any]:
        """Digests for *every* table we replicate.

        A gossip exchange reconciles all zones both parties replicate
        (the responder simply ignores zones it does not know).  Sending
        the full path rather than just the anchor zone's ancestors
        matters in two ways: leaf-level exchanges refresh the agent's
        view of every level, and a recovering agent whose deep tables
        have emptied out can rebuild them through a root-anchored
        exchange with a same-zone peer.
        """
        return {path: table.digest() for path, table in self.tables.items()}

    def _send_request(self, partner: NodeId, zone: ZonePath) -> None:
        message = GossipRequest(zone, self._path_digests(zone), self._certs.digest())
        self._m_gossip_requests.inc()
        self.trace.record("gossip-request", zone=str(zone), to=str(partner))
        self.send(partner, message)

    # -- message handling --------------------------------------------------

    def on_message(self, sender: NodeId, message: Any) -> None:
        if isinstance(message, GossipRequest):
            self._handle_request(sender, message)
        elif isinstance(message, GossipReply):
            self._handle_reply(sender, message)
        elif isinstance(message, GossipFinish):
            self._handle_finish(sender, message)
        elif isinstance(message, JoinRequest):
            self._handle_join_request(sender, message)
        elif isinstance(message, JoinReply):
            self._handle_join_reply(sender, message)

    def _deltas_for(self, digests: Dict[ZonePath, Any]) -> Dict[ZonePath, ZoneDelta]:
        deltas: Dict[ZonePath, ZoneDelta] = {}
        for zone, digest in digests.items():
            table = self.tables.get(zone)
            if table is None:
                continue
            delta = table.delta_for(digest)
            if delta:
                deltas[zone] = delta
        return deltas

    def _handle_request(self, sender: NodeId, message: GossipRequest) -> None:
        shared = [zone for zone in message.digests if zone in self.tables]
        if not shared:
            return  # stale contact info pointed the sender at a non-member
        reply = GossipReply(
            message.zone,
            self._deltas_for(message.digests),
            {zone: self.tables[zone].digest() for zone in shared},
            self._certs_delta_for(message.certs_digest),
            self._certs.digest(),
        )
        self._m_delta_bytes.inc(reply.wire_size)
        self.send(sender, reply)

    def _handle_reply(self, sender: NodeId, message: GossipReply) -> None:
        finish = GossipFinish(
            message.zone,
            self._deltas_for(message.digests),
            self._certs_delta_for(message.certs_digest),
        )
        self._apply_path_deltas(message.deltas)
        self._apply_certs_delta(message.certs_delta)
        if finish.deltas or finish.certs_delta:
            self._m_delta_bytes.inc(finish.wire_size)
            self.send(sender, finish)

    def _handle_finish(self, sender: NodeId, message: GossipFinish) -> None:
        self._apply_path_deltas(message.deltas)
        self._apply_certs_delta(message.certs_delta)

    def _merge_cutoff(self) -> float:
        """Reject incoming rows older than the expiry horizon."""
        return expiry_cutoff(self.now, self.config)

    def _apply_path_deltas(self, deltas: Dict[ZonePath, ZoneDelta]) -> None:
        """Merge per-zone deltas (deepest first).

        Aggregate recomputation is deferred to the next gossip round:
        recomputing on every incoming message is the dominant cost at
        scale, and the shipped aggregates are at most one round stale
        either way (queries via :meth:`evaluate_zone` always compute
        fresh from the tables).
        """
        cutoff = self._merge_cutoff()
        for zone in sorted(deltas, key=lambda z: -z.depth):
            if zone not in self.tables:
                continue
            changed = self.tables[zone].apply_delta(deltas[zone], min_timestamp=cutoff)
            if changed:
                for listener in self._listeners:
                    listener(zone, changed)

    def _certs_delta_for(self, remote_digest: CertDigest) -> CertDelta:
        return self._certs.delta_for(remote_digest)

    def _apply_certs_delta(self, delta: CertDelta) -> None:
        for name, entry in delta.items():
            try:
                self.install_aggregation(entry.value)
            except CertificateError:
                self.trace.record("cert-rejected", name=name)

    # ------------------------------------------------------------------
    # Expiry (failure handling)
    # ------------------------------------------------------------------

    def _expire_rows(self) -> None:
        cutoff = expiry_cutoff(self.now, self.config)
        if cutoff <= 0:
            return
        for zone, table in self.tables.items():
            expired = table.expire_older_than(cutoff)
            if expired:
                self.trace.record("rows-expired", zone=str(zone), labels=tuple(expired))
        # Our own row and branch aggregates are re-put next refresh.

    # ------------------------------------------------------------------
    # Queries used by the layers above
    # ------------------------------------------------------------------

    def contacts_of(self, zone: ZonePath, child_label: str) -> tuple[str, ...]:
        """The elected contact node-ids of ``child_label`` within ``zone``."""
        row = self.zone_table(zone).row(child_label)
        if row is None:
            return ()
        contacts = row.get("contacts", ())
        return contacts if isinstance(contacts, tuple) else ()

    def is_contact_for(self, zone: ZonePath) -> bool:
        """Is this agent an elected contact of its child zone within ``zone``?"""
        index = self.zones.index(zone)
        if index == len(self.zones) - 1:
            return True  # every member represents itself in its parent zone
        child = self.zones[index + 1]
        return str(self.node_id) in self.contacts_of(zone, child.name)

    def root_aggregate(self, attribute: str) -> AttributeValue:
        """This agent's current view of a root-level aggregate attribute."""
        return self.evaluate_zone(self.zones[0]).get(attribute)

    # ------------------------------------------------------------------
    # Joining (bootstrap beyond the pre-seeded deployment)
    # ------------------------------------------------------------------

    def join_via(self, introducer: NodeId) -> None:
        """Ask a running member to seed our replicated tables."""
        self.send(introducer, JoinRequest(self.node_id))

    def _handle_join_request(self, sender: NodeId, message: JoinRequest) -> None:
        tables: Dict[ZonePath, ZoneDelta] = {}
        for zone in message.joiner.ancestors():
            table = self.tables.get(zone)
            if table is not None:
                tables[zone] = table.delta_for({})
        certs = self._certs_delta_for({})
        self.send(sender, JoinReply(tables, certs))

    def _handle_join_reply(self, sender: NodeId, message: JoinReply) -> None:
        self._apply_certs_delta(message.certs_delta)
        self._apply_path_deltas(message.tables)
        self._refresh_own_row()
        self._recompute_aggregates()
