"""Per-layer self time, measured from outside the program.

The tracer builds a span tree for every dispatched simulator event:

* the **root span** is the event itself.  The kernel's public dispatch
  monitor hook (``Simulation.add_monitor``) hands the tracer each
  callback, its arguments and its wall-clock cost after it ran.  The
  root is charged to the layer whose module defines the handler, seen
  through the timer wrappers (``PeriodicEvent._fire``,
  ``Process._guarded``);
* **child spans** come from wrappers installed, for the traced run
  only, around public entry points of each layer (``Network.send``,
  ``BloomScheme.zone_may_match``, ``ForwardingQueues.enqueue``,
  ``AstrolabeAgent.evaluate_zone``, ``ZoneTable.apply_delta``,
  ``TraceLog.record``, ...).  ``Process.receive`` is charged to the
  layer that owns the message's type (the module of
  ``type(message)``), so a ``Network._deliver`` event pays the network
  only for its own bookkeeping and the receiver's gossip merge or
  multicast forward lands in gossip or multicast.

A span's self time is its duration minus the time its children cover.
Spans are aggregated in memory per entry point (calls, inclusive and
self seconds) and per layer, and written out when the run ends.
Kernel self time is the run phase's wall time minus the time spent in
dispatched handlers and minus the tracer's own per-event bookkeeping,
which is reported separately, so every second of the run phase is
charged to exactly one bucket.
"""

from __future__ import annotations

import functools
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Self-time buckets.  ``other`` catches handlers no layer claims.
LAYERS: Tuple[str, ...] = (
    "kernel",
    "network",
    "gossip",
    "aggregate",
    "pubsub",
    "multicast",
    "repair",
    "queues",
    "news",
    "trace",
    "scale.round",
    "scale.publish",
    "scale.deliver",
    "other",
)

#: Module prefix -> layer for event handlers, most specific first.
_HANDLER_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.sim.network", "network"),
    ("repro.astrolabe", "gossip"),
    ("repro.gossip", "gossip"),
    ("repro.multicast.queues", "queues"),
    ("repro.multicast", "multicast"),
    ("repro.pubsub", "pubsub"),
    ("repro.news", "news"),
    ("repro.scale.batched", "scale.round"),
    ("repro.scale", "scale.deliver"),
    ("repro.sim.trace", "trace"),
    ("repro.obs", "trace"),
)


def handler_layer(handler: Any) -> str:
    """The layer a dispatched handler belongs to."""
    module = getattr(handler, "__module__", "") or ""
    name = getattr(handler, "__qualname__", "") or ""
    if module.startswith("repro.multicast.node") and name.endswith("_repair_round"):
        return "repair"
    if module.startswith("repro.scale.backend") and "publish" in name:
        return "scale.publish"
    for prefix, layer in _HANDLER_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "other"


def message_layer(message_type: type) -> str:
    """The layer that owns a message type (for ``Process.receive``)."""
    module = message_type.__module__
    if module.startswith("repro.astrolabe") or module.startswith("repro.gossip"):
        return "gossip"
    if module.startswith("repro.multicast"):
        return "multicast" if message_type.__name__ == "ForwardMsg" else "repair"
    return handler_layer(message_type)


class Tracer:
    """Span tree aggregation for one traced run.

    ``phase`` gates the wrappers: spans are recorded only between
    :meth:`begin_run` and :meth:`end_run`; set-up timers only between
    :meth:`begin_setup` and :meth:`end_setup`; otherwise the wrappers
    call straight through.
    """

    def __init__(self) -> None:
        self.phase: Optional[str] = None
        self.self_s: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        #: entry point -> [calls, inclusive seconds, self seconds]
        self.spans: Dict[str, List[float]] = {}
        #: Child time accumulators; index 0 collects the top-level
        #: children of the event being dispatched.
        self._stack: List[float] = [0.0]
        self.counts: Dict[str, int] = {}
        self.setup: Dict[str, float] = {}
        self.handler_s = 0.0
        self.observe_s = 0.0
        self.events = 0
        self.heap_max = 0
        self.run_s = 0.0
        self.setup_s = 0.0
        self._layer_cache: Dict[Any, str] = {}
        self._message_layers: Dict[type, str] = {}
        self._patched: List[Tuple[type, str, Any]] = []
        self._sim = None
        from repro.sim.engine import PeriodicEvent
        from repro.sim.node import Process

        self._fire = PeriodicEvent._fire
        self._guarded = Process._guarded

    # -- phases ------------------------------------------------------------

    def begin_setup(self) -> None:
        self.phase = "setup"

    def end_setup(self, setup_s: float) -> None:
        self.phase = None
        self.setup_s = setup_s

    def begin_run(self, sim) -> None:
        self._sim = sim
        sim.add_monitor(self)
        self._stack[:] = [0.0]
        self.phase = "run"

    def end_run(self, run_s: float) -> None:
        self.phase = None
        self.run_s = run_s
        if self._sim is not None:
            self._sim.remove_monitor(self)
            self._sim = None
        self.self_s["kernel"] = run_s - self.handler_s - self.observe_s

    # -- the dispatch monitor (root spans) ---------------------------------

    def observe(self, callback, args, elapsed, sim_time, heap_len) -> None:
        entered = perf_counter()
        stack = self._stack
        layer = self._root_layer(callback, args)
        self.self_s[layer] += elapsed - stack[0]
        stack[0] = 0.0
        self.handler_s += elapsed
        self.events += 1
        if heap_len > self.heap_max:
            self.heap_max = heap_len
        self.observe_s += perf_counter() - entered

    def _root_layer(self, callback, args) -> str:
        for _ in range(8):  # timer wrappers never nest deeper
            func = getattr(callback, "__func__", callback)
            if func is self._fire:
                owner = callback.__self__
                callback, args = owner.callback, owner.args
            elif func is self._guarded:
                callback, args = args[0], tuple(args[1])
            elif isinstance(callback, functools.partial):
                callback = callback.func
            else:
                break
        func = getattr(callback, "__func__", callback)
        layer = self._layer_cache.get(func)
        if layer is None:
            layer = self._layer_cache[func] = handler_layer(func)
        return layer

    # -- child spans -------------------------------------------------------

    def _span(self, name: str, layer: str, fn: Callable, on_return=None,
              dynamic: Optional[Callable] = None) -> Callable:
        tracer = self
        stack = self._stack
        self_s = self.self_s
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.phase != "run":
                return fn(*args, **kwargs)
            stack.append(0.0)
            started = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                total = perf_counter() - started
                own = total - stack.pop()
                stack[-1] += total
                self_s[layer if dynamic is None else dynamic(args)] += own
                stats[0] += 1
                stats[1] += total
                stats[2] += own
            if on_return is not None:
                on_return(args, result)
            return result

        return wrapper

    def _setup_timer(self, name: str, fn: Callable) -> Callable:
        tracer = self
        setup = self.setup
        setup.setdefault(name, 0.0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.phase != "setup":
                return fn(*args, **kwargs)
            started = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                setup[name] += perf_counter() - started

        return wrapper

    def _count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _receive_layer(self, args) -> str:
        message_type = type(args[2])
        layer = self._message_layers.get(message_type)
        if layer is None:
            layer = self._message_layers[message_type] = message_layer(message_type)
        return layer

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap the layers' entry points.  Call before the traced build:
        some bound methods (``Network.send``) are captured at build."""
        from repro.astrolabe.agent import AstrolabeAgent
        from repro.astrolabe.zone import ZoneTable
        from repro.multicast.node import MulticastNode
        from repro.multicast.queues import ForwardingQueues
        from repro.news.node import NewsWireNode
        from repro.pubsub.node import PubSubNode
        from repro.pubsub.schemes import BloomScheme
        from repro.scale.backend import ColumnarNewsWire
        from repro.sim.network import Network
        from repro.sim.node import Process
        from repro.sim.trace import TraceLog
        from repro.workloads.populations import InterestModel

        def zone_test(args, matched):
            self._count("pubsub.zone_tests")
            if matched:
                self._count("pubsub.zone_hits")

        def aggregate(args, result):
            self._count("astrolabe.aggregate_calls")

        def merge(args, changed):
            self._count("gossip.rows_received", len(args[1]))
            self._count("gossip.rows_changed", len(changed))

        spans = (
            (Network, "send", "network", None, None),
            (Process, "receive", "network", None, self._receive_layer),
            (BloomScheme, "zone_may_match", "pubsub", zone_test, None),
            (PubSubNode, "accept", "pubsub", None, None),
            (MulticastNode, "send_to_zone", "multicast", None, None),
            (ForwardingQueues, "enqueue", "queues", None, None),
            (AstrolabeAgent, "evaluate_zone", "aggregate", aggregate, None),
            (ZoneTable, "apply_delta", "gossip", merge, None),
            (NewsWireNode, "on_deliver", "news", None, None),
            (TraceLog, "record", "trace", None, None),
        )
        for cls, attr, layer, on_return, dynamic in spans:
            original = cls.__dict__[attr]
            name = f"{cls.__name__}.{attr}"
            self._patch(
                cls, attr, self._span(name, layer, original, on_return, dynamic)
            )
        for cls, attr, bucket in (
            (InterestModel, "prepare", "interest"),
            (InterestModel, "subscriptions_for", "interest"),
            (ColumnarNewsWire, "install_subscriptions", "install"),
        ):
            self._patch(cls, attr, self._setup_timer(bucket, cls.__dict__[attr]))

    def _patch(self, cls: type, attr: str, replacement: Any) -> None:
        self._patched.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def uninstall(self) -> None:
        while self._patched:
            cls, attr, original = self._patched.pop()
            setattr(cls, attr, original)

    # -- results -----------------------------------------------------------

    @property
    def charged_s(self) -> float:
        """Every charged second: layer self times plus tracer bookkeeping."""
        return sum(self.self_s.values()) + self.observe_s

    def span_table(self) -> List[Tuple[str, int, float, float]]:
        rows = [
            (name, int(calls), inclusive, own)
            for name, (calls, inclusive, own) in self.spans.items()
        ]
        return sorted(rows, key=lambda row: -row[3])
