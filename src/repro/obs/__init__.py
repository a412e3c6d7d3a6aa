"""Observability and statistics: sinks, metrics, collectors, tables.

The subsystem has five pieces (see ``docs/OBSERVABILITY.md``):

* **Sinks** (:mod:`repro.obs.sinks`) — where trace events go.  The
  :class:`~repro.sim.trace.TraceLog` is a fan-out dispatcher over a
  list of :class:`TraceSink` implementations; the default
  :class:`MemorySink` reproduces the historical append-everything
  behaviour, :class:`StreamingSink` folds events into bounded-memory
  aggregates, :class:`JsonlFileSink` writes offline artifacts.
* **Metrics** (:mod:`repro.obs.metrics`) — counters/gauges/histograms
  the protocol layers register once and bump inline (gossip rounds,
  anti-entropy delta bytes, Bloom tests and hits, queue depths).
* **Manifests** (:mod:`repro.obs.manifest`) — the per-run provenance
  artifact (seed, config, git revision, wall time, metric snapshot).
* **Statistics** (:mod:`repro.obs.stats`) — exact percentiles and
  summaries, time buckets, sparklines and the fixed-width tables every
  experiment prints.
* **Collectors** (:mod:`repro.obs.collectors`) — delivery latencies,
  ratios and event timelines read from a trace's sinks.
"""

from repro.obs.causal import (
    CausalSink,
    CriticalPath,
    ItemTree,
    PathSegment,
    Span,
    format_causal_report,
)
from repro.obs.collectors import (
    DeliveryStats,
    collect_delivery_stats,
    delivery_latencies,
    delivery_ratio,
    event_timeline,
    latency_summary,
)
from repro.obs.manifest import RunManifest, git_revision, manifest_schema_errors
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    HistogramData,
    MetricsRegistry,
)
from repro.obs.probes import probe_queue_depths
from repro.obs.profile import (
    KernelProfiler,
    format_profile_report,
    profile_simulations,
)
from repro.obs.sinks import (
    JsonlFileSink,
    MemorySink,
    StreamingSink,
    TraceEvent,
    TraceSink,
    normalize_field,
)
from repro.obs.stats import (
    Summary,
    TimeBucket,
    bucketize,
    format_table,
    format_value,
    percentile,
    ratio,
    sparkline,
)
from repro.obs.timeseries import (
    RingBufferSeries,
    TimeSeriesBundle,
    TimeSeriesRecorder,
    record_simulations,
)

__all__ = [
    "CausalSink",
    "Counter",
    "CriticalPath",
    "DEFAULT_BUCKETS",
    "DeliveryStats",
    "Gauge",
    "Histogram",
    "HistogramData",
    "ItemTree",
    "JsonlFileSink",
    "KernelProfiler",
    "MemorySink",
    "MetricsRegistry",
    "PathSegment",
    "RingBufferSeries",
    "RunManifest",
    "Span",
    "StreamingSink",
    "Summary",
    "TimeBucket",
    "TimeSeriesBundle",
    "TimeSeriesRecorder",
    "TraceEvent",
    "TraceSink",
    "bucketize",
    "collect_delivery_stats",
    "delivery_latencies",
    "delivery_ratio",
    "event_timeline",
    "format_causal_report",
    "format_profile_report",
    "format_table",
    "format_value",
    "git_revision",
    "latency_summary",
    "manifest_schema_errors",
    "normalize_field",
    "percentile",
    "probe_queue_depths",
    "profile_simulations",
    "ratio",
    "record_simulations",
    "sparkline",
]
