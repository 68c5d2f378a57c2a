"""Observability: metrics, tracing, and instrumentation hooks.

The paper's whole method is *observing* opaque FaaS infrastructure; this
package turns the same lens on the library itself.  Three primitives —

* :mod:`hooks` — a pub/sub :class:`EventBus` with a zero-cost
  :data:`NULL_BUS` default that every instrumented component holds;
* :mod:`metrics` — a :class:`MetricsRegistry` of labeled counters,
  gauges, and streaming histograms (p50/p95/p99);
* :mod:`trace` — span-based request-lifecycle tracing on sim-clock
  timestamps with a bounded trace store;

— plus :mod:`export` (JSONL / Prometheus text / CSV) and the
:class:`Observability` facade that bundles all of them and bridges events
into standard metrics.  Observability is **opt-in**: nothing is recorded
until a facade (or bus) is installed on a :class:`~repro.cloudsim.Cloud`
or passed to a :class:`~repro.core.SkyController`, and the disabled
default costs one attribute check per emission site.
"""

from repro.obs.hooks import Event, EventBus, EventRecorder, NULL_BUS, NullBus
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    quantile,
)
from repro.obs.trace import Span, Trace, Tracer, format_trace
from repro.obs.catalog import EVENT_METRICS, UNBRIDGED, compile_catalog
from repro.common.lazy_exports import lazy_getattr

#: The bridge's compiled lookup table (see :mod:`repro.obs.catalog`).
_PLANS = compile_catalog()


class Observability(object):
    """One handle over the whole layer: bus + registry + tracer + recorder.

    Construct it, then either ``install(cloud)`` (wires the bus through the
    cloud's zones and host pools) or pass it to ``SkyController(obs=...)``
    / ``SmartRouter(obs=...)`` which install and trace on your behalf.

    A built-in bridge folds the standard event stream into registry
    metrics through :data:`~repro.obs.catalog.EVENT_METRICS`, so
    per-zone/per-cpu counters and latency histograms exist without any
    manual subscription.
    """

    def __init__(self, event_capacity=20000, max_traces=256, bridge=True):
        self.bus = EventBus()
        self.registry = MetricsRegistry()
        self.tracer = Tracer(max_traces=max_traces)
        self.recorder = EventRecorder(self.bus, capacity=event_capacity)
        # Bound update methods per (event, label values), one slot per
        # catalog row; dropped when the registry is cleared.
        self._ops = {}
        self._generation = self.registry.generation
        if bridge:
            self.bus.subscribe(self._bridge)

    @property
    def enabled(self):
        """Collection switch: gates the bus AND request tracing."""
        return self.bus.enabled

    # -- wiring -------------------------------------------------------------
    def install(self, cloud):
        """Attach this facade's bus to ``cloud`` (zones + host pools)."""
        cloud.attach_bus(self.bus)
        return self

    def enable(self):
        self.bus.resume()
        return self

    def disable(self):
        """Pause collection without detaching any wiring."""
        self.bus.pause()
        return self

    # -- the standard event → metric bridge ---------------------------------
    def _bridge(self, event):
        """Fold one event into the registry through its catalog rows.

        A row's update method is bound on the row's first non-skipped
        value per (event, label values), so a series appears exactly
        when the event first feeds it; later events cost one dict
        lookup plus one call per row.
        """
        plan = _PLANS.get(event.name)
        if plan is None:
            return
        registry = self.registry
        if registry.generation != self._generation:
            self._ops.clear()
            self._generation = registry.generation
        fields = event.fields
        key_of, rows = plan
        key = (event.name, key_of(fields))
        ops = self._ops.get(key)
        if ops is None:
            ops = self._ops[key] = [None] * len(rows)
        for index, (value_of, skip_zero, bind) in enumerate(rows):
            value = value_of(fields)
            if skip_zero and not value:
                continue
            op = ops[index]
            if op is None:
                op = ops[index] = bind(registry, fields)
            op(value)

    # -- summaries ----------------------------------------------------------
    def zone_latency_summary(self):
        """zone -> {requests, mean, p50, p95, p99} from invoke histograms."""
        return self._latency_summary("zone")

    def cpu_latency_summary(self):
        """cpu -> {requests, mean, p50, p95, p99} from invoke histograms."""
        return self._latency_summary("cpu")

    def _latency_summary(self, label):
        merged = {}
        for labels in self.registry.labels_of("invoke_latency_s"):
            histogram = self.registry.get("invoke_latency_s", **labels)
            bucket = merged.setdefault(labels[label], [])
            bucket.append(histogram)
        summary = {}
        empty = float("nan")
        for key, histograms in sorted(merged.items()):
            values = []
            for histogram in histograms:
                values.extend(histogram._reservoir)
            values.sort()
            count = sum(h.count for h in histograms)
            total = sum(h.sum for h in histograms)
            # A cold series (touch-created or merged-empty histograms)
            # reports NaN quantiles rather than crashing — or lying with
            # 0.0 — about latencies nobody measured.
            summary[key] = {
                "requests": count,
                "mean_latency_s": total / count if count else empty,
                "p50_latency_s": quantile(values, 0.50) if values else empty,
                "p95_latency_s": quantile(values, 0.95) if values else empty,
                "p99_latency_s": quantile(values, 0.99) if values else empty,
            }
        return summary

    def __repr__(self):
        return ("Observability(enabled={}, events={}, metrics={}, "
                "traces={})".format(self.bus.enabled, len(self.recorder),
                                    len(self.registry), len(self.tracer)))


__all__ = [
    "Observability",
    "EVENT_METRICS",
    "UNBRIDGED",
    "Event",
    "EventBus",
    "EventRecorder",
    "NullBus",
    "NULL_BUS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "quantile",
    "Span",
    "Trace",
    "Tracer",
    "format_trace",
    "export",
    "TelemetryCapture",
    "TelemetryMerge",
    "current_capture",
    "RunManifest",
    "RunRegistry",
    "DEFAULT_REGISTRY",
    "ObsServer",
    "scrape",
    "render_tail",
]

#: Loaded on first access (:mod:`repro.common.lazy_exports`): the
#: exporters, telemetry shipping and run manifests serve only the runs
#: that ask for them, and :mod:`repro.obs.serve` pulls in the stdlib
#: HTTP/TLS stack, which ``import repro`` (every sweep worker) should not
#: pay for.
__getattr__ = lazy_getattr(globals(), {
    "export": "repro.obs.export",
    "TelemetryCapture": "repro.obs.ship",
    "TelemetryMerge": "repro.obs.ship",
    "current_capture": "repro.obs.ship",
    "DEFAULT_REGISTRY": "repro.obs.manifest",
    "RunManifest": "repro.obs.manifest",
    "RunRegistry": "repro.obs.manifest",
    "ObsServer": "repro.obs.serve",
    "render_tail": "repro.obs.serve",
    "scrape": "repro.obs.serve",
})
