"""The event catalog: which metrics each bus event feeds.

:data:`EVENT_METRICS` maps every bridged event name to its rows.  A row
names a metric kind and family, the event fields that become its labels
(plus any constant labels), the value it records (a field, a constant,
or a small lookup table), whether a zero value is skipped, and — for
histograms — its bucket layout.  :class:`~repro.obs.Observability`
folds events through these rows and nothing else; events listed in
:data:`UNBRIDGED` are emitted for subscribers but feed no metric.
``docs/api.md`` carries the same table as :func:`catalog_markdown`.
"""

import collections
from operator import itemgetter

from repro.obs.metrics import COUNTER, GAUGE, HISTOGRAM

_REQUIRED = object()

#: Numeric encoding of breaker states for the ``breaker_state`` gauge
#: (Prometheus gauges are floats): closed=0, half_open=1, open=2.
BREAKER_STATE_CODES = {"closed": 0, "half_open": 1, "open": 2}

#: Request counts per coalesced flush: powers of two from 1 to 4,096.
BATCH_SIZE_BUCKETS = tuple(float(2 ** power) for power in range(13))

#: Millisecond-scale buckets for per-cell wall times (the default bucket
#: ladder is in seconds and tops out far too low for multi-second cells).
WALL_MS_BUCKETS = (1.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
                   1000.0, 2500.0, 5000.0, 10000.0, 30000.0, 60000.0)


class Field(object):
    """An event field read as a label or a value; ``default`` stands in
    for a missing field (without one, a missing field raises)."""

    __slots__ = ("name", "default")

    def __init__(self, name, default=_REQUIRED):
        self.name = name
        self.default = default

    def getter(self):
        if self.default is _REQUIRED:
            return itemgetter(self.name)
        name, default = self.name, self.default
        return lambda fields: fields.get(name, default)

    def describe(self):
        if self.default is _REQUIRED:
            return "`{}`".format(self.name)
        return "`{}` (default {!r})".format(self.name, self.default)


class Lookup(object):
    """An event field mapped through a small table; values missing from
    ``mapping`` record ``default``."""

    __slots__ = ("name", "mapping", "default")

    def __init__(self, name, mapping, default):
        self.name = name
        self.mapping = dict(mapping)
        self.default = default

    def getter(self):
        name, mapping, default = self.name, self.mapping, self.default
        return lambda fields: mapping.get(fields[name], default)

    def describe(self):
        pairs = ", ".join("{!r}→{}".format(key, value)
                          for key, value in self.mapping.items())
        return "`{}` via {{{}}} else {}".format(self.name, pairs,
                                               self.default)


class Constant(object):
    """A fixed value recorded once per event (``1.0`` counts events)."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def getter(self):
        value = self.value
        return lambda fields: value

    def describe(self):
        return "1 per event" if self.value == 1.0 else repr(self.value)


MetricRow = collections.namedtuple(
    "MetricRow", "kind metric labels const value skip_zero buckets")


def _row(kind, metric, labels=(), value=1.0, skip_zero=False, buckets=None,
         const=()):
    labels = tuple(Field(label) if isinstance(label, str) else label
                   for label in labels)
    if isinstance(value, str):
        value = Field(value)
    elif isinstance(value, (int, float)):
        value = Constant(float(value))
    return MetricRow(kind, metric, labels, tuple(const), value,
                     bool(skip_zero), buckets)


def counter(metric, **options):
    return _row(COUNTER, metric, **options)


def gauge(metric, **options):
    return _row(GAUGE, metric, **options)


def histogram(metric, **options):
    return _row(HISTOGRAM, metric, **options)


_ZONE = ("zone",)
_ZONE_CPU = ("zone", "cpu")
_WORKER = (Field("worker", "unknown"),)

#: Event name -> the metric rows it feeds, in the order they apply.
EVENT_METRICS = {
    "cloud.invoke": (
        counter("invocations_total", labels=_ZONE_CPU),
        histogram("invoke_latency_s", labels=_ZONE_CPU, value="latency_s"),
        counter("invoke_cost_usd_total", labels=_ZONE_CPU,
                value="cost_usd"),
        counter("cold_starts_total", labels=_ZONE_CPU,
                value=Lookup("reused", {False: 1.0}, 0.0), skip_zero=True),
    ),
    "cloud.poll_batch": (
        counter("poll_batches_total", labels=_ZONE),
        counter("poll_batch_requests_total", labels=_ZONE,
                value="requested"),
        counter("poll_batch_served_total", labels=_ZONE, value="served"),
        counter("poll_batch_failed_total", labels=_ZONE, value="failed"),
        counter("poll_batch_cold_starts_total", labels=_ZONE,
                value="cold_starts"),
        counter("poll_batch_cost_usd_total", labels=_ZONE,
                value="cost_usd"),
        counter("poll_batch_runtime_seconds_total", labels=_ZONE,
                value="runtime_total_s"),
    ),
    "az.placement": (
        counter("placements_total", labels=_ZONE),
        counter("placement_requests_total", labels=_ZONE,
                value="requested"),
        counter("placement_served_total", labels=_ZONE, value="served"),
        counter("placement_failed_total", labels=_ZONE, value="failed"),
        gauge("zone_occupancy", labels=_ZONE, value="occupancy"),
    ),
    "az.saturation": (
        counter("saturation_events_total", labels=_ZONE),
    ),
    "az.scale": (
        counter("surge_slots_total", labels=_ZONE, value="slots_added"),
    ),
    "host.expire": (
        counter("slots_released_total", labels=_ZONE_CPU,
                value="released"),
    ),
    "host.allocate": (
        counter("slots_allocated_total", labels=_ZONE_CPU, value="count"),
    ),
    "sampling.poll": (
        counter("polls_total", labels=_ZONE),
        counter("poll_cost_usd_total", labels=_ZONE, value="cost_usd"),
        histogram("poll_failure_rate", labels=_ZONE, value="failure_rate"),
    ),
    "sampling.campaign": (
        counter("campaigns_total", labels=_ZONE),
    ),
    "retry.attempt": (
        counter("retry_attempts_total", labels=_ZONE_CPU),
    ),
    "retry.hold": (
        counter("retry_holds_total", labels=_ZONE),
        counter("retry_hold_cost_usd_total", labels=_ZONE,
                value="cost_usd"),
    ),
    "retry.abort": (
        counter("retry_aborts_total", labels=("zone", "reason")),
    ),
    "controller.refresh": (
        counter("profile_refreshes_total", labels=_ZONE),
        counter("sampling_cost_usd_total", labels=_ZONE, value="cost_usd"),
    ),
    "fault.injected": (
        counter("faults_injected_total", labels=("zone", "kind")),
    ),
    "breaker.transition": (
        counter("breaker_transitions_total", labels=("zone", "to")),
        gauge("breaker_state", labels=_ZONE,
              value=Lookup("to", BREAKER_STATE_CODES, -1)),
    ),
    "router.failover": (
        counter("failovers_total", labels=("zone", "reason")),
    ),
    "router.backoff": (
        counter("backoffs_total", labels=_ZONE),
        counter("backoff_seconds_total", labels=_ZONE, value="delay_s"),
    ),
    "router.hedge": (
        counter("hedges_total", labels=_ZONE),
        counter("hedge_wins_total", labels=_ZONE,
                value=Lookup("won", {True: 1.0}, 0.0), skip_zero=True),
    ),
    "sweep.cell": (
        counter("sweep_cells_total"),
        histogram("sweep_cell_wall_ms", value="wall_ms",
                  buckets=WALL_MS_BUCKETS),
        counter("sweep_cell_failures_total",
                value=Lookup("ok", {False: 1.0}, 0.0), skip_zero=True),
    ),
    "sweep.fallback": (counter("sweep_fallbacks_total"),),
    "sweep.worker_joined": (counter("sweep_workers_joined_total"),),
    "sweep.worker_lost": (counter("sweep_workers_lost_total"),),
    "sweep.worker_left": (counter("sweep_workers_left_total"),),
    "sweep.chunk_requeued": (counter("sweep_chunks_requeued_total"),),
    "sweep.auth_rejected": (counter("sweep_auth_rejected_total"),),
    "sweep.resumed": (
        counter("sweep_chunks_replayed_total", value=Field("chunks", 0)),
        counter("sweep_cells_replayed_total", value=Field("cells", 0)),
    ),
    "sweep.done": (
        gauge("sweep_workers", value="workers"),
        gauge("sweep_worker_utilization", value="utilization"),
    ),
    "sweep.telemetry": (
        counter("sweep_shipped_chunks_total", labels=_WORKER),
        counter("sweep_shipped_events_total", labels=_WORKER,
                value=Field("events", 0)),
        counter("sweep_shipped_spans_total", labels=_WORKER,
                value=Field("spans", 0)),
    ),
    "sweep.telemetry_dropped": (
        counter("sweep_telemetry_dropped_total", labels=_WORKER,
                value=Field("dropped", 0)),
    ),
    "serve.batch": (
        counter("serve_batches_total", labels=("mode",)),
        histogram("serve_batch_size", labels=("mode",), value="size",
                  buckets=BATCH_SIZE_BUCKETS),
        counter("serve_requests_total", const=(("outcome", "served"),),
                value="served"),
        counter("serve_requests_total", const=(("outcome", "failed"),),
                value="failed", skip_zero=True),
        counter("serve_cold_starts_total", value="cold_starts"),
        counter("serve_cost_usd_total", value="cost_usd"),
    ),
    "serve.shed": (
        counter("serve_shed_total", labels=("reason",), value="count"),
        counter("serve_requests_total", const=(("outcome", "shed"),),
                value="count"),
    ),
    "serve.report": (
        counter("serve_offered_total", value="offered"),
        counter("serve_admitted_total", value="admitted"),
        gauge("serve_offered_rps", value="offered_rps"),
        gauge("serve_goodput_rps", value="goodput_rps"),
        gauge("serve_shed_rate", value="shed_rate"),
        gauge("serve_slo_attainment", value="slo_attainment"),
        gauge("serve_p50_ms", value="p50_ms"),
        gauge("serve_p95_ms", value="p95_ms"),
        gauge("serve_p99_ms", value="p99_ms"),
    ),
    "serve.recharacterize": (
        counter("serve_recharacterizations_total", labels=_ZONE),
    ),
    "serve.drain": (
        counter("serve_drains_total"),
        gauge("serve_drained_requests", value="drained"),
    ),
}

#: Events emitted for subscribers (recorder, exporters, progress) that
#: feed no registry metric.
UNBRIDGED = frozenset({
    "az.preempt",
    "cloud.hold",
    "controller.staleness",
    "host.reuse",
    "sweep.start",
})


# -- the compiled bridge --------------------------------------------------
def _binder(row):
    """``(registry, fields) -> update method`` for one row's series."""
    label_getters = tuple((field.name, field.getter())
                          for field in row.labels)
    const = row.const
    metric = row.metric

    def labels_of(fields):
        labels = dict(const)
        for label, get in label_getters:
            labels[label] = get(fields)
        return labels

    if row.kind == COUNTER:
        return lambda registry, fields: registry.counter(
            metric, **labels_of(fields)).inc
    if row.kind == GAUGE:
        return lambda registry, fields: registry.gauge(
            metric, **labels_of(fields)).set
    buckets = row.buckets
    return lambda registry, fields: registry.histogram(
        metric, buckets=buckets, **labels_of(fields)).observe


def _key_getter(rows):
    """``fields -> hashable`` over every label field the rows read."""
    getters = {}
    for row in rows:
        for field in row.labels:
            getters.setdefault(field.name, field)
    if not getters:
        return lambda fields: ()
    fields_ = list(getters.values())
    if all(field.default is _REQUIRED for field in fields_):
        return itemgetter(*[field.name for field in fields_])
    gets = tuple(field.getter() for field in fields_)
    return lambda fields: tuple(get(fields) for get in gets)


def compile_catalog():
    """Event name -> ``(key_of, rows)``, the bridge's lookup table.

    ``key_of(fields)`` picks the label values that select an event's
    series; each row compiles to ``(value_of, skip_zero, bind)``, where
    ``bind(registry, fields)`` returns the series' update method.
    """
    plans = {}
    for name, rows in EVENT_METRICS.items():
        plans[name] = (_key_getter(rows), tuple(
            (row.value.getter(), row.skip_zero, _binder(row))
            for row in rows))
    return plans


# -- the generated reference ----------------------------------------------
def catalog_markdown():
    """The event → metric reference table ``docs/api.md`` carries."""
    lines = ["| event | kind | metric | labels | value |",
             "|---|---|---|---|---|"]
    for name in sorted(EVENT_METRICS):
        for row in EVENT_METRICS[name]:
            labels = [field.describe() for field in row.labels]
            labels.extend("`{}={}`".format(label, value)
                          for label, value in row.const)
            value = row.value.describe()
            if row.skip_zero:
                value += "; skipped when 0"
            if row.buckets is not None:
                value += "; buckets {:g}…{:g}".format(row.buckets[0],
                                                      row.buckets[-1])
            lines.append("| `{}` | {} | `{}` | {} | {} |".format(
                name, row.kind, row.metric, ", ".join(labels) or "-",
                value))
    lines.append("")
    lines.append("Unbridged (subscribers only): {}.".format(
        ", ".join("`{}`".format(name) for name in sorted(UNBRIDGED))))
    return "\n".join(lines)
