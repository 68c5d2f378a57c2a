"""Cross-process telemetry shipping: capture in workers, merge at home.

The sweep engine runs cells in other processes (a local pool or remote
socket workers); without this module every event, metric, and span those
cells produce dies with the worker.  Two halves fix that:

* :class:`TelemetryCapture` lives **in the worker**.  It owns a private
  bus / registry / tracer (no bridge — metrics are regenerated at the
  coordinator from the replayed events, so nothing is counted twice),
  buffers what the cell emits, and :meth:`drain`\\ s a bounded, picklable
  payload per cell.  Buffers never grow without bound: past
  ``max_events`` the capture counts drops instead of appending.

* :class:`TelemetryMerge` lives **on the coordinator**.  It replays each
  payload's events onto the parent bus (stamping ``worker``/``chunk``
  fields), folds shipped metric deltas into the parent registry under a
  ``worker`` label, and grafts worker span trees under a per-chunk span
  of the coordinator's "sweep" trace — so a distributed run yields one
  coherent trace/metric view identical in shape to a local run.

Workers activate a capture ambiently (``with capture:``) so task code
that builds its own private cloud via ``CloudSpec.build`` picks up the
capture bus with zero API changes.  Payloads are plain dicts of plain
types: safe to pickle across the process pool or the socket protocol's
``TELEMETRY`` frame.
"""

import os
import threading
import time

from repro.common.errors import ConfigurationError
from repro.obs.catalog import WALL_MS_BUCKETS
from repro.obs.hooks import EventBus
from repro.obs.metrics import COUNTER, GAUGE, HISTOGRAM, MetricsRegistry
from repro.obs.trace import Tracer

#: Telemetry payload schema version (bump on incompatible change).
PAYLOAD_VERSION = 1

#: Default per-drain event buffer bound; overflow increments
#: ``dropped_events`` (shipped and surfaced as a counter) instead of
#: growing the buffer.
DEFAULT_MAX_EVENTS = 5000

#: Reservoir samples shipped per histogram (buckets carry the full
#: distribution regardless).
SHIPPED_RESERVOIR = 256


_ACTIVE = threading.local()


def current_capture():
    """The capture activated on this thread, or None.

    Consulted by :meth:`repro.engine.spec.CloudSpec.build` so worker-side
    task code attaches the capture bus to the clouds it builds without
    any parameter threading.
    """
    return getattr(_ACTIVE, "capture", None)


class TelemetryCapture(object):
    """Worker-side bounded buffer of events, metric deltas, and spans.

    The capture's bus has a single subscriber (the buffer) and **no**
    event→metric bridge: shipped metrics are only those written directly
    into :attr:`registry` (the per-cell wall-time series below), while
    bridged metrics are regenerated from the replayed events on the
    coordinator.  This split is what makes the merge double-count-proof.
    """

    def __init__(self, worker_id=None, max_events=DEFAULT_MAX_EVENTS,
                 max_traces=64):
        if max_events < 1:
            raise ConfigurationError("max_events must be >= 1")
        self.worker_id = worker_id or "pid-{}".format(os.getpid())
        self.bus = EventBus()
        self.registry = MetricsRegistry()
        self.max_events = int(max_events)
        self.max_traces = int(max_traces)
        self.tracer = Tracer(max_traces=self.max_traces)
        self.dropped_events = 0
        self._events = []
        self._cell_span = None
        self._epoch = time.perf_counter()
        self._previous = None
        self.bus.subscribe(self._buffer)

    # -- wiring --------------------------------------------------------------
    def install(self, cloud):
        """Attach the capture bus to ``cloud`` (zones + host pools)."""
        cloud.attach_bus(self.bus)
        return self

    def __enter__(self):
        """Activate ambiently: clouds built on this thread capture here."""
        self._previous = current_capture()
        _ACTIVE.capture = self
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        _ACTIVE.capture = self._previous
        self._previous = None
        return False

    # -- buffering -----------------------------------------------------------
    def _now(self):
        return time.perf_counter() - self._epoch

    def _buffer(self, event):
        if len(self._events) >= self.max_events:
            self.dropped_events += 1
            return
        self._events.append((event.name, event.timestamp,
                             dict(event.fields)))

    # -- per-cell lifecycle --------------------------------------------------
    def begin_cell(self, index, task=None):
        """Open the wall-clock span that brackets one sweep cell."""
        tags = {"index": index}
        if task is not None:
            tags["task"] = type(task).__name__
        self._cell_span = self.tracer.start_trace("cell", self._now(),
                                                  **tags)
        return self._cell_span

    def end_cell(self, ok, wall_ms):
        """Close the cell span and record the worker-side cell metrics."""
        wall_ms = float(wall_ms)
        self.registry.counter("sweep_worker_cells_total").inc()
        self.registry.histogram("sweep_worker_cell_wall_ms",
                                buckets=WALL_MS_BUCKETS).observe(wall_ms)
        if not ok:
            self.registry.counter("sweep_worker_cell_failures_total").inc()
        span = self._cell_span
        if span is not None:
            span.tag(ok=bool(ok), wall_ms=round(wall_ms, 3))
            span.finish(max(self._now(), span.start))
            self._cell_span = None
        return self

    # -- shipping ------------------------------------------------------------
    def drain(self, cell=None):
        """Snapshot-and-reset: everything buffered since the last drain.

        Returns a plain-dict payload (see :data:`PAYLOAD_VERSION`) that
        pickles cleanly; the capture is left empty and reusable.
        """
        events, self._events = self._events, []
        dropped, self.dropped_events = self.dropped_events, 0
        metrics = []
        for name, kind, labels, metric in self.registry.collect():
            if kind == HISTOGRAM:
                state = metric.state(max_reservoir=SHIPPED_RESERVOIR)
            else:
                state = metric.value
            metrics.append((name, kind, tuple(sorted(labels.items())),
                            state))
        self.registry.clear()
        traces = []
        for trace in self.tracer.traces(complete_only=True):
            traces.append([span.to_dict() for span in trace.spans])
        self.tracer = Tracer(max_traces=self.max_traces)
        return {
            "v": PAYLOAD_VERSION,
            "worker": self.worker_id,
            "cell": cell,
            "events": events,
            "metrics": metrics,
            "traces": traces,
            "dropped_events": dropped,
        }

    def __repr__(self):
        return ("TelemetryCapture(worker={!r}, events={}, dropped={})"
                .format(self.worker_id, len(self._events),
                        self.dropped_events))


class TelemetryMerge(object):
    """Coordinator-side replay of shipped telemetry onto a parent facade.

    One merge instance serves a whole sweep: payloads arrive per chunk
    (in completion order), events re-enter the parent bus with
    ``worker``/``chunk`` fields added, metric deltas land in the parent
    registry under a ``worker`` label, and spans are grafted beneath a
    per-``(worker, chunk)`` span of :attr:`root_span`.  Call
    :meth:`finish` once when the sweep ends to close the open spans.
    """

    def __init__(self, obs, clock=None, root_span=None):
        self.obs = obs
        self.root_span = root_span
        self._clock = clock if clock is not None else (lambda: 0.0)
        self._chunk_spans = {}
        self.chunks_merged = 0
        self.events_merged = 0
        self.metrics_merged = 0
        self.spans_merged = 0
        self.events_dropped = 0

    def merge(self, payload, worker=None, chunk=None):
        """Replay one drained payload; returns self."""
        if not isinstance(payload, dict) or payload.get("v") != \
                PAYLOAD_VERSION:
            raise ConfigurationError(
                "unrecognized telemetry payload: {!r}".format(
                    type(payload).__name__))
        worker = worker or payload.get("worker") or "unknown"
        if chunk is None:
            chunk = payload.get("cell")
        bus = self.obs.bus
        registry = self.obs.registry

        for name, timestamp, fields in payload["events"]:
            self.events_merged += 1
            stamped = dict(fields)
            stamped.setdefault("worker", worker)
            if chunk is not None:
                stamped.setdefault("chunk", chunk)
            bus.emit(name, timestamp, **stamped)

        for name, kind, label_items, state in payload["metrics"]:
            self.metrics_merged += 1
            labels = dict(label_items)
            labels.setdefault("worker", worker)
            if kind == COUNTER:
                registry.counter(name, **labels).inc(state)
            elif kind == GAUGE:
                registry.gauge(name, **labels).set(state)
            elif kind == HISTOGRAM:
                registry.histogram(
                    name, buckets=tuple(state["buckets"]),
                    **labels).merge_state(state)
            else:
                raise ConfigurationError(
                    "unknown shipped metric kind {!r}".format(kind))

        span_count = sum(len(t) for t in payload["traces"])
        if payload["traces"]:
            self._graft_traces(payload["traces"], worker, chunk)
        self.spans_merged += span_count

        dropped = int(payload.get("dropped_events", 0))
        self.events_dropped += dropped
        self.chunks_merged += 1
        bus.emit("sweep.telemetry", self._clock(), worker=worker,
                 chunk=chunk, events=len(payload["events"]),
                 metrics=len(payload["metrics"]), spans=span_count,
                 dropped=dropped)
        if dropped:
            bus.emit("sweep.telemetry_dropped", self._clock(),
                     worker=worker, chunk=chunk, dropped=dropped)
        return self

    def _graft_traces(self, trace_dicts, worker, chunk):
        starts = [t[0]["start"] for t in trace_dicts if t]
        if not starts:
            return
        parent, high_water = self._chunk_parent(worker, chunk)
        # Worker span clocks are worker-local; rebase the batch so its
        # earliest root lands at the parent span's start (durations and
        # relative order within the batch are preserved exactly).
        base = min(starts)
        shift = parent.start - base
        tracer = self.obs.tracer
        for span_dicts in trace_dicts:
            for span in tracer.graft(span_dicts, parent, shift=shift):
                if span.end is not None and span.end > high_water[0]:
                    high_water[0] = span.end

    def _chunk_parent(self, worker, chunk):
        key = (worker, chunk)
        entry = self._chunk_spans.get(key)
        if entry is None:
            now = self._clock()
            if self.root_span is not None:
                span = self.obs.tracer.start_span(
                    "chunk", self.root_span, now, worker=worker,
                    chunk=chunk)
            else:
                span = self.obs.tracer.start_trace(
                    "chunk", now, worker=worker, chunk=chunk)
            entry = self._chunk_spans[key] = (span, [now])
        return entry

    def finish(self):
        """Close every open chunk span (and the root, if merge owns one).

        Chunk spans end at the latest grafted child end (or their own
        start for empty chunks); the sweep root ends at the current
        clock.  Safe to call once; returns self.
        """
        for span, high_water in self._chunk_spans.values():
            if span.is_open:
                span.finish(max(high_water[0], span.start))
        self._chunk_spans.clear()
        if self.root_span is not None and self.root_span.is_open:
            self.root_span.finish(max(self._clock(),
                                      self.root_span.start))
        return self

    def __repr__(self):
        return ("TelemetryMerge(chunks={}, events={}, metrics={}, "
                "spans={}, dropped={})".format(
                    self.chunks_merged, self.events_merged,
                    self.metrics_merged, self.spans_merged,
                    self.events_dropped))
