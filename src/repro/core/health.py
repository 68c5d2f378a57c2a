"""Per-zone health tracking: breakers, error rates, latency reservoirs.

:class:`ZoneHealthTracker` is the client-side memory of how each zone has
been behaving recently.  It owns one :class:`~repro.core.resilience.CircuitBreaker`
per zone, a sliding window of success/failure outcomes, and a bounded
reservoir of observed latencies.  The router feeds it after every
invocation; :class:`~repro.core.policies.RoutingView` exposes it to
policies so routing degrades gracefully — a stale characterization of a
healthy zone beats fresh data from a browning-out one.
"""

from collections import deque
from itertools import repeat

from repro.core.resilience import CircuitBreaker
from repro.obs.hooks import NULL_BUS
from repro.obs.metrics import quantile


class _ZoneRecord(object):
    __slots__ = ("breaker", "outcomes", "latencies")

    def __init__(self, breaker, max_samples):
        self.breaker = breaker
        # (timestamp, ok) pairs for the error-rate window.
        self.outcomes = deque(maxlen=max_samples)
        self.latencies = deque(maxlen=max_samples)


class ZoneHealthTracker(object):
    """Tracks per-zone health and gates routing through circuit breakers.

    Parameters
    ----------
    breaker_factory:
        Zero-argument callable producing a fresh
        :class:`~repro.core.resilience.CircuitBreaker` per zone; defaults
        to ``CircuitBreaker()`` with stock thresholds.
    window_s:
        Sliding window (sim seconds) for :meth:`error_rate`.
    max_samples:
        Bound on retained outcome/latency samples per zone.
    bus:
        Event bus; breaker transitions emit ``breaker.transition``.
    """

    def __init__(self, breaker_factory=None, window_s=300.0, max_samples=256,
                 bus=NULL_BUS):
        self._breaker_factory = breaker_factory or CircuitBreaker
        self.window_s = float(window_s)
        self.max_samples = int(max_samples)
        self._bus = bus
        self._zones = {}
        # Count of breakers currently NOT closed.  The routing hot path
        # checks this to skip candidate filtering and the mutating
        # breaker gate entirely while every zone is healthy.
        self.tripped_breakers = 0

    def attach_bus(self, bus):
        self._bus = bus
        return bus

    def _record(self, zone_id):
        record = self._zones.get(zone_id)
        if record is None:
            breaker = self._breaker_factory()
            breaker.on_transition = self._transition_emitter(zone_id)
            record = _ZoneRecord(breaker, self.max_samples)
            self._zones[zone_id] = record
        return record

    def _transition_emitter(self, zone_id):
        def emit(now, old, new):
            self.tripped_breakers += ((new != CircuitBreaker.CLOSED)
                                      - (old != CircuitBreaker.CLOSED))
            bus = self._bus
            if bus.enabled:
                # "from" is a Python keyword, hence from_state.
                bus.emit("breaker.transition", now, zone=zone_id,
                         from_state=old, to=new)
        return emit

    # -- recording -----------------------------------------------------------
    def record_success(self, zone_id, now, latency_s=None):
        record = self._record(zone_id)
        record.outcomes.append((now, True))
        if latency_s is not None:
            record.latencies.append(latency_s)
        record.breaker.record_success(now)

    def record_failure(self, zone_id, now, reason="handler_error"):
        record = self._record(zone_id)
        record.outcomes.append((now, False))
        record.breaker.record_failure(now)

    def record_failures(self, zone_id, now, n, reason="handler_error"):
        """``n`` failures at ``now`` in one call: the same outcomes window
        and breaker state as ``n`` calls of :meth:`record_failure`."""
        if n <= 0:
            return
        record = self._record(zone_id)
        outcomes = record.outcomes
        # The deque keeps only its last ``maxlen`` entries anyway.
        outcomes.extend(repeat((now, False), min(n, outcomes.maxlen)))
        record.breaker.record_failures(now, n)

    # -- queries -------------------------------------------------------------
    def state(self, zone_id):
        record = self._zones.get(zone_id)
        return record.breaker.state if record else CircuitBreaker.CLOSED

    def breaker(self, zone_id):
        """The zone's breaker (created on first touch)."""
        return self._record(zone_id).breaker

    def allow(self, zone_id, now):
        """Mutating breaker gate for the zone about to be invoked."""
        return self._record(zone_id).breaker.allow(now)

    def would_allow(self, zone_id, now):
        record = self._zones.get(zone_id)
        return record.breaker.would_allow(now) if record else True

    def routable_zones(self, zone_ids, now):
        """Zones whose breakers would admit a request right now.

        Falls back to the full list when *every* breaker refuses —
        graceful degradation beats routing nowhere.  While every breaker
        is closed the input is returned unfiltered (and uncopied), so the
        no-fault routing path pays ~nothing for the gate.
        """
        if not self.tripped_breakers:
            return zone_ids
        open_for_business = [z for z in zone_ids if self.would_allow(z, now)]
        return open_for_business if open_for_business else list(zone_ids)

    def error_rate(self, zone_id, now):
        """Failure fraction over the sliding window ending at ``now``."""
        record = self._zones.get(zone_id)
        if record is None:
            return 0.0
        cutoff = float(now) - self.window_s
        total = failures = 0
        for timestamp, ok in record.outcomes:
            if timestamp >= cutoff:
                total += 1
                if not ok:
                    failures += 1
        return failures / float(total) if total else 0.0

    def latency_samples(self, zone_id):
        record = self._zones.get(zone_id)
        return list(record.latencies) if record else []

    def latency_percentile(self, zone_id, q):
        samples = self.latency_samples(zone_id)
        if not samples:
            return None
        return quantile(sorted(samples), q)

    def transitions(self):
        """All breaker transitions: ``[(zone_id, now, old, new), ...]``."""
        rows = []
        for zone_id in sorted(self._zones):
            for now, old, new in self._zones[zone_id].breaker.transitions:
                rows.append((zone_id, now, old, new))
        rows.sort(key=lambda r: r[1])
        return rows

    def snapshot(self, now):
        """``{zone_id: {state, error_rate, samples}}`` for reporting."""
        return {
            zone_id: {
                "state": record.breaker.state,
                "error_rate": self.error_rate(zone_id, now),
                "samples": len(record.outcomes),
            }
            for zone_id, record in sorted(self._zones.items())
        }

    def __repr__(self):
        return "ZoneHealthTracker(zones={})".format(len(self._zones))
