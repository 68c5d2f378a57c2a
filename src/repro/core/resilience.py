"""Client-side resilience primitives: breakers, backoff, hedging.

These are the building blocks the resilient routing path
(:meth:`~repro.core.router.SmartRouter.route_resilient`) composes:

* :class:`CircuitBreaker` — per-zone closed → open → half-open state
  machine that stops hammering a failing zone;
* :class:`ExponentialBackoff` — full-jitter delays for transient and
  throttled errors;
* :class:`HedgePolicy` — issue a second request to another zone when the
  first exceeds a latency percentile;
* :class:`ResilienceConfig` — bundle of the above plus attempt budget;
* :class:`ResilientOutcome` — the structured result of a resilient route.

All clocks are *sim* time (seconds); all randomness is seed-derived.
"""

from repro.common.errors import ConfigurationError, ReproError
from repro.common.rng import derive_rng


class BreakerOpenError(ReproError):
    """The per-zone circuit breaker refused the request."""

    def __init__(self, zone_id):
        super().__init__(
            "circuit breaker open for zone {!r}".format(zone_id))
        self.zone_id = zone_id


class CircuitBreaker(object):
    """Per-zone circuit breaker: closed → open → half-open → closed.

    * **closed** — requests flow; ``failure_threshold`` *consecutive*
      failures trip the breaker open.
    * **open** — requests are refused until ``cooldown_s`` of sim time has
      passed since the trip.
    * **half-open** — up to ``probe_budget`` probe requests are admitted;
      ``probe_successes`` successes close the breaker, any probe failure
      re-opens it (and restarts the cooldown).

    ``allow(now)`` is the *mutating* gate (it performs the open →
    half-open transition and consumes probe budget); ``would_allow(now)``
    answers the same question without side effects, for candidate-zone
    filtering.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    __slots__ = ("failure_threshold", "cooldown_s", "probe_budget",
                 "probe_successes", "on_transition", "state",
                 "_consecutive_failures", "_opened_at", "_probes_issued",
                 "_probes_succeeded", "transitions")

    def __init__(self, failure_threshold=5, cooldown_s=30.0, probe_budget=2,
                 probe_successes=2, on_transition=None):
        if failure_threshold < 1:
            raise ConfigurationError("failure_threshold must be >= 1")
        if cooldown_s <= 0:
            raise ConfigurationError("cooldown_s must be positive")
        if probe_budget < 1:
            raise ConfigurationError("probe_budget must be >= 1")
        if not 1 <= probe_successes <= probe_budget:
            raise ConfigurationError(
                "probe_successes must be in [1, probe_budget]")
        self.failure_threshold = int(failure_threshold)
        self.cooldown_s = float(cooldown_s)
        self.probe_budget = int(probe_budget)
        self.probe_successes = int(probe_successes)
        self.on_transition = on_transition
        self.state = self.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probes_issued = 0
        self._probes_succeeded = 0
        self.transitions = []

    def _transition(self, now, new_state):
        old = self.state
        if old == new_state:
            return
        self.state = new_state
        self.transitions.append((float(now), old, new_state))
        if self.on_transition is not None:
            self.on_transition(float(now), old, new_state)

    def would_allow(self, now):
        """Non-mutating: would ``allow(now)`` admit a request?"""
        if self.state == self.CLOSED:
            return True
        if self.state == self.OPEN:
            return now - self._opened_at >= self.cooldown_s
        return self._probes_issued < self.probe_budget

    def allow(self, now):
        """Admit or refuse a request at sim-time ``now`` (mutating)."""
        if self.state == self.CLOSED:
            return True
        if self.state == self.OPEN:
            if now - self._opened_at < self.cooldown_s:
                return False
            self._transition(now, self.HALF_OPEN)
            self._probes_issued = 0
            self._probes_succeeded = 0
        if self._probes_issued >= self.probe_budget:
            return False
        self._probes_issued += 1
        return True

    def record_success(self, now):
        if self.state == self.HALF_OPEN:
            self._probes_succeeded += 1
            if self._probes_succeeded >= self.probe_successes:
                self._transition(now, self.CLOSED)
                self._consecutive_failures = 0
        else:
            self._consecutive_failures = 0

    def record_failure(self, now):
        if self.state == self.HALF_OPEN:
            self._open(now)
        elif self.state == self.CLOSED:
            self._consecutive_failures += 1
            if self._consecutive_failures >= self.failure_threshold:
                self._open(now)

    def record_failures(self, now, n):
        """Record ``n`` failures at ``now``: the same end state, transitions
        and callbacks as ``n`` calls of :meth:`record_failure`, in O(1).

        Closed, the breaker opens once if the consecutive count reaches
        the threshold within the ``n``; half-open, the first failure
        re-opens it; open, failures change nothing.
        """
        if n <= 0:
            return
        if self.state == self.HALF_OPEN:
            self._open(now)
        elif self.state == self.CLOSED:
            failures = self._consecutive_failures + n
            if failures >= self.failure_threshold:
                self._open(now)
            else:
                self._consecutive_failures = failures

    def _open(self, now):
        self._transition(now, self.OPEN)
        self._opened_at = float(now)
        self._consecutive_failures = 0

    def __repr__(self):
        return "CircuitBreaker({}, failures={})".format(
            self.state, self._consecutive_failures)


class ExponentialBackoff(object):
    """Full-jitter exponential backoff (AWS architecture-blog flavour).

    ``delay(attempt)`` draws uniformly from
    ``[0, min(cap_s, base_s * multiplier**attempt)]`` — the full-jitter
    variant, which empirically minimises total work under contention
    compared with equal-jitter or no jitter.
    """

    __slots__ = ("base_s", "cap_s", "multiplier", "_rng")

    def __init__(self, base_s=0.05, cap_s=5.0, multiplier=2.0, seed=0):
        if base_s <= 0 or cap_s <= 0:
            raise ConfigurationError("base_s and cap_s must be positive")
        if multiplier < 1.0:
            raise ConfigurationError("multiplier must be >= 1")
        self.base_s = float(base_s)
        self.cap_s = float(cap_s)
        self.multiplier = float(multiplier)
        self._rng = derive_rng(seed, "backoff")

    def ceiling(self, attempt):
        """The deterministic upper bound for ``delay(attempt)``."""
        return min(self.cap_s, self.base_s * self.multiplier ** attempt)

    def delay(self, attempt):
        """Seconds to wait before retry number ``attempt`` (0-based)."""
        return float(self._rng.uniform(0.0, self.ceiling(attempt)))


class HedgePolicy(object):
    """When to issue a speculative duplicate request to another zone.

    A hedge fires when the primary's latency exceeds the zone's recent
    ``percentile`` latency (from :class:`~repro.core.health.ZoneHealthTracker`
    samples).  Below ``min_observations`` samples the policy abstains —
    hedging on noise burns money for nothing.
    """

    __slots__ = ("percentile", "min_observations", "max_hedges")

    def __init__(self, percentile=0.95, min_observations=20, max_hedges=1):
        if not 0.0 < percentile < 1.0:
            raise ConfigurationError("percentile must be in (0, 1)")
        if min_observations < 1:
            raise ConfigurationError("min_observations must be >= 1")
        if max_hedges < 1:
            raise ConfigurationError("max_hedges must be >= 1")
        self.percentile = float(percentile)
        self.min_observations = int(min_observations)
        self.max_hedges = int(max_hedges)

    def threshold(self, health, zone_id):
        """Latency (s) beyond which to hedge, or None to abstain."""
        if health is None:
            return None
        if len(health.latency_samples(zone_id)) < self.min_observations:
            return None
        return health.latency_percentile(zone_id, self.percentile)


class ResilienceConfig(object):
    """Bundle of resilience knobs for ``route_resilient``."""

    __slots__ = ("backoff", "hedge", "max_attempts", "failover")

    def __init__(self, backoff=None, hedge=None, max_attempts=4,
                 failover=True):
        if max_attempts < 1:
            raise ConfigurationError("max_attempts must be >= 1")
        self.backoff = backoff if backoff is not None else ExponentialBackoff()
        self.hedge = hedge
        self.max_attempts = int(max_attempts)
        self.failover = bool(failover)


class ResilientOutcome(object):
    """What a resilient route actually did, and what it cost.

    ``request`` is the winning :class:`~repro.core.router.RoutedRequest`;
    ``hedge_request`` (if any) is the speculative duplicate.  ``latency_s``
    is the *effective* client-observed latency: backoff waits plus, when a
    hedge won, the hedge-trigger threshold plus the hedge's own latency.
    """

    __slots__ = ("request", "hedge_request", "attempts", "backoff_s",
                 "hedged", "hedge_won", "failovers", "latency_s")

    def __init__(self, request, hedge_request=None, attempts=1,
                 backoff_s=0.0, hedged=False, hedge_won=False,
                 failovers=0, latency_s=None):
        self.request = request
        self.hedge_request = hedge_request
        self.attempts = attempts
        self.backoff_s = backoff_s
        self.hedged = hedged
        self.hedge_won = hedge_won
        self.failovers = failovers
        self.latency_s = (latency_s if latency_s is not None
                          else request.latency_s + backoff_s)

    @property
    def zone_id(self):
        winner = (self.hedge_request
                  if self.hedge_won and self.hedge_request is not None
                  else self.request)
        return winner.zone_id

    @property
    def retries(self):
        return self.request.retries

    @property
    def cost(self):
        """Total spend, including the losing side of a hedge."""
        total = self.request.cost
        if self.hedge_request is not None:
            total = total + self.hedge_request.cost
        return total

    def __repr__(self):
        return ("ResilientOutcome(zone={}, attempts={}, failovers={}, "
                "hedged={}, latency={:.3f}s)".format(
                    self.zone_id, self.attempts, self.failovers,
                    self.hedged, self.latency_s))
