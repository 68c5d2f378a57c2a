"""Resilience primitives and the hardened routing path.

Covers the circuit-breaker state table (closed → open → half-open, probe
budgets, the mutating/non-mutating gate split), full-jitter backoff,
hedge gating, the ZoneHealthTracker, and ``route_resilient`` /
``route_with_failover`` behaviour under each error reason.
"""

import pytest

from repro.common.errors import (
    ConfigurationError,
    InvocationError,
    QuotaExceededError,
    SaturationError,
    TransientFaultError,
)
from repro.common.units import Money
from repro.core import (
    CharacterizationStore,
    CircuitBreaker,
    ExponentialBackoff,
    HedgePolicy,
    RegionalPolicy,
    ResilienceConfig,
    SmartRouter,
    ZoneHealthTracker,
)
from repro.core.resilience import BreakerOpenError
from repro.dynfunc import UniversalDynamicFunctionHandler
from repro.obs import EventBus
from repro.obs.hooks import EventRecorder
from repro.sampling import CharacterizationBuilder
from repro.skymesh import SkyMesh
from repro.workloads import resolve_runtime_model, workload_by_name
from tests.helpers import drain_zone, make_cloud


class TestCircuitBreaker(object):
    def test_starts_closed_and_admits(self):
        breaker = CircuitBreaker()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow(0.0)
        assert breaker.would_allow(0.0)

    def test_opens_after_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=3)
        breaker.record_failure(1.0)
        breaker.record_failure(2.0)
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure(3.0)
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.transitions == [(3.0, "closed", "open")]

    def test_success_resets_the_consecutive_count(self):
        breaker = CircuitBreaker(failure_threshold=3)
        breaker.record_failure(1.0)
        breaker.record_failure(2.0)
        breaker.record_success(3.0)
        breaker.record_failure(4.0)
        breaker.record_failure(5.0)
        assert breaker.state == CircuitBreaker.CLOSED

    def test_open_refuses_until_cooldown(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=30.0)
        breaker.record_failure(0.0)
        assert not breaker.allow(10.0)
        assert not breaker.would_allow(29.9)
        assert breaker.would_allow(30.0)
        # would_allow must not have transitioned anything.
        assert breaker.state == CircuitBreaker.OPEN

    def test_cooldown_expiry_half_opens_with_probe_budget(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=30.0,
                                 probe_budget=2, probe_successes=2)
        breaker.record_failure(0.0)
        assert breaker.allow(31.0)  # first probe
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert breaker.allow(32.0)  # second probe
        assert not breaker.allow(33.0)  # budget exhausted

    def test_would_allow_never_consumes_probes(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=30.0,
                                 probe_budget=2)
        breaker.record_failure(0.0)
        breaker.allow(31.0)  # half-open, one probe consumed
        for _ in range(5):
            assert breaker.would_allow(32.0)
        assert breaker.allow(32.0)  # the second probe is still there
        assert not breaker.allow(33.0)

    def test_probe_successes_close_the_breaker(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=30.0,
                                 probe_budget=2, probe_successes=2)
        breaker.record_failure(0.0)
        breaker.allow(31.0)
        breaker.record_success(31.5)
        assert breaker.state == CircuitBreaker.HALF_OPEN
        breaker.allow(32.0)
        breaker.record_success(32.5)
        assert breaker.state == CircuitBreaker.CLOSED
        assert [(old, new) for _, old, new in breaker.transitions] == [
            ("closed", "open"), ("open", "half_open"),
            ("half_open", "closed")]

    def test_probe_failure_reopens_and_restarts_cooldown(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=30.0)
        breaker.record_failure(0.0)
        breaker.allow(31.0)
        breaker.record_failure(31.5)
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.would_allow(40.0)  # cooldown restarted at 31.5
        assert breaker.would_allow(61.5)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ConfigurationError):
            CircuitBreaker(cooldown_s=0.0)
        with pytest.raises(ConfigurationError):
            CircuitBreaker(probe_budget=0)
        with pytest.raises(ConfigurationError):
            CircuitBreaker(probe_budget=2, probe_successes=3)


class TestExponentialBackoff(object):
    def test_ceiling_grows_then_caps(self):
        backoff = ExponentialBackoff(base_s=0.1, cap_s=1.0, multiplier=2.0)
        assert backoff.ceiling(0) == pytest.approx(0.1)
        assert backoff.ceiling(2) == pytest.approx(0.4)
        assert backoff.ceiling(10) == pytest.approx(1.0)

    def test_delay_is_full_jitter_within_the_ceiling(self):
        backoff = ExponentialBackoff(base_s=0.1, cap_s=1.0, seed=7)
        for attempt in range(8):
            delay = backoff.delay(attempt)
            assert 0.0 <= delay <= backoff.ceiling(attempt)

    def test_delays_are_seed_deterministic(self):
        first = ExponentialBackoff(seed=11)
        second = ExponentialBackoff(seed=11)
        assert [first.delay(i) for i in range(6)] == \
               [second.delay(i) for i in range(6)]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ExponentialBackoff(base_s=0.0)
        with pytest.raises(ConfigurationError):
            ExponentialBackoff(multiplier=0.5)


class TestHedgePolicy(object):
    def test_abstains_without_health_or_samples(self):
        policy = HedgePolicy(min_observations=5)
        assert policy.threshold(None, "z") is None
        health = ZoneHealthTracker()
        for i in range(4):
            health.record_success("z", float(i), latency_s=0.1)
        assert policy.threshold(health, "z") is None

    def test_threshold_is_the_latency_percentile(self):
        policy = HedgePolicy(percentile=0.5, min_observations=5)
        health = ZoneHealthTracker()
        for i in range(9):
            health.record_success("z", float(i), latency_s=float(i + 1))
        assert policy.threshold(health, "z") == pytest.approx(5.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            HedgePolicy(percentile=1.0)
        with pytest.raises(ConfigurationError):
            HedgePolicy(min_observations=0)


class TestZoneHealthTracker(object):
    def test_unknown_zones_are_healthy(self):
        health = ZoneHealthTracker()
        assert health.state("z") == CircuitBreaker.CLOSED
        assert health.would_allow("z", 0.0)
        zones = ["a", "b"]
        assert health.routable_zones(zones, 0.0) is zones

    def test_error_rate_respects_the_window(self):
        health = ZoneHealthTracker(window_s=300.0)
        for t in (0.0, 10.0):
            health.record_failure("z", t)
        for t in (400.0, 410.0):
            health.record_success("z", t)
        assert health.error_rate("z", 420.0) == 0.0  # failures aged out
        assert health.error_rate("z", 300.0) == pytest.approx(0.5)

    def test_tripped_breaker_filters_and_falls_back(self):
        health = ZoneHealthTracker(
            breaker_factory=lambda: CircuitBreaker(failure_threshold=1,
                                                   cooldown_s=30.0))
        health.record_failure("a", 0.0)
        assert health.tripped_breakers == 1
        assert health.routable_zones(["a", "b"], 1.0) == ["b"]
        # Every breaker refusing degrades to the full list, not nowhere.
        health.record_failure("b", 0.0)
        assert health.routable_zones(["a", "b"], 1.0) == ["a", "b"]

    def test_recovery_clears_the_tripped_count(self):
        health = ZoneHealthTracker(
            breaker_factory=lambda: CircuitBreaker(
                failure_threshold=1, cooldown_s=30.0, probe_budget=2,
                probe_successes=1))
        health.record_failure("a", 0.0)
        assert health.tripped_breakers == 1
        assert health.allow("a", 31.0)  # probe admitted
        health.record_success("a", 31.5)
        assert health.tripped_breakers == 0
        assert health.state("a") == CircuitBreaker.CLOSED

    def test_transitions_emit_events_and_are_reported(self):
        bus = EventBus()
        recorder = EventRecorder(bus=bus)
        health = ZoneHealthTracker(
            breaker_factory=lambda: CircuitBreaker(failure_threshold=1),
            bus=bus)
        health.record_failure("z", 5.0)
        events = recorder.events("breaker.transition")
        assert len(events) == 1
        assert events[0].fields == {"zone": "z", "from_state": "closed",
                                    "to": "open"}
        assert health.transitions() == [("z", 5.0, "closed", "open")]
        assert health.snapshot(6.0)["z"]["state"] == "open"


class TestCountedFailures(object):
    """``record_failures(n)`` is the counted fast path; ``n`` calls of
    ``record_failure`` are its spec.  Each case drives a spec tracker and a
    counted tracker into the same state, records one batch, and compares
    everything a caller can observe."""

    @staticmethod
    def _pair(threshold=3, max_samples=8):
        def build():
            bus = EventBus()
            recorder = EventRecorder(bus=bus)
            health = ZoneHealthTracker(
                breaker_factory=lambda: CircuitBreaker(
                    failure_threshold=threshold, cooldown_s=10.0,
                    probe_budget=2, probe_successes=2),
                max_samples=max_samples, bus=bus)
            return health, recorder
        return build(), build()

    @staticmethod
    def _observed(health, recorder):
        breaker = health.breaker("z")
        return (breaker.state, breaker._consecutive_failures,
                breaker._opened_at, list(breaker.transitions),
                [(e.timestamp, e.fields)
                 for e in recorder.events("breaker.transition")],
                health.tripped_breakers,
                list(health._zones["z"].outcomes),
                health.error_rate("z", 100.0))

    def _check(self, prelude, n, threshold=3, max_samples=8):
        (spec, spec_rec), (fast, fast_rec) = self._pair(threshold,
                                                        max_samples)
        for health in (spec, fast):
            prelude(health)
        for _ in range(n):
            spec.record_failure("z", 50.0, reason="saturated")
        fast.record_failures("z", 50.0, n, reason="saturated")
        assert self._observed(fast, fast_rec) == \
            self._observed(spec, spec_rec)
        return fast

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 40])
    def test_closed_below_at_and_above_threshold(self, n):
        def prelude(health):
            health.record_success("z", 1.0, latency_s=0.1)
        fast = self._check(prelude, n)
        expected = CircuitBreaker.OPEN if n >= 3 else CircuitBreaker.CLOSED
        assert fast.state("z") == expected

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_closed_with_earlier_consecutive_failures(self, n):
        def prelude(health):
            health.record_failure("z", 1.0)
        self._check(prelude, n)

    @pytest.mark.parametrize("n", [1, 2, 9])
    def test_half_open_reopens_on_first_failure(self, n):
        def prelude(health):
            health.record_failures("z", 1.0, 3)
            assert health.allow("z", 20.0)  # cooldown over: half-open
            assert health.state("z") == CircuitBreaker.HALF_OPEN
        fast = self._check(prelude, n)
        assert fast.state("z") == CircuitBreaker.OPEN

    @pytest.mark.parametrize("n", [1, 7])
    def test_open_ignores_failures(self, n):
        def prelude(health):
            for _ in range(3):
                health.record_failure("z", 1.0)
            assert health.state("z") == CircuitBreaker.OPEN
        self._check(prelude, n)

    @pytest.mark.parametrize("n,max_samples", [(8, 8), (9, 8), (500, 8),
                                               (5, 1)])
    def test_outcomes_window_at_and_beyond_max_samples(self, n,
                                                       max_samples):
        def prelude(health):
            for t in range(4):
                health.record_success("z", float(t))
        fast = self._check(prelude, n, threshold=1000,
                           max_samples=max_samples)
        assert len(fast._zones["z"].outcomes) == max_samples

    def test_breaker_alone_matches_scalar_calls(self):
        for state_setup in ("closed", "half_open", "open"):
            for n in range(0, 6):
                spec = CircuitBreaker(failure_threshold=4, cooldown_s=5.0)
                fast = CircuitBreaker(failure_threshold=4, cooldown_s=5.0)
                for breaker in (spec, fast):
                    breaker.record_failure(0.0)
                    if state_setup != "closed":
                        breaker.record_failures(0.0, 4)
                    if state_setup == "half_open":
                        assert breaker.allow(6.0)
                for _ in range(n):
                    spec.record_failure(7.0)
                fast.record_failures(7.0, n)
                assert (fast.state, fast._consecutive_failures,
                        fast._opened_at, fast.transitions) == \
                    (spec.state, spec._consecutive_failures,
                     spec._opened_at, spec.transitions)


def put_profile(store, zone, counts):
    builder = CharacterizationBuilder(zone)
    builder.add_poll(counts, cost=Money(0), timestamp=0.0)
    store.put(builder.snapshot())


def make_resilient_router(breaker_factory=None, resilience=None):
    """Two-zone rig whose profiles make RegionalPolicy prefer test-1a."""
    cloud = make_cloud(seed=101)
    account = cloud.create_account("rig", "aws")
    mesh = SkyMesh(cloud)
    for zone in ("test-1a", "test-1b"):
        mesh.register(cloud.deploy(
            account, zone, "dynamic", 2048,
            handler=UniversalDynamicFunctionHandler(resolve_runtime_model)))
    store = CharacterizationStore()
    # The store holds *beliefs*: claim the faster CPU lives in test-1a so
    # the policy prefers it regardless of the actual pools.
    put_profile(store, "test-1a", {"xeon-3.0": 10})
    put_profile(store, "test-1b", {"xeon-2.5": 10})
    health = ZoneHealthTracker(breaker_factory=breaker_factory)
    router = SmartRouter(cloud, mesh, store, RegionalPolicy(),
                         workload_by_name("sha1_hash"),
                         ["test-1a", "test-1b"], health=health,
                         resilience=resilience)
    return cloud, router, health


class _FakeRequest(object):
    zone_id = "test-1b"
    latency_s = 0.5
    retries = 0
    cost = Money(0)


class TestRouteResilient(object):
    def test_requires_a_health_tracker(self):
        cloud, router, _ = make_resilient_router()
        router.health = None
        with pytest.raises(ConfigurationError):
            router.route_resilient()

    def test_healthy_path_is_a_single_attempt(self):
        _, router, _ = make_resilient_router()
        outcome = router.route_resilient()
        assert outcome.zone_id == "test-1a"
        assert outcome.attempts == 1
        assert outcome.failovers == 0
        assert not outcome.hedged
        assert outcome.backoff_s == 0.0

    def test_saturation_fails_over_to_the_next_zone(self):
        cloud, router, health = make_resilient_router()
        drain_zone(cloud.zone("test-1a"), duration=600.0)
        outcome = router.route_resilient()
        assert outcome.zone_id == "test-1b"
        assert outcome.attempts == 2
        assert outcome.failovers == 1
        assert health.error_rate("test-1a", cloud.clock.now) == 1.0

    def test_repeated_failures_trip_the_breaker_and_reroute(self):
        cloud, router, health = make_resilient_router(
            breaker_factory=lambda: CircuitBreaker(failure_threshold=3,
                                                   cooldown_s=1e6))
        drain_zone(cloud.zone("test-1a"), duration=600.0)
        for _ in range(3):
            router.route_resilient()
            cloud.clock.advance(30.0)
        assert health.state("test-1a") == CircuitBreaker.OPEN
        # With the breaker open, routing skips test-1a without paying a
        # failed attempt there.
        outcome = router.route_resilient()
        assert outcome.zone_id == "test-1b"
        assert outcome.attempts == 1
        assert outcome.failovers == 0

    def test_open_breakers_drop_out_of_the_routing_view(self):
        cloud, router, health = make_resilient_router(
            breaker_factory=lambda: CircuitBreaker(failure_threshold=1,
                                                   cooldown_s=1e6))
        health.record_failure("test-1a", cloud.clock.now)
        view = router.current_view()
        assert view.candidate_zones == ["test-1b"]
        assert view.zone_error_rate("test-1a") == 1.0
        assert view.zone_error_rate("test-1b") == 0.0

    def test_handler_errors_propagate_without_retry(self, monkeypatch):
        _, router, _ = make_resilient_router()
        calls = []

        def exploding_route(decision=None):
            calls.append(decision)
            raise InvocationError("bug in user code")

        monkeypatch.setattr(router, "route", exploding_route)
        with pytest.raises(InvocationError):
            router.route_resilient()
        assert len(calls) == 1

    def test_transient_errors_accrue_backoff(self, monkeypatch):
        _, router, _ = make_resilient_router()
        attempts = []

        def flaky_route(decision=None):
            attempts.append(decision)
            if len(attempts) < 2:
                raise TransientFaultError()
            return _FakeRequest()

        monkeypatch.setattr(router, "route", flaky_route)
        config = ResilienceConfig(backoff=ExponentialBackoff(seed=3),
                                  failover=False)
        outcome = router.route_resilient(config)
        assert outcome.attempts == 2
        assert outcome.failovers == 0
        assert 0.0 < outcome.backoff_s <= config.backoff.ceiling(0)
        assert outcome.latency_s == pytest.approx(0.5 + outcome.backoff_s)

    def test_attempt_budget_exhaustion_raises_the_last_error(
            self, monkeypatch):
        _, router, _ = make_resilient_router()
        calls = []

        def always_throttled(decision=None):
            calls.append(decision)
            raise QuotaExceededError()

        monkeypatch.setattr(router, "route", always_throttled)
        with pytest.raises(QuotaExceededError):
            router.route_resilient(ResilienceConfig(max_attempts=3))
        assert len(calls) == 3

    def test_hedge_fires_past_the_latency_threshold(self):
        _, router, health = make_resilient_router(
            resilience=ResilienceConfig(hedge=HedgePolicy(
                min_observations=5)))
        # Teach the tracker that test-1a normally answers instantly, so
        # any real invocation (~seconds) looks hedge-worthy.
        for i in range(10):
            health.record_success("test-1a", float(i), latency_s=0.001)
        outcome = router.route_resilient()
        assert outcome.hedged
        assert outcome.hedge_request is not None
        assert outcome.hedge_request.zone_id == "test-1b"
        assert outcome.cost == (outcome.request.cost
                                + outcome.hedge_request.cost)

    def test_breaker_open_everywhere_still_degrades_gracefully(self):
        cloud, router, health = make_resilient_router(
            breaker_factory=lambda: CircuitBreaker(failure_threshold=1,
                                                   cooldown_s=1e6))
        health.record_failure("test-1a", cloud.clock.now)
        health.record_failure("test-1b", cloud.clock.now)
        # Both breakers refuse; the fallback reopens the full set, the
        # mutating gate refuses each zone once, then the loop reopens the
        # set and raises the breaker error after the budget.
        with pytest.raises((BreakerOpenError, InvocationError)):
            router.route_resilient(ResilienceConfig(max_attempts=2))


class TestRouteWithFailover(object):
    def test_fails_over_on_throttling(self, monkeypatch):
        _, router, _ = make_resilient_router()
        served = []

        def throttled_primary(decision=None):
            if decision.zone_id == "test-1a":
                raise QuotaExceededError()
            served.append(decision.zone_id)
            return _FakeRequest()

        monkeypatch.setattr(router, "route", throttled_primary)
        request = router.route_with_failover()
        assert isinstance(request, _FakeRequest)
        assert served == ["test-1b"]
        # The candidate list is restored afterwards.
        assert router.candidate_zones == ["test-1a", "test-1b"]

    def test_handler_errors_do_not_fail_over(self, monkeypatch):
        _, router, _ = make_resilient_router()
        calls = []

        def exploding_route(decision=None):
            calls.append(decision.zone_id)
            raise InvocationError("bug in user code")

        monkeypatch.setattr(router, "route", exploding_route)
        with pytest.raises(InvocationError):
            router.route_with_failover()
        assert calls == ["test-1a"]

    def test_exhausting_all_zones_raises_the_last_error(self):
        cloud, router, _ = make_resilient_router()
        drain_zone(cloud.zone("test-1a"), duration=600.0)
        drain_zone(cloud.zone("test-1b"), duration=600.0)
        with pytest.raises(SaturationError):
            router.route_with_failover()
