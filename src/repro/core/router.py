"""The SmartRouter: policy-driven request routing over the sky mesh.

For each request (or burst) the router builds a
:class:`~repro.core.policies.RoutingView` from the characterization store,
asks its policy for a :class:`RoutingDecision`, resolves the target mesh
deployment, and executes — directly or through the
:class:`~repro.core.retry.RetryEngine` when the decision carries a retry
policy.  Optionally it feeds every observed CPU back into the store
(*passive characterization*, the paper's future-work path).
"""

from repro.common.errors import (
    ConfigurationError,
    FAILOVER_REASONS,
    InvocationError,
    RETRYABLE_REASONS,
)
from repro.core.optimizer import ZoneRanker
from repro.core.policies import RoutingView
from repro.core.resilience import (
    BreakerOpenError,
    ResilienceConfig,
    ResilientOutcome,
)
from repro.core.retry import RetryEngine, RetriedInvocation

#: The mesh rung routers, controllers and studies use unless told
#: otherwise: x86 at 2 GB, the setting EX-1 found cost-optimal.
MEMORY_MB = 2048


class RoutedRequest(object):
    """Uniform view over direct and retried invocations."""

    __slots__ = ("decision", "outcome")

    def __init__(self, decision, outcome):
        self.decision = decision
        self.outcome = outcome

    @property
    def zone_id(self):
        return self.decision.zone_id

    @property
    def cpu_key(self):
        return self.outcome.cpu_key

    @property
    def retries(self):
        if isinstance(self.outcome, RetriedInvocation):
            return self.outcome.retries
        return 0

    @property
    def cost(self):
        if isinstance(self.outcome, RetriedInvocation):
            return self.outcome.total_cost
        return self.outcome.bill.total

    @property
    def latency_s(self):
        if isinstance(self.outcome, RetriedInvocation):
            return self.outcome.total_latency
        return self.outcome.latency_s

    @property
    def billed_runtime_s(self):
        if isinstance(self.outcome, RetriedInvocation):
            return self.outcome.billed_runtime
        return self.outcome.runtime_s

    def __repr__(self):
        return "RoutedRequest(zone={}, cpu={}, retries={}, cost={})".format(
            self.zone_id, self.cpu_key, self.retries, self.cost)


class SmartRouter(object):
    """Routes one workload's requests according to a policy."""

    def __init__(self, cloud, mesh, store, policy, workload,
                 candidate_zones, memory_mb=MEMORY_MB, client=None,
                 passive=False, telemetry=None, obs=None, health=None,
                 resilience=None):
        self.cloud = cloud
        self.mesh = mesh
        self.store = store
        self.policy = policy
        self.workload = workload
        self.candidate_zones = list(candidate_zones)
        if not self.candidate_zones:
            raise ConfigurationError("router needs candidate zones")
        self.memory_mb = memory_mb
        self.client = client
        self.passive = passive
        self.telemetry = telemetry
        self.obs = obs
        self.health = health
        self.resilience = resilience
        if health is not None:
            health.attach_bus(self._event_bus())
        self._ranker = ZoneRanker(store, cloud=cloud)
        self._retry_engine = RetryEngine(cloud)
        self._factors = workload.cpu_factors()
        self._payload = workload.payload()

    def _event_bus(self):
        """Where router-level events (failover, hedge, backoff) go."""
        obs = self.obs
        if obs is not None and obs.enabled:
            return obs.bus
        return self.cloud.bus

    # -- views ---------------------------------------------------------------------
    def current_view(self, now=None):
        now = self.cloud.clock.now if now is None else now
        candidates = self.candidate_zones
        if self.health is not None:
            candidates = self.health.routable_zones(candidates, now)
        return RoutingView(
            characterizations=self.store.view(self.candidate_zones,
                                              now=now),
            factors=self._factors,
            base_seconds=self.workload.base_seconds,
            ranker=self._ranker,
            candidate_zones=candidates,
            client=self.client,
            now=now,
            health=self.health,
        )

    def decide(self, now=None):
        """Ask the policy for a routing decision under the current view."""
        return self.policy.decide(self.current_view(now=now))

    def _deployment_for(self, zone_id):
        return self.mesh.endpoint(zone_id, self.memory_mb)

    # -- execution -------------------------------------------------------------------
    def route(self, decision=None):
        """Route a single request; returns a :class:`RoutedRequest`.

        When the router carries an :class:`~repro.obs.Observability`, each
        call produces one trace — ``request`` → (``decide``) →
        ``dispatch`` (→ ``placement``/``retry-hold`` per retry attempt) →
        ``billing`` — on sim-clock timestamps, and when it carries a
        :class:`~repro.core.telemetry.RoutingTelemetry` the outcome is
        recorded there with the real sim-clock timestamp.
        """
        obs = self.obs
        tracer = obs.tracer if obs is not None and obs.enabled else None
        now = self.cloud.clock.now
        root = None
        if tracer is not None:
            root = tracer.start_trace("request", now,
                                      workload=self.workload.name,
                                      policy=self.policy.name)
        if decision is None:
            decision = self.decide()
            if root is not None:
                tracer.start_span("decide", root, now,
                                  zone=decision.zone_id).finish(now)
        deployment = self._deployment_for(decision.zone_id)
        dispatch = None
        if root is not None:
            dispatch = tracer.start_span("dispatch", root, now,
                                         zone=decision.zone_id)
        health = self.health
        try:
            if decision.retry_policy is not None:
                outcome = self._retry_engine.invoke(
                    deployment, decision.retry_policy, payload=self._payload,
                    client=self.client, tracer=tracer, parent=dispatch)
                if outcome.failed:
                    # Surface the structured partial outcome alongside the
                    # error so callers can account attempts and hold cost.
                    outcome.error.partial = outcome
                    raise outcome.error
            else:
                outcome = self.cloud.invoke(deployment, payload=self._payload,
                                            client=self.client)
        except InvocationError as error:
            if health is not None:
                health.record_failure(decision.zone_id, now,
                                      reason=error.reason)
            if root is not None:
                dispatch.finish(now).tag(error=error.reason)
                root.finish(now)
            raise
        request = RoutedRequest(decision, outcome)
        if health is not None:
            health.record_success(decision.zone_id, now,
                                  latency_s=request.latency_s)
        if root is not None:
            done = now + request.latency_s
            dispatch.finish(done).tag(cpu=request.cpu_key,
                                      retries=request.retries)
            tracer.start_span("billing", root, done,
                              cost_usd=float(request.cost)).finish(done)
            root.finish(done)
        if self.passive:
            self.store.record_observation(decision.zone_id,
                                          request.cpu_key,
                                          timestamp=self.cloud.clock.now)
        if self.telemetry is not None:
            self.telemetry.record(request, workload=self.workload.name,
                                  policy=self.policy.name, timestamp=now)
        return request

    def _decide_over(self, zones):
        """Ask the policy to decide over a temporary candidate set."""
        original = self.candidate_zones
        self.candidate_zones = list(zones)
        try:
            return self.decide()
        finally:
            self.candidate_zones = original

    # -- resilient execution ---------------------------------------------------------
    def route_resilient(self, config=None):
        """Route one request through the full resilience stack.

        Per attempt: filter candidates through breaker state, decide, gate
        the chosen zone through its (mutating) breaker, invoke.  On a
        retryable error (:data:`~repro.common.errors.RETRYABLE_REASONS`)
        accrue a full-jitter backoff delay; on any failover-worthy error
        exclude the zone for this request and re-decide.  On success,
        optionally hedge per ``config.hedge``.  Requires ``health`` (a
        :class:`~repro.core.health.ZoneHealthTracker`); returns a
        :class:`~repro.core.resilience.ResilientOutcome`.
        """
        health = self.health
        if health is None:
            raise ConfigurationError(
                "route_resilient requires a ZoneHealthTracker; pass "
                "health= to the router")
        if config is None:
            config = self.resilience
            if config is None:
                config = ResilienceConfig()
        if not health.tripped_breakers:
            # Quiescent fast path: every breaker is closed, so candidate
            # filtering and the mutating gate are both no-ops — one
            # decide, one route, wrap.  This is what keeps the no-fault
            # overhead of the hardened path within the 5 % gate.
            now = self.cloud.clock.now
            decision = self.decide(now=now)
            try:
                request = self.route(decision)
            except InvocationError as error:
                return self._route_resilient_loop(config, error, decision)
            if config.hedge is None:
                return ResilientOutcome(request)
            return self._maybe_hedge(request, config, 1, 0.0, 0, now,
                                     self._event_bus())
        return self._route_resilient_loop(config, None, None)

    def _route_resilient_loop(self, config, error, decision):
        """The full per-attempt loop behind :meth:`route_resilient`.

        ``error``/``decision`` carry a failure the fast path already
        suffered; it is processed as attempt 0 (its sim side effects —
        billing, capacity — have already happened, so it must count
        against the attempt budget, not be replayed).
        """
        health = self.health
        bus = self._event_bus()
        clock = self.cloud.clock
        excluded = set()
        backoff_total = 0.0
        failovers = 0
        last_error = None
        attempt = 0
        now = clock.now
        while attempt < config.max_attempts:
            if error is None:
                now = clock.now
                zones = self.candidate_zones
                if excluded:
                    zones = [z for z in zones if z not in excluded]
                    if not zones:
                        # Every candidate failed this request already;
                        # degrade gracefully by reopening the full set
                        # rather than giving up with attempts in budget.
                        excluded.clear()
                        zones = self.candidate_zones
                routable = health.routable_zones(zones, now)
                if routable is self.candidate_zones:
                    decision = self.decide(now=now)
                else:
                    decision = self._decide_over(routable)
                    if not health.allow(decision.zone_id, now):
                        last_error = BreakerOpenError(decision.zone_id)
                        excluded.add(decision.zone_id)
                        failovers += 1
                        if bus.enabled:
                            bus.emit("router.failover", now,
                                     zone=decision.zone_id,
                                     reason="breaker_open", hop=attempt,
                                     remaining=len(zones) - 1)
                        attempt += 1
                        continue
                try:
                    request = self.route(decision)
                except InvocationError as caught:
                    error = caught
                else:
                    if config.hedge is None:
                        return ResilientOutcome(request,
                                                attempts=attempt + 1,
                                                backoff_s=backoff_total,
                                                failovers=failovers)
                    return self._maybe_hedge(request, config, attempt + 1,
                                             backoff_total, failovers,
                                             now, bus)
            if error.reason not in FAILOVER_REASONS:
                raise error
            last_error = error
            if error.reason in RETRYABLE_REASONS:
                delay = config.backoff.delay(attempt)
                backoff_total += delay
                if bus.enabled:
                    bus.emit("router.backoff", now, zone=decision.zone_id,
                             delay_s=delay, attempt=attempt,
                             reason=error.reason)
            if config.failover:
                excluded.add(decision.zone_id)
                failovers += 1
                if bus.enabled:
                    bus.emit("router.failover", now, zone=decision.zone_id,
                             reason=error.reason, hop=attempt,
                             remaining=(len(self.candidate_zones)
                                        - len(excluded)))
            elif error.reason not in RETRYABLE_REASONS:
                raise error
            error = None
            attempt += 1
        assert last_error is not None
        raise last_error

    def _maybe_hedge(self, request, config, attempts, backoff_s, failovers,
                     now, bus):
        """Wrap ``request`` in a ResilientOutcome, hedging if warranted."""
        hedge = config.hedge
        threshold = (hedge.threshold(self.health, request.zone_id)
                     if hedge is not None else None)
        if threshold is None or request.latency_s <= threshold:
            return ResilientOutcome(request, attempts=attempts,
                                    backoff_s=backoff_s,
                                    failovers=failovers)
        alternates = [z for z in self.candidate_zones
                      if z != request.zone_id]
        if alternates:
            alternates = self.health.routable_zones(alternates, now)
        if not alternates:
            return ResilientOutcome(request, attempts=attempts,
                                    backoff_s=backoff_s,
                                    failovers=failovers)
        decision = self._decide_over(alternates)
        try:
            hedge_request = self.route(decision)
        except InvocationError:
            if bus.enabled:
                bus.emit("router.hedge", now, zone=request.zone_id,
                         hedge_zone=decision.zone_id, won=False,
                         primary_latency_s=request.latency_s,
                         hedge_latency_s=None)
            return ResilientOutcome(request, attempts=attempts,
                                    backoff_s=backoff_s, hedged=True,
                                    hedge_won=False, failovers=failovers)
        # The hedge fires only once the primary has been in flight for
        # ``threshold`` seconds, so its effective completion time is
        # threshold + its own latency.
        hedge_total = threshold + hedge_request.latency_s
        won = hedge_total < request.latency_s
        effective = min(request.latency_s, hedge_total) + backoff_s
        if bus.enabled:
            bus.emit("router.hedge", now, zone=request.zone_id,
                     hedge_zone=hedge_request.zone_id, won=won,
                     primary_latency_s=request.latency_s,
                     hedge_latency_s=hedge_request.latency_s)
        return ResilientOutcome(request, hedge_request=hedge_request,
                                attempts=attempts, backoff_s=backoff_s,
                                hedged=True, hedge_won=won,
                                failovers=failovers, latency_s=effective)

    def dispatch_batch(self, n_requests, decision=None, keep_latencies=False,
                       bill_category="serve"):
        """Resolve ``n_requests`` coalesced requests in one columnar poll.

        The batch counterpart of :meth:`route`: one routing decision
        (or the caller's pre-made one), one deployment lookup, one
        :meth:`~repro.cloudsim.Cloud.poll_batch` with the workload payload
        threaded through — no per-request objects.  Returns
        ``(decision, BatchPollResult)``; zone health and passive
        observations are updated from the aggregate outcome so the serving
        gateway's steady-state traffic feeds the same routing view as the
        scalar path.
        """
        if n_requests <= 0:
            raise ConfigurationError("n_requests must be positive")
        if decision is None:
            decision = self.decide()
        deployment = self._deployment_for(decision.zone_id)
        result = self.cloud.poll_batch(
            deployment, n_requests, bill_category=bill_category,
            payload=self._payload, keep_latencies=keep_latencies)
        now = self.cloud.clock.now
        health = self.health
        if health is not None:
            if result.served:
                health.record_success(decision.zone_id, now,
                                      latency_s=result.mean_latency_s)
            health.record_failures(decision.zone_id, now, result.failed,
                                   reason="saturated")
        if self.passive and result.served:
            # One aggregate timestamp per CPU group, mirroring what the
            # scalar path would have recorded request by request (the
            # store caps observations per CPU anyway).
            for cpu_key in result.request_cpu_counts:
                self.store.record_observation(decision.zone_id, cpu_key,
                                              timestamp=now)
        return decision, result

    def __repr__(self):
        return "SmartRouter(policy={}, workload={!r})".format(
            self.policy.name, self.workload.name)
