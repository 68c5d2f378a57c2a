"""The SkyController: the sky-computing middleware layer (§4.6).

One object owning the full serverless-sky lifecycle:

* **provisioning** — deploy the dynamic-function mesh and per-zone
  sampling endpoints;
* **profiling** — refresh zone characterizations, but only when the
  stability tracker says the current profile has gone stale (volatile
  zones daily, stable zones weekly — the §4.4 cost optimization);
* **routing** — serve workload requests/bursts through a SmartRouter with
  any policy, feeding passive observations back into the store.

This is what a downstream user adopts: point it at a cloud, call
``submit``.
"""

from repro.common.errors import ConfigurationError
from repro.common.units import Money
from repro.core.characterization_store import CharacterizationStore
from repro.core.policies import HybridPolicy
from repro.core.router import MEMORY_MB, SmartRouter
from repro.core.telemetry import RoutingTelemetry
from repro.core.runner import WorkloadRunner
from repro.dynfunc.handler import UniversalDynamicFunctionHandler
from repro.sampling.campaign import SamplingCampaign
from repro.sampling.stability import ZoneStabilityTracker
from repro.skymesh.mesh import SkyMesh
from repro.workloads.registry import resolve_runtime_model


class SkyController(object):
    """Characterization-driven routing with adaptive profiling cadence."""

    def __init__(self, cloud, account, zones, policy=None,
                 polls_per_refresh=6, poll_requests=1000, sampling_count=10,
                 obs=None, health=None):
        if not zones:
            raise ConfigurationError("controller needs candidate zones")
        self.cloud = cloud
        self.account = account
        self.zones = list(zones)
        self.policy = policy or HybridPolicy("focus_fastest")
        self.polls_per_refresh = int(polls_per_refresh)
        self.poll_requests = int(poll_requests)
        # After sampling, wait for the sampling FIs' keep-alives to lapse
        # so profiling traffic never crowds out the workload itself.
        provider = cloud.region_of_zone(self.zones[0]).provider
        self.recovery_gap = provider.adapter.keepalive.idle_ttl * 1.2
        # Observability is opt-in per controller: passing an
        # ``Observability`` wires its bus through the cloud's zones and
        # pools, and every router created here traces + records telemetry.
        self.obs = obs
        if obs is not None:
            obs.install(cloud)
        # Resilience is opt-in the same way: a shared ZoneHealthTracker
        # (breaker state survives across routers) handed to every router
        # created here.
        self.health = health
        self.telemetry = RoutingTelemetry()
        self.mesh = SkyMesh(cloud)
        self.store = CharacterizationStore()
        self.tracker = ZoneStabilityTracker()
        self.runner = WorkloadRunner(cloud)
        self._sampling_cost = Money(0)
        self._sampling_endpoints = {}
        self._provision(sampling_count)

    # -- provisioning -----------------------------------------------------------
    def _provision(self, sampling_count):
        handler = UniversalDynamicFunctionHandler(resolve_runtime_model)
        for index, zone_id in enumerate(self.zones):
            self.mesh.register(self.cloud.deploy(
                self.account, zone_id, "dynamic", MEMORY_MB,
                handler=handler))
            self._sampling_endpoints[zone_id] = (
                self.mesh.deploy_sampling_endpoints(
                    self.account, zone_id, count=sampling_count,
                    memory_base_mb=2048 + index * (sampling_count + 1)))

    # -- profiling ----------------------------------------------------------------
    @property
    def sampling_cost(self):
        return self._sampling_cost

    def refresh_zone(self, zone_id):
        """Force-refresh one zone's characterization now."""
        campaign = SamplingCampaign(
            self.cloud, self._sampling_endpoints[zone_id],
            n_requests=self.poll_requests,
            max_polls=self.polls_per_refresh, inter_poll_gap=1.0)
        result = campaign.run()
        profile = result.ground_truth()
        self.store.put(profile)
        self.tracker.observe(profile)
        self._sampling_cost = self._sampling_cost + result.total_cost
        bus = self.cloud.bus
        if bus.enabled:
            bus.emit("controller.refresh", self.cloud.clock.now,
                     zone=zone_id, polls=result.polls_run,
                     saturated=result.saturated,
                     cost_usd=float(result.total_cost),
                     stability=self.tracker.classify(zone_id))
        return profile

    def refresh_due_zones(self, force=False):
        """Refresh every zone whose profile has gone stale.

        Stable zones are re-sampled far less often than volatile ones —
        the adaptive-cadence saving the paper projects.  Returns the zones
        refreshed.
        """
        refreshed = []
        now = self.cloud.clock.now
        for zone_id in self.zones:
            if force or self.tracker.needs_refresh(zone_id, now):
                self.refresh_zone(zone_id)
                refreshed.append(zone_id)
        if refreshed:
            bus = self.cloud.bus
            if bus.enabled:
                bus.emit("controller.staleness", now,
                         stale=len(refreshed), checked=len(self.zones),
                         zones=",".join(refreshed), forced=bool(force))
            self.cloud.clock.advance(self.recovery_gap)
        return refreshed

    def classification(self):
        """Current stability label per zone."""
        return {zone_id: self.tracker.classify(zone_id)
                for zone_id in self.zones}

    # -- routing --------------------------------------------------------------------
    def router_for(self, workload):
        return SmartRouter(self.cloud, self.mesh, self.store, self.policy,
                           workload, self.zones, memory_mb=MEMORY_MB,
                           passive=True, telemetry=self.telemetry,
                           obs=self.obs, health=self.health)

    def submit(self, workload, payload=None):
        """Route one request of ``workload``; refreshes stale profiles
        first.  With a health tracker attached the request takes the
        resilient path (breakers, backoff, failover)."""
        self.refresh_due_zones()
        router = self.router_for(workload)
        if self.health is not None:
            return router.route_resilient()
        return router.route()

    def submit_burst(self, workload, n_requests):
        """Route a burst through the batched fast path; returns the
        :class:`~repro.core.runner.BatchedBurstResult`."""
        self.refresh_due_zones()
        router = self.router_for(workload)
        decision = router.decide()
        deployment = self.mesh.endpoint(decision.zone_id, MEMORY_MB)
        burst = self.runner.run_batched_burst(
            deployment, workload, n_requests,
            retry_policy=decision.retry_policy,
            policy_name=self.policy.name)
        for cpu_key, count in burst.cpu_counts.items():
            for _ in range(min(count, 50)):  # cap the bookkeeping
                self.store.record_observation(
                    decision.zone_id, cpu_key,
                    timestamp=self.cloud.clock.now)
        return burst

    def __repr__(self):
        return "SkyController(zones={}, policy={})".format(
            self.zones, self.policy.name)
