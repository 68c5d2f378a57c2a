"""The chaos-experiment harness behind ``python -m repro chaos``.

Runs the same routed workload twice on identically-seeded skies under the
same scripted fault schedule — once through the full resilience stack
(breakers + backoff + failover + optional hedging) and once naively — and
reports availability, latency percentiles, retry/hedge overhead, breaker
transitions, and injected-fault counts, all flowing through the
:mod:`repro.obs` metrics registry so the run is inspectable with the
standard exports.

Import as ``from repro.faults.harness import ChaosExperiment`` — this
module pulls in :mod:`repro.core` and so lives outside
``repro.faults.__init__`` (see the note there).
"""

from repro.common.errors import ConfigurationError, InvocationError
from repro.core.health import ZoneHealthTracker
from repro.core.policies import RegionalPolicy
from repro.core.resilience import HedgePolicy, ResilienceConfig
from repro.core.router import SmartRouter
from repro.dynfunc.handler import UniversalDynamicFunctionHandler
from repro.engine.spec import CloudSpec
from repro.faults.injector import FaultInjector
from repro.faults.schedule import build_preset
from repro.obs import Observability
from repro.obs.metrics import quantile
from repro.sampling.characterization import CharacterizationBuilder
from repro.core.characterization_store import CharacterizationStore
from repro.skymesh.mesh import SkyMesh
from repro.workloads.registry import (
    resolve_runtime_model,
    workload_by_name,
)


class ChaosReport(object):
    """Outcome of one run (resilient or naive) under a fault schedule."""

    __slots__ = ("label", "requests", "served", "latencies", "retries",
                 "backoff_s", "hedges", "hedge_wins", "failovers",
                 "breaker_transitions", "fault_counts", "obs")

    def __init__(self, label, requests, served, latencies, retries,
                 backoff_s, hedges, hedge_wins, failovers,
                 breaker_transitions, fault_counts, obs):
        self.label = label
        self.requests = requests
        self.served = served
        self.latencies = latencies
        self.retries = retries
        self.backoff_s = backoff_s
        self.hedges = hedges
        self.hedge_wins = hedge_wins
        self.failovers = failovers
        self.breaker_transitions = breaker_transitions
        self.fault_counts = fault_counts
        self.obs = obs

    @property
    def availability(self):
        if self.requests == 0:
            return 0.0
        return self.served / float(self.requests)

    def latency_percentile(self, q):
        if not self.latencies:
            return 0.0
        return quantile(sorted(self.latencies), q)

    def to_dict(self):
        return {
            "label": self.label,
            "requests": self.requests,
            "served": self.served,
            "availability": self.availability,
            "p50_latency_s": self.latency_percentile(0.50),
            "p99_latency_s": self.latency_percentile(0.99),
            "retries": self.retries,
            "backoff_s": self.backoff_s,
            "hedges": self.hedges,
            "hedge_wins": self.hedge_wins,
            "failovers": self.failovers,
            "breaker_transitions": [
                {"zone": zone, "t": now, "from": old, "to": new}
                for zone, now, old, new in self.breaker_transitions],
            "fault_counts": {
                "{}:{}".format(kind, zone): count
                for (kind, zone), count in sorted(self.fault_counts.items())},
        }

    def __repr__(self):
        return ("ChaosReport({}: availability={:.1%}, p99={:.3f}s, "
                "failovers={})".format(self.label, self.availability,
                                       self.latency_percentile(0.99),
                                       self.failovers))


class ChaosExperiment(object):
    """Drives a routed workload through a scripted fault schedule.

    Both runs build an identically-seeded sky, so any difference between
    the resilient and naive reports is attributable to the client path,
    not to simulator randomness.
    """

    def __init__(self, zones=("us-west-1a", "us-west-1b"), workload=None,
                 seed=42, requests=400, interval_s=1.0):
        if len(zones) < 2:
            raise ConfigurationError(
                "chaos experiment needs at least two candidate zones")
        if requests < 1:
            raise ConfigurationError("requests must be >= 1")
        self.zones = list(zones)
        self.workload = (workload if workload is not None
                         else workload_by_name("sha1_hash"))
        if isinstance(self.workload, str):
            self.workload = workload_by_name(self.workload)
        self.seed = seed
        self.requests = int(requests)
        self.interval_s = float(interval_s)

    # -- rig construction -----------------------------------------------------
    def _build_rig(self, schedule=None, resilient=False):
        cloud = CloudSpec.for_zones(self.zones, seed=self.seed).build()
        obs = Observability()
        obs.install(cloud)
        injector = None
        if schedule is not None:
            injector = FaultInjector(schedule, seed=self.seed).install(cloud)
        account = cloud.create_account("chaos", "aws")
        mesh = SkyMesh(cloud)
        handler = UniversalDynamicFunctionHandler(resolve_runtime_model)
        store = CharacterizationStore()
        for zone_id in self.zones:
            mesh.register(cloud.deploy(account, zone_id, "dynamic", 2048,
                                       handler=handler))
            builder = CharacterizationBuilder(zone_id)
            builder.add_poll({key: pool.capacity for key, pool
                              in cloud.zone(zone_id).pools.items()
                              if pool.capacity > 0})
            store.put(builder.snapshot())
        health = None
        resilience = None
        if resilient:
            health = ZoneHealthTracker(bus=obs.bus)
            resilience = ResilienceConfig(hedge=HedgePolicy())
        router = SmartRouter(cloud, mesh, store, RegionalPolicy(),
                             self.workload, self.zones, obs=obs,
                             health=health, resilience=resilience)
        return cloud, obs, injector, router, health

    def preferred_zone(self):
        """The zone the policy routes to on a healthy sky — the one a
        targeted fault schedule must hit for the demo to mean anything."""
        _, _, _, router, _ = self._build_rig()
        return router.decide().zone_id

    # -- runs ------------------------------------------------------------------
    def run_resilient(self, schedule):
        cloud, obs, injector, router, health = self._build_rig(
            schedule, resilient=True)
        served = 0
        latencies = []
        retries = backoff_s = hedges = hedge_wins = failovers = 0
        for _ in range(self.requests):
            try:
                outcome = router.route_resilient()
            except InvocationError:
                pass
            else:
                served += 1
                latencies.append(outcome.latency_s)
                retries += outcome.attempts - 1
                backoff_s += outcome.backoff_s
                hedges += 1 if outcome.hedged else 0
                hedge_wins += 1 if outcome.hedge_won else 0
                failovers += outcome.failovers
            cloud.clock.advance(self.interval_s)
        return ChaosReport(
            label="resilient",
            requests=self.requests,
            served=served,
            latencies=latencies,
            retries=retries,
            backoff_s=backoff_s,
            hedges=hedges,
            hedge_wins=hedge_wins,
            failovers=failovers,
            breaker_transitions=health.transitions(),
            fault_counts=injector.fault_counts() if injector else {},
            obs=obs,
        )

    def run_naive(self, schedule):
        cloud, obs, injector, router, _ = self._build_rig(schedule)
        served = 0
        latencies = []
        for _ in range(self.requests):
            try:
                request = router.route()
            except InvocationError:
                pass
            else:
                served += 1
                latencies.append(request.latency_s)
            cloud.clock.advance(self.interval_s)
        return ChaosReport(
            label="naive",
            requests=self.requests,
            served=served,
            latencies=latencies,
            retries=0,
            backoff_s=0.0,
            hedges=0,
            hedge_wins=0,
            failovers=0,
            breaker_transitions=[],
            fault_counts=injector.fault_counts() if injector else {},
            obs=obs,
        )

    def run_preset(self, name, start=60.0, duration=240.0):
        """Run resilient vs. naive under the named preset, targeted at the
        policy's preferred zone.  Returns ``(resilient, naive)`` reports.

        Each run gets its own :class:`~repro.faults.injector.FaultInjector`
        over the *same* ``(seed, schedule)``, so their fault timelines are
        identical wherever their request streams coincide.
        """
        primary = self.preferred_zone()
        targets = [primary] + [z for z in self.zones if z != primary]
        schedule = build_preset(name, targets, start=start,
                                duration=duration)
        resilient = self.run_resilient(schedule)
        naive = self.run_naive(schedule)
        return resilient, naive
