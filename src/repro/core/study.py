"""Multi-day routing studies: the EX-5 evaluation harness.

A :class:`RoutingStudy` replays the paper's two-week protocol for one
workload:

1. every "day" (22-hour cadence, like EX-4), refresh each candidate zone's
   characterization with a short sampling campaign;
2. run one burst of invocations per routing strategy (baseline, retry
   variants, regional, hybrid) against the mesh;
3. record per-day costs, chosen zones, and retry counts.

The result feeds Figures 10 and 11: cumulative and maximum-daily savings of
each strategy versus the fixed-zone baseline, plus the sampling spend
(the paper's $2.80 total).
"""

from repro.common.errors import ConfigurationError
from repro.common.units import HOURS, MINUTES, Money
from repro.core.metrics import summarize_savings
from repro.core.router import MEMORY_MB, SmartRouter
from repro.core.runner import WorkloadRunner
from repro.sampling.campaign import SamplingCampaign


class StudyResult(object):
    """Everything a routing study measured."""

    def __init__(self, workload_name, days, policy_names):
        self.workload_name = workload_name
        self.days = days
        self.policy_names = list(policy_names)
        self.daily_costs = {name: [] for name in policy_names}
        self.daily_retries = {name: [] for name in policy_names}
        self.zones_chosen = {name: [] for name in policy_names}
        self.sampling_cost = Money(0)

    def record_burst(self, policy_name, burst):
        self.daily_costs[policy_name].append(float(burst.total_cost))
        self.daily_retries[policy_name].append(burst.total_retries)
        self.zones_chosen[policy_name].append(burst.zone_id)

    def cumulative_cost(self, policy_name):
        return sum(self.daily_costs[policy_name])

    def savings_summary(self, baseline="baseline"):
        """Savings of every strategy vs. the baseline (see metrics)."""
        return summarize_savings(self.daily_costs, baseline=baseline)

    def retry_fraction(self, policy_name, burst_size):
        total = sum(self.daily_retries[policy_name])
        return total / float(burst_size * len(
            self.daily_retries[policy_name]))

    def __repr__(self):
        return "StudyResult({!r}, days={}, policies={})".format(
            self.workload_name, self.days, self.policy_names)


class RoutingStudy(object):
    """Runs one workload under several policies over a multi-day horizon."""

    def __init__(self, cloud, mesh, store, workload, candidate_zones,
                 sampling_endpoints, days=14, cadence_hours=22.0,
                 burst_size=1000, polls_per_day=6, poll_requests=1000):
        """``sampling_endpoints`` maps zone_id -> list of sampling
        deployments (each zone needs at least ``polls_per_day``)."""
        if days < 1:
            raise ConfigurationError("study needs at least one day")
        for zone_id in candidate_zones:
            if zone_id not in sampling_endpoints:
                raise ConfigurationError(
                    "no sampling endpoints for zone {!r}".format(zone_id))
        self.cloud = cloud
        self.mesh = mesh
        self.store = store
        self.workload = workload
        self.candidate_zones = list(candidate_zones)
        self.sampling_endpoints = dict(sampling_endpoints)
        self.days = int(days)
        self.cadence_hours = float(cadence_hours)
        self.burst_size = int(burst_size)
        self.polls_per_day = int(polls_per_day)
        self.poll_requests = int(poll_requests)
        self._runner = WorkloadRunner(cloud)

    @classmethod
    def from_names(cls, cloud, workload_name, candidate_zones,
                   sampling_count=10, **kwargs):
        """Build a study from primitive names on a fresh ``cloud``.

        Creates the account, the per-zone sampling endpoint sets, and the
        dynamic-function mesh the CLI's ``study`` subcommand always built
        by hand — and which the parallel engine's :class:`StudyTask` needs
        to rebuild *inside* a worker process, where only names and numbers
        arrive.  ``kwargs`` pass through to the constructor (``days``,
        ``burst_size``, ``polls_per_day``, ...).
        """
        from repro.core.characterization_store import CharacterizationStore
        from repro.dynfunc import UniversalDynamicFunctionHandler
        from repro.skymesh import SkyMesh
        from repro.workloads import resolve_runtime_model, workload_by_name

        candidate_zones = list(candidate_zones)
        if not candidate_zones:
            raise ConfigurationError("study needs candidate zones")
        provider = cloud.region_of_zone(candidate_zones[0]).provider.name
        account = cloud.create_account("study", provider)
        mesh = SkyMesh(cloud)
        endpoints = {}
        for zone_id in candidate_zones:
            endpoints[zone_id] = mesh.deploy_sampling_endpoints(
                account, zone_id, count=sampling_count)
            mesh.register(cloud.deploy(
                account, zone_id, "dynamic", MEMORY_MB,
                handler=UniversalDynamicFunctionHandler(
                    resolve_runtime_model)))
        return cls(cloud, mesh, CharacterizationStore(),
                   workload_by_name(workload_name), candidate_zones,
                   endpoints, **kwargs)

    def _refresh_characterizations(self, result):
        for zone_id in self.candidate_zones:
            campaign = SamplingCampaign(
                self.cloud, self.sampling_endpoints[zone_id],
                n_requests=self.poll_requests,
                max_polls=self.polls_per_day, inter_poll_gap=1.0)
            outcome = campaign.run()
            self.store.put(outcome.ground_truth())
            result.sampling_cost = result.sampling_cost + outcome.total_cost
            self.cloud.clock.advance(30.0)
        # Let the sampling FIs' keep-alives lapse before the workload
        # bursts, so characterization traffic does not crowd them out.
        self.cloud.clock.advance(10 * MINUTES)

    def _make_router(self, policy):
        return SmartRouter(
            self.cloud, self.mesh, self.store, policy, self.workload,
            self.candidate_zones, memory_mb=MEMORY_MB)

    def run(self, policies):
        """Execute the study; ``policies`` is a list of RoutingPolicy.

        Policy names must be unique (they key the result series).
        """
        names = [policy.name for policy in policies]
        if len(set(names)) != len(names):
            raise ConfigurationError(
                "duplicate policy names: {}".format(names))
        result = StudyResult(self.workload.name, self.days, names)
        for day in range(self.days):
            day_start = self.cloud.clock.now
            self._refresh_characterizations(result)
            for policy in policies:
                router = self._make_router(policy)
                decision = router.decide()
                deployment = self.mesh.endpoint(decision.zone_id,
                                                MEMORY_MB)
                burst = self._runner.run_batched_burst(
                    deployment, self.workload, self.burst_size,
                    retry_policy=decision.retry_policy,
                    policy_name=policy.name)
                result.record_burst(policy.name, burst)
                # Space strategies out past the keep-alive window so bursts
                # do not inherit each other's warm FIs.
                self.cloud.clock.advance(10 * MINUTES)
            if day != self.days - 1:
                self.cloud.clock.advance_to(
                    day_start + self.cadence_hours * HOURS)
        return result
