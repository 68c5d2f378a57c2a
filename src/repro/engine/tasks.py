"""Picklable task adapters around the library's experiment entry points.

Each task is a small value object holding a :class:`CloudSpec` plus the
experiment's own parameters.  ``run()`` builds a private cloud inside the
worker process, executes the underlying flow — a sampling campaign, a
progressive-sampling analysis, a temporal series, or a routing study —
and returns the flow's **existing result type** (``CampaignResult``,
``ProgressiveAnalysis``, lists thereof, ``StudyResult``).  No live
simulator object ever crosses the process boundary in either direction.

Tasks deliberately reference workloads and routing policies by *name/spec*
rather than by object, so the transported payload stays primitive and the
worker resolves them against its own interpreter state.
"""

from repro.cloudsim.adapters import sampling_poll_size
from repro.common.errors import ConfigurationError
from repro.engine.spec import CloudSpec
from repro.sampling.campaign import check_campaign_settings


def run_task(task):
    """Module-level trampoline so executors can submit tasks by value."""
    return task.run()


class SweepTask(object):
    """Base class: a cloud spec plus a stable cell identity."""

    kind = "abstract"

    def __init__(self, spec):
        if not isinstance(spec, CloudSpec):
            raise ConfigurationError(
                "task needs a CloudSpec, got {!r}".format(type(spec)))
        self.spec = spec

    def cell_id(self):
        """A short human-readable identity for progress events."""
        return "{}:{}".format(self.kind, self.spec.seed)

    def run(self):
        raise NotImplementedError

    def __repr__(self):
        return "{}({})".format(type(self).__name__, self.cell_id())


def _deploy_sampling_endpoints(cloud, account, zone_id, count):
    """The CLI's endpoint recipe, shared by every sampling-style task."""
    from repro.skymesh import SkyMesh
    region = cloud.region_of_zone(zone_id)
    memory_base_mb = min(2048, region.provider.memory_options_mb[-1] - count)
    mesh = SkyMesh(cloud)
    return mesh.deploy_sampling_endpoints(account, zone_id, count=count,
                                          memory_base_mb=memory_base_mb)


def _auto_requests(cloud, zone_id, n_requests):
    if n_requests is not None:
        return int(n_requests)
    return sampling_poll_size(cloud.region_of_zone(zone_id).provider)


class CampaignSummary(object):
    """Compact campaign outcome: aggregates + the final characterization.

    A full :class:`~repro.sampling.campaign.CampaignResult` carries every
    poll observation — tens of thousands of small objects for a long
    campaign, which the parent process must unpickle *serially* as workers
    return.  Cells that only need the end state (``CampaignTask`` with
    ``summary=True``) ship this instead: fixed-size, a few hundred bytes.
    """

    __slots__ = ("zone_id", "polls_run", "total_requests", "total_fis",
                 "saturated", "total_cost", "profile")

    def __init__(self, zone_id, polls_run, total_requests, total_fis,
                 saturated, total_cost, profile):
        self.zone_id = zone_id
        self.polls_run = polls_run
        self.total_requests = total_requests
        self.total_fis = total_fis
        self.saturated = saturated
        self.total_cost = total_cost
        self.profile = profile

    @classmethod
    def of(cls, result):
        """Summarize a :class:`CampaignResult` (ground-truth profile),
        folding its observations once."""
        polls = result.polls_run
        requests, fis, cost, profile = result.fold(polls)
        return cls(result.zone_id, polls, requests, fis, result.saturated,
                   cost, profile)

    def ground_truth(self):
        """The saturation-time characterization (mirrors CampaignResult)."""
        return self.profile

    def shares(self):
        return self.profile.shares()

    def __repr__(self):
        return ("CampaignSummary({}, polls={}, fis={}, saturated={}, "
                "cost={})".format(self.zone_id, self.polls_run,
                                  self.total_fis, self.saturated,
                                  self.total_cost))


class CampaignTask(SweepTask):
    """One saturation campaign in one zone on a private cloud.

    ``n_requests=None`` resolves to the CLI default
    :func:`~repro.cloudsim.adapters.sampling_poll_size` inside the worker.  ``summary=True``
    returns a :class:`CampaignSummary` instead of the full
    :class:`CampaignResult`, shrinking what crosses the process boundary
    from one object per request down to a fixed-size digest — the right
    choice for wide grids where only the final characterization matters.
    """

    kind = "campaign"

    def __init__(self, spec, zone_id, endpoints=10, n_requests=None,
                 max_polls=None, failure_threshold=0.5, inter_poll_gap=2.5,
                 summary=False):
        super().__init__(spec)
        check_campaign_settings(failure_threshold, max_polls,
                                inter_poll_gap)
        self.zone_id = zone_id
        self.endpoints = int(endpoints)
        self.n_requests = n_requests
        self.max_polls = max_polls
        self.failure_threshold = float(failure_threshold)
        self.inter_poll_gap = float(inter_poll_gap)
        self.summary = bool(summary)

    def cell_id(self):
        return "{}:{}:{}".format(self.kind, self.zone_id, self.spec.seed)

    def _campaign(self):
        from repro.sampling.campaign import SamplingCampaign
        cloud, account = self.spec.build_with_account(self.zone_id)
        endpoints = _deploy_sampling_endpoints(
            cloud, account, self.zone_id, self.endpoints)
        return SamplingCampaign(
            cloud, endpoints,
            n_requests=_auto_requests(cloud, self.zone_id, self.n_requests),
            failure_threshold=self.failure_threshold,
            max_polls=self.max_polls,
            inter_poll_gap=self.inter_poll_gap)

    def run(self):
        """Returns the :class:`CampaignResult` (or its summary)."""
        result = self._campaign().run()
        if self.summary:
            return CampaignSummary.of(result)
        return result


class ProgressiveTask(CampaignTask):
    """A saturation campaign plus its accuracy-versus-cost analysis."""

    kind = "progressive"

    def run(self):
        """Returns the :class:`ProgressiveAnalysis` over the campaign."""
        from repro.sampling.progressive import ProgressiveAnalysis
        return ProgressiveAnalysis(self._campaign().run())


class TemporalTask(SweepTask):
    """A daily or hourly campaign series in one zone (EX-4)."""

    kind = "temporal"
    MODES = ("daily", "hourly")

    def __init__(self, spec, zone_id, mode="daily", periods=7,
                 polls_per_period=6, endpoints=10, n_requests=None):
        super().__init__(spec)
        if mode not in self.MODES:
            raise ConfigurationError(
                "unknown temporal mode {!r}; pick one of {}".format(
                    mode, self.MODES))
        if int(polls_per_period) < 1:
            raise ConfigurationError(
                "temporal task needs polls_per_period >= 1, got {}".format(
                    polls_per_period))
        self.zone_id = zone_id
        self.mode = mode
        self.periods = int(periods)
        self.polls_per_period = int(polls_per_period)
        self.endpoints = int(endpoints)
        self.n_requests = n_requests

    def cell_id(self):
        return "{}:{}:{}:{}".format(self.kind, self.mode, self.zone_id,
                                    self.spec.seed)

    def run(self):
        """Daily mode returns ``[CampaignResult]``; hourly mode returns
        ``[CPUCharacterization]`` — both picklable value objects."""
        from repro.sampling.temporal import DailyCampaignSeries, HourlySeries
        cloud, account = self.spec.build_with_account(self.zone_id)
        endpoints = _deploy_sampling_endpoints(
            cloud, account, self.zone_id, self.endpoints)
        n_requests = _auto_requests(cloud, self.zone_id, self.n_requests)
        if self.mode == "daily":
            series = DailyCampaignSeries(
                cloud, endpoints, days=self.periods, n_requests=n_requests,
                max_polls=self.polls_per_period)
        else:
            series = HourlySeries(
                cloud, endpoints, hours=self.periods,
                polls_per_hour=self.polls_per_period, n_requests=n_requests)
        return series.run()


#: Default policy roster for study cells: the paper's Figure-10/11 lineup.
DEFAULT_POLICY_SPECS = (("baseline",), ("retry", "retry_slow"),
                        ("retry", "focus_fastest"),
                        ("hybrid", "focus_fastest"))


def build_policy(spec, baseline_zone):
    """Resolve a primitive policy spec tuple into a RoutingPolicy.

    Specs: ``("baseline",)``, ``("retry", variant)``,
    ``("hybrid", variant)``, ``("regional",)``, ``("cheapest",)``.
    """
    from repro.core.policies import (
        BaselinePolicy,
        CheapestCostPolicy,
        HybridPolicy,
        RegionalPolicy,
        RetryRoutingPolicy,
    )
    kind = spec[0]
    if kind == "baseline":
        return BaselinePolicy(baseline_zone)
    if kind == "retry":
        return RetryRoutingPolicy(baseline_zone, spec[1])
    if kind == "hybrid":
        return HybridPolicy(spec[1])
    if kind == "regional":
        return RegionalPolicy()
    if kind == "cheapest":
        return CheapestCostPolicy()
    raise ConfigurationError("unknown policy spec {!r}".format(spec))


class StudyTask(SweepTask):
    """One multi-day routing study (one workload, several zones)."""

    kind = "study"

    def __init__(self, spec, workload_name, zones, baseline_zone=None,
                 days=7, burst_size=1000, polls_per_day=6,
                 sampling_count=10, policy_specs=DEFAULT_POLICY_SPECS):
        super().__init__(spec)
        if not zones:
            raise ConfigurationError("study task needs candidate zones")
        self.workload_name = workload_name
        self.zones = tuple(zones)
        self.baseline_zone = baseline_zone or self.zones[0]
        if self.baseline_zone not in self.zones:
            raise ConfigurationError(
                "baseline zone {!r} is not a candidate zone ({})".format(
                    self.baseline_zone, ", ".join(self.zones)))
        self.days = int(days)
        self.burst_size = int(burst_size)
        self.polls_per_day = int(polls_per_day)
        self.sampling_count = int(sampling_count)
        self.policy_specs = tuple(tuple(s) for s in policy_specs)

    def cell_id(self):
        return "{}:{}:{}".format(self.kind, self.workload_name,
                                 self.spec.seed)

    def run(self):
        """Returns the :class:`StudyResult`."""
        from repro.core.study import RoutingStudy
        cloud = self.spec.build()
        study = RoutingStudy.from_names(
            cloud, self.workload_name, self.zones,
            sampling_count=self.sampling_count, days=self.days,
            burst_size=self.burst_size, polls_per_day=self.polls_per_day)
        policies = [build_policy(spec, self.baseline_zone)
                    for spec in self.policy_specs]
        return study.run(policies)
