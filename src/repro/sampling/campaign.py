"""Sampling campaigns: poll until the zone saturates.

EX-1 defines the stop rule: "we defined the failure point to stop sampling
as when more than 50 % of the requests in a sampling poll failed."  The
accumulated observations at that point are the zone's **ground truth**
characterization — validated in the paper by a second account hitting
immediate saturation.
"""

from repro.common.distributions import CategoricalDistribution
from repro.common.errors import CharacterizationError, ConfigurationError
from repro.common.units import Money
from repro.sampling.characterization import CPUCharacterization
from repro.sampling.poller import Poller


class CampaignResult(object):
    """The full trace of one sampling campaign in one zone."""

    def __init__(self, zone_id, observations, saturated):
        self.zone_id = zone_id
        self.observations = list(observations)
        self.saturated = saturated

    # -- aggregates ----------------------------------------------------------
    @property
    def polls_run(self):
        return len(self.observations)

    @property
    def total_fis(self):
        return sum(obs.unique_fis for obs in self.observations)

    @property
    def total_requests(self):
        return sum(obs.served + obs.failed for obs in self.observations)

    @property
    def total_cost(self):
        return sum((obs.cost for obs in self.observations), Money(0))

    # -- characterizations --------------------------------------------------------
    def characterization_after(self, polls):
        """Characterization built from the first ``polls`` polls.

        Raises :class:`CharacterizationError` when none of those polls
        served a request — the message names exactly which polls in the
        prefix were all-failed, so a caller sweeping poll budgets (the
        progressive analyses, the parallel engine) can tell a saturated
        prefix from a misconfigured one.
        """
        return self.fold(polls)[3]

    def fold(self, polls):
        """One pass over the first ``polls`` polls: ``(requests, fis,
        cost, profile)``, the totals :attr:`total_requests`,
        :attr:`total_fis` and :attr:`total_cost` report for that prefix
        plus its characterization (what a
        :class:`~repro.sampling.characterization.CharacterizationBuilder`
        fed the serving polls would snapshot).

        Costs are summed as plain floats in poll order: the additions
        ``Money.__add__`` would make, so the bits are the same.  Raises
        :class:`CharacterizationError` when no poll in the prefix served.
        """
        if polls < 1 or polls > self.polls_run:
            raise ConfigurationError(
                "polls must be in [1, {}]".format(self.polls_run))
        prefix = self.observations[:polls]
        requests = fis = samples = served_polls = 0
        cost = profile_cost = 0.0
        counts = {}
        last_time = None
        for obs in prefix:
            served = obs.served
            usd = obs.cost.usd
            requests += served + obs.failed
            fis += obs.unique_fis
            cost += usd
            if served > 0:
                for cpu_key, count in obs.cpu_counts.items():
                    counts[cpu_key] = counts.get(cpu_key, 0) + count
                    samples += count
                served_polls += 1
                profile_cost += usd
                last_time = obs.timestamp
        if samples == 0:
            raise CharacterizationError(
                "first {} poll(s) in {} observed nothing: poll(s) "
                "{} were all-failed ({} failed requests in the "
                "prefix)".format(
                    polls, self.zone_id,
                    ", ".join(str(number) for number, obs
                              in enumerate(prefix, start=1)
                              if obs.served <= 0),
                    sum(obs.failed for obs in prefix)))
        profile = CPUCharacterization(
            self.zone_id, CategoricalDistribution(counts), samples,
            served_polls, Money(profile_cost), last_time or 0.0)
        return requests, fis, Money(cost), profile

    def ground_truth(self):
        """The saturation-time characterization (all polls pooled)."""
        return self.characterization_after(self.polls_run)

    def fis_after(self, polls):
        return sum(obs.unique_fis for obs in self.observations[:polls])

    def __repr__(self):
        return ("CampaignResult({}, polls={}, fis={}, saturated={}, "
                "cost={})".format(self.zone_id, self.polls_run,
                                  self.total_fis, self.saturated,
                                  self.total_cost))


def check_campaign_settings(failure_threshold, max_polls, inter_poll_gap):
    """Raise :class:`ConfigurationError` on a campaign setting out of
    range: :class:`SamplingCampaign` and the engine's
    :class:`~repro.engine.tasks.CampaignTask` both check here."""
    if not 0 < failure_threshold <= 1:
        raise ConfigurationError("failure_threshold must be in (0, 1]")
    if max_polls is not None and max_polls < 1:
        raise ConfigurationError(
            "max_polls must be None or >= 1, got {!r}".format(max_polls))
    if inter_poll_gap < 0:
        raise ConfigurationError(
            "inter_poll_gap must be >= 0, got {!r}".format(inter_poll_gap))


class SamplingCampaign(object):
    """Run polls back-to-back until saturation (or the endpoint budget)."""

    def __init__(self, cloud, endpoints, n_requests=1000,
                 failure_threshold=0.5, max_polls=None,
                 inter_poll_gap=2.5):
        check_campaign_settings(failure_threshold, max_polls, inter_poll_gap)
        self.cloud = cloud
        self.poller = Poller(cloud, endpoints, n_requests=n_requests)
        self.failure_threshold = float(failure_threshold)
        self.max_polls = max_polls if max_polls is not None else len(
            endpoints)
        self.inter_poll_gap = float(inter_poll_gap)

    @property
    def zone_id(self):
        return self.poller.zone_id

    def run(self):
        """Poll until >``failure_threshold`` of a poll's requests fail.

        Returns a :class:`CampaignResult`; ``saturated`` is False when the
        campaign ran out of endpoints before hitting the failure point.
        """
        self.poller.reset_rotation()
        observations = []
        saturated = False
        for _ in range(self.max_polls):
            observation = self.poller.poll()
            observations.append(observation)
            if observation.failure_rate > self.failure_threshold:
                saturated = True
                break
            self.cloud.clock.advance(self.inter_poll_gap)
        result = CampaignResult(self.zone_id, observations, saturated)
        bus = self.cloud.bus
        if bus.enabled:
            bus.emit("sampling.campaign", self.cloud.clock.now,
                     zone=result.zone_id, polls=result.polls_run,
                     saturated=result.saturated,
                     total_fis=result.total_fis,
                     total_requests=result.total_requests,
                     cost_usd=float(result.total_cost))
        return result
