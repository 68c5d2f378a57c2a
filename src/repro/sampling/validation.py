"""The EX-1 saturation-validation protocol as a reusable procedure.

The paper's strongest methodological claim — that the sampling technique
observes the *entire* provisioned pool — rests on a falsifiable test:
exhaust the zone from one account, then immediately poll from a fully
independent second account.  If the failures were per-account rate
limiting, the second account would sail through; if they reflect shared
pool exhaustion, it fails instantly.

:func:`validate_saturation` packages that protocol so any user of the
library can re-run the check against a zone (simulated here; the same
call sequence applies to a live platform driver).
"""

from repro.common.errors import ConfigurationError
from repro.sampling.campaign import SamplingCampaign
from repro.sampling.poller import Poller

#: Polls the independent second account makes after the first saturates.
SECONDARY_POLLS = 3

#: Failure fraction at which the second account's first poll counts as
#: blocked by the shared pool.
BLOCKED_THRESHOLD = 0.9


class SaturationValidation(object):
    """Outcome of the two-account validation protocol."""

    __slots__ = ("zone_id", "primary_campaign", "secondary_failure_rates")

    def __init__(self, zone_id, primary_campaign, secondary_failure_rates):
        self.zone_id = zone_id
        self.primary_campaign = primary_campaign
        self.secondary_failure_rates = list(secondary_failure_rates)

    @property
    def primary_saturated(self):
        return self.primary_campaign.saturated

    @property
    def secondary_blocked(self):
        """True when the independent account failed immediately."""
        if not self.secondary_failure_rates:
            return False
        return self.secondary_failure_rates[0] >= BLOCKED_THRESHOLD

    @property
    def pool_is_shared(self):
        """The paper's conclusion: saturation is pool exhaustion, not
        per-account rate limiting."""
        return self.primary_saturated and self.secondary_blocked

    def summary(self):
        return {
            "zone": self.zone_id,
            "primary_polls": self.primary_campaign.polls_run,
            "primary_fis": self.primary_campaign.total_fis,
            "primary_saturated": self.primary_saturated,
            "secondary_failure_rates": [
                round(rate, 4) for rate in self.secondary_failure_rates],
            "pool_is_shared": self.pool_is_shared,
        }

    def __repr__(self):
        return ("SaturationValidation({}, shared={})".format(
            self.zone_id, self.pool_is_shared))


def validate_saturation(cloud, primary_endpoints, secondary_endpoints,
                        n_requests=1000):
    """Run the EX-1 protocol; returns a :class:`SaturationValidation`.

    ``primary_endpoints`` and ``secondary_endpoints`` must target the same
    zone but belong to *different accounts* — the whole point is that the
    only shared resource is the zone's pool.
    """
    primary_zone = {e.zone_id for e in primary_endpoints}
    secondary_zone = {e.zone_id for e in secondary_endpoints}
    if primary_zone != secondary_zone:
        raise ConfigurationError(
            "both endpoint sets must target the same zone")
    primary_accounts = {e.account.account_id for e in primary_endpoints}
    secondary_accounts = {e.account.account_id
                          for e in secondary_endpoints}
    if primary_accounts & secondary_accounts:
        raise ConfigurationError(
            "the validation needs two independent accounts")

    campaign = SamplingCampaign(cloud, primary_endpoints,
                                n_requests=n_requests)
    primary_result = campaign.run()

    poller = Poller(cloud, secondary_endpoints, n_requests=n_requests)
    failure_rates = []
    for _ in range(SECONDARY_POLLS):
        observation = poller.poll()
        failure_rates.append(observation.failure_rate)
        cloud.clock.advance(2.5)

    return SaturationValidation(
        zone_id=primary_endpoints[0].zone_id,
        primary_campaign=primary_result,
        secondary_failure_rates=failure_rates,
    )
