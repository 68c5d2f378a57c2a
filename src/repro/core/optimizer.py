"""Expected-runtime ranking of zones for a workload.

Given each zone's CPU characterization and a workload's per-CPU runtime
factors (Figure 9), the expected runtime factor of routing a request to a
zone is the characterization-weighted mean factor.  The regional and hybrid
policies route to the zone minimizing it.  Bounding candidates by client
round-trip latency is :class:`~repro.core.green.MultiObjectivePolicy`'s
job, not the ranker's.
"""

from repro.common.errors import CharacterizationError, ConfigurationError


class ZoneRanker(object):
    """Ranks candidate zones by expected workload runtime."""

    def __init__(self, store, cloud=None):
        self.store = store
        self.cloud = cloud

    # -- scoring -------------------------------------------------------------
    def expected_factor(self, zone_id, factors, now=None):
        """Characterization-weighted mean runtime factor for the zone."""
        return self.profile_factor(self.store.get(zone_id, now=now),
                                   factors)

    @staticmethod
    def profile_factor(profile, factors):
        """:meth:`expected_factor` of an already-fetched profile."""
        return profile.distribution.expectation(
            lambda cpu_key: factors.get(cpu_key))

    def expected_factor_with_retry(self, zone_id, factors, retry_policy,
                                   check_seconds=0.005, base_seconds=1.0,
                                   now=None):
        """Expected factor when a retry policy filters banned CPUs.

        Successful placements run at the allowed CPUs' mean factor; each
        retry adds (check + hold) time, converted into factor units via
        ``base_seconds`` (the workload's baseline runtime).
        """
        return self.profile_factor_with_retry(
            self.store.get(zone_id, now=now), factors, retry_policy,
            check_seconds=check_seconds, base_seconds=base_seconds)

    @staticmethod
    def profile_factor_with_retry(profile, factors, retry_policy,
                                  check_seconds=0.005, base_seconds=1.0):
        """:meth:`expected_factor_with_retry` of an already-fetched
        profile."""
        zone_id = profile.zone_id
        shares = profile.shares()
        allowed = {cpu: share for cpu, share in shares.items()
                   if cpu not in retry_policy.banned_cpus}
        allowed_mass = sum(allowed.values())
        if allowed_mass <= 0:
            raise CharacterizationError(
                "retry policy bans every CPU in {}".format(zone_id))
        mean_allowed = sum(factors[cpu] * share
                           for cpu, share in allowed.items()) / allowed_mass
        expected_retries = (1.0 - allowed_mass) / allowed_mass
        expected_retries = min(expected_retries, retry_policy.max_retries)
        overhead_s = expected_retries * (check_seconds
                                         + retry_policy.hold_seconds)
        return mean_allowed + overhead_s / base_seconds

    def expected_cost(self, zone_id, factors, base_seconds, memory_mb,
                      now=None):
        """Expected billed dollars per invocation in ``zone_id``.

        Unlike :meth:`expected_factor`, this folds in the zone provider's
        billing rates — the metric that matters when candidates span
        providers with different GB-second prices.
        """
        if self.cloud is None:
            raise ConfigurationError(
                "cost ranking needs a cloud for provider billing")
        factor = self.expected_factor(zone_id, factors, now=now)
        provider = self.cloud.region_of_zone(zone_id).provider
        bill = provider.billing.bill(memory_mb, base_seconds * factor,
                                     requests=1)
        return float(bill.total)

    def rank_by_cost(self, zone_ids, factors, base_seconds, memory_mb,
                     now=None):
        """Zones sorted by ascending expected dollars per invocation."""
        scored = []
        for zone_id in zone_ids:
            try:
                cost = self.expected_cost(zone_id, factors, base_seconds,
                                          memory_mb, now=now)
            except CharacterizationError:
                continue
            scored.append((cost, zone_id))
        scored.sort()
        return [zone_id for _, zone_id in scored]

    # -- ranking --------------------------------------------------------------
    def rank(self, zone_ids, factors, now=None):
        """Zones sorted by ascending expected factor.

        Zones without a usable characterization are skipped.
        """
        scored = []
        for zone_id in zone_ids:
            try:
                score = self.expected_factor(zone_id, factors, now=now)
            except CharacterizationError:
                continue
            scored.append((score, zone_id))
        scored.sort()
        return [zone_id for _, zone_id in scored]

    def best_zone(self, zone_ids, factors, now=None):
        ranked = self.rank(zone_ids, factors, now=now)
        if not ranked:
            raise CharacterizationError(
                "no routable zone among {}".format(list(zone_ids)))
        return ranked[0]
