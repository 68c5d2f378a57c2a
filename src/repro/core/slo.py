"""SLO-aware strategy selection (the §4.6 trade-off, operationalized).

"This added latency makes the approach particularly well suited for
asynchronous background tasks ... In cases where only a small number of
parallel invocations are issued, the opportunity ... is reduced."

Given a latency SLO (a percentile bound) and candidate routing
strategies, :class:`SLOSelector` predicts each strategy's latency
distribution and cost from the zone characterization, discards strategies
that would violate the SLO, and returns the cheapest survivor — making
the paper's "use retries for batch, not for interactive" guidance a
mechanical decision.
"""

import math

from repro.common.errors import CharacterizationError, ConfigurationError
from repro.core.retry import RetryPolicy
from repro.dynfunc.handler import CPU_CHECK_SECONDS


#: Lower bound of :func:`default_slo_s`.
SLO_FLOOR_S = 0.25

#: Client round trip the forecasts charge per attempt.
RTT_S = 0.02


def default_slo_s(workload, multiplier=3.0):
    """A serving-plane default latency SLO for ``workload``.

    A request is "within SLO" when it finishes inside a small multiple of
    the workload's calibrated baseline runtime; the floor keeps very short
    functions from declaring every cold start a violation.  The serving
    gateway uses this when the operator does not pass an explicit bound.
    """
    if multiplier <= 0:
        raise ConfigurationError("multiplier must be positive")
    return max(float(multiplier) * float(workload.base_seconds),
               SLO_FLOOR_S)


class StrategyForecast(object):
    """Predicted cost and latency for one (zone, retry) strategy."""

    __slots__ = ("name", "zone_id", "retry_policy", "expected_cost_usd",
                 "expected_latency_s", "latency_p95_s", "expected_retries")

    def __init__(self, name, zone_id, retry_policy, expected_cost_usd,
                 expected_latency_s, latency_p95_s, expected_retries):
        self.name = name
        self.zone_id = zone_id
        self.retry_policy = retry_policy
        self.expected_cost_usd = expected_cost_usd
        self.expected_latency_s = expected_latency_s
        self.latency_p95_s = latency_p95_s
        self.expected_retries = expected_retries

    def meets(self, latency_slo_s):
        return self.latency_p95_s <= latency_slo_s

    def __repr__(self):
        return ("StrategyForecast({}, ${:.6f}, p95={:.2f}s)".format(
            self.name, self.expected_cost_usd, self.latency_p95_s))


class SLOSelector(object):
    """Pick the cheapest strategy whose predicted p95 fits the SLO."""

    def __init__(self, cloud, store):
        self.cloud = cloud
        self.store = store

    # -- forecasting -----------------------------------------------------------
    def forecast(self, workload, zone_id, retry_policy=None, name=None,
                 memory_mb=2048, arch="x86_64", now=None):
        """Predict one strategy's cost and latency analytically."""
        profile = self.store.get(zone_id, now=now)
        provider = self.cloud.region_of_zone(zone_id).provider
        factors = workload.cpu_factors()
        shares = profile.shares()

        if retry_policy is None:
            allowed = dict(shares)
            expected_retries = 0.0
            hold_s = 0.0
        else:
            allowed = {cpu: share for cpu, share in shares.items()
                       if cpu not in retry_policy.banned_cpus}
            allowed_mass = sum(allowed.values())
            if allowed_mass <= 0:
                raise CharacterizationError(
                    "strategy bans every CPU in {}".format(zone_id))
            expected_retries = min((1.0 - allowed_mass) / allowed_mass,
                                   retry_policy.max_retries)
            hold_s = retry_policy.hold_seconds
        allowed_mass = sum(allowed.values())
        mean_factor = sum(factors[cpu] * share
                          for cpu, share in allowed.items()) / allowed_mass

        runtime = workload.base_seconds * mean_factor
        retry_overhead_s = expected_retries * (CPU_CHECK_SECONDS + hold_s)
        billed_s = runtime + retry_overhead_s
        # billed_s is already the *total* compute time across attempts, so
        # bill it once and add the per-request fee per attempt.
        from repro.common.units import gb_seconds
        expected_cost = (provider.billing.rate_for(arch)
                         * gb_seconds(memory_mb, billed_s)
                         + provider.billing.per_request
                         * (1 + expected_retries))
        mean_latency = (runtime + (1 + expected_retries) * RTT_S
                        + retry_overhead_s)

        # p95: runtime spread over the allowed CPUs plus the retry-count
        # tail (geometric: the 95th percentile of retries).
        max_factor = max(factors[cpu] for cpu in allowed)
        runtime_p95 = workload.base_seconds * max_factor
        if retry_policy is None or allowed_mass >= 1.0:
            retries_p95 = 0.0
        else:
            miss = 1.0 - allowed_mass
            retries_p95 = min(
                math.ceil(math.log(0.05) / math.log(miss)) if miss > 0
                else 0.0,
                retry_policy.max_retries)
        latency_p95 = (runtime_p95
                       + (1 + retries_p95) * RTT_S
                       + retries_p95 * (CPU_CHECK_SECONDS + hold_s))

        return StrategyForecast(
            name=name or ("baseline" if retry_policy is None else "retry"),
            zone_id=zone_id,
            retry_policy=retry_policy,
            expected_cost_usd=float(expected_cost),
            expected_latency_s=mean_latency,
            latency_p95_s=latency_p95,
            expected_retries=expected_retries,
        )

    def candidate_forecasts(self, workload, zone_ids, now=None):
        """The standard strategy menu over the candidate zones."""
        forecasts = []
        factors = workload.cpu_factors()
        for zone_id in zone_ids:
            profile = self.store.try_get(zone_id, now=now)
            if profile is None:
                continue
            cpus = profile.cpu_keys()
            forecasts.append(self.forecast(
                workload, zone_id, None,
                name="direct@{}".format(zone_id), now=now))
            if len(cpus) >= 2:
                for variant, retry in (
                        ("retry_slow", RetryPolicy.retry_slow(
                            cpus, factors,
                            n_slowest=min(2, len(cpus) - 1))),
                        ("focus_fastest", RetryPolicy.focus_fastest(
                            cpus, factors))):
                    forecasts.append(self.forecast(
                        workload, zone_id, retry,
                        name="{}@{}".format(variant, zone_id), now=now))
        if not forecasts:
            raise CharacterizationError(
                "no characterized zones among {}".format(list(zone_ids)))
        return forecasts

    # -- selection ----------------------------------------------------------------
    def select(self, workload, zone_ids, latency_slo_s, now=None):
        """Cheapest strategy meeting the p95 SLO.

        Raises :class:`ConfigurationError` when nothing fits — the caller
        must relax the SLO or accept the fastest strategy explicitly.
        """
        forecasts = self.candidate_forecasts(workload, zone_ids, now=now)
        feasible = [f for f in forecasts if f.meets(latency_slo_s)]
        if not feasible:
            fastest = min(forecasts, key=lambda f: f.latency_p95_s)
            raise ConfigurationError(
                "no strategy meets a {:.2f}s p95 SLO; the fastest "
                "available is {} at {:.2f}s".format(
                    latency_slo_s, fastest.name, fastest.latency_p95_s))
        return min(feasible, key=lambda f: (f.expected_cost_usd, f.name))
