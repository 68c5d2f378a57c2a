"""Temporal drift of a zone's provisioned infrastructure.

EX-4 shows that some AZs (ca-central-1a, us-west-1a, us-west-1b) change
their CPU mix substantially day to day — 20-50 % characterization error by
day two — while others (sa-east-1a, eu-north-1a) stay within 10 % for two
weeks.  Hour-scale variation exists but is mostly small (22 of 24 hours
within 10 % in us-west-1b), with occasional excursions.

We model this with a **logit-space random walk** over the zone's CPU shares:

* a *daily* step with standard deviation ``daily_sigma`` (volatile zones use
  a large sigma, stable zones a small one);
* an *hourly* perturbation around the daily target with ``hourly_sigma``,
  occasionally amplified by ``excursion_scale`` with probability
  ``excursion_prob`` per hour;
* a lognormal *capacity* walk with ``capacity_sigma`` reproducing the
  temporal variation in samples-to-failure the paper notes;
* optional Poisson **hardware events** that introduce a previously unseen
  CPU model at a small share (the EX-3 anomaly).

Everything is a pure function of (zone seed, day, hour), so experiments are
reproducible regardless of query order.
"""

import math

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.rng import derive_rng
from repro.common.units import DAYS, HOURS


class DriftProfile(object):
    """Parameters of a zone's drift behaviour."""

    __slots__ = ("daily_sigma", "hourly_sigma", "excursion_prob",
                 "excursion_scale", "capacity_sigma", "hardware_event_rate",
                 "candidate_cpus")

    def __init__(self, daily_sigma=0.05, hourly_sigma=0.02,
                 excursion_prob=0.08, excursion_scale=5.0,
                 capacity_sigma=0.10, hardware_event_rate=0.0,
                 candidate_cpus=()):
        for name, value in [("daily_sigma", daily_sigma),
                            ("hourly_sigma", hourly_sigma),
                            ("capacity_sigma", capacity_sigma)]:
            if value < 0:
                raise ConfigurationError(name + " must be non-negative")
        if not 0 <= excursion_prob <= 1:
            raise ConfigurationError("excursion_prob must be in [0, 1]")
        self.daily_sigma = float(daily_sigma)
        self.hourly_sigma = float(hourly_sigma)
        self.excursion_prob = float(excursion_prob)
        self.excursion_scale = float(excursion_scale)
        self.capacity_sigma = float(capacity_sigma)
        self.hardware_event_rate = float(hardware_event_rate)
        self.candidate_cpus = tuple(candidate_cpus)

    @classmethod
    def stable(cls):
        """A zone whose mix stays within ~10 % APE for weeks."""
        return cls(daily_sigma=0.035, hourly_sigma=0.015,
                   excursion_prob=0.04, capacity_sigma=0.08)

    @classmethod
    def volatile(cls):
        """A zone whose mix shifts 20-50 % APE within a day or two."""
        return cls(daily_sigma=0.38, hourly_sigma=0.05,
                   excursion_prob=0.08, excursion_scale=4.0,
                   capacity_sigma=0.15)

    @classmethod
    def frozen(cls):
        """No drift at all (unit tests, single-CPU zones)."""
        return cls(daily_sigma=0.0, hourly_sigma=0.0, excursion_prob=0.0,
                   capacity_sigma=0.0)


class DriftProcess(object):
    """Deterministic drift trajectory for one zone.

    ``target_for(day, hour)`` returns ``(shares, total_hosts)``; the zone
    rebalances to those targets lazily when the simulated clock crosses an
    hour boundary (:meth:`apply_if_due`).
    """

    def __init__(self, zone_id, base_shares, base_hosts, profile, seed=0):
        self.zone_id = zone_id
        self.profile = profile
        self.base_hosts = int(base_hosts)
        self._seed = seed
        self._base_logits = {c: math.log(max(base_shares.share(c), 1e-6))
                             for c in base_shares.categories}
        self._daily_cache = {}
        self._last_applied = None
        self._next_due = float("-inf")

    # -- trajectory -------------------------------------------------------------
    def _daily_state(self, day):
        """Logits and capacity multiplier for ``day`` (cached cumulative walk)."""
        if day in self._daily_cache:
            return self._daily_cache[day]
        if day == 0:
            state = (dict(self._base_logits), 1.0)
        else:
            prev_logits, prev_cap = self._daily_state(day - 1)
            rng = derive_rng(self._seed, "drift", self.zone_id, "day", day)
            # One vector draw: bit-identical to a scalar draw per model.
            steps = rng.normal(0.0, self.profile.daily_sigma,
                               size=len(prev_logits)).tolist()
            logits = {c: v + step for (c, v), step
                      in zip(prev_logits.items(), steps)}
            cap = prev_cap * float(np.exp(
                rng.normal(0.0, self.profile.capacity_sigma)))
            cap = min(max(cap, 0.4), 2.5)
            if (self.profile.hardware_event_rate > 0
                    and self.profile.candidate_cpus):
                if rng.random() < self.profile.hardware_event_rate:
                    newcomer = str(rng.choice(self.profile.candidate_cpus))
                    if newcomer not in logits:
                        # Enter at a small share relative to the leaders.
                        logits[newcomer] = max(logits.values()) - 3.0
            state = (logits, cap)
        self._daily_cache[day] = state
        return state

    def target_for(self, day, hour=0):
        """CPU shares and host count at (day, hour)."""
        logits, cap = self._daily_state(int(day))
        hour = int(hour) % 24
        values = list(logits.values())
        sigma = self.profile.hourly_sigma
        if sigma > 0:
            rng = derive_rng(self._seed, "drift", self.zone_id, "hour", day,
                             hour)
            if rng.random() < self.profile.excursion_prob:
                sigma *= self.profile.excursion_scale
            # One vector draw: bit-identical to a scalar draw per model.
            noise = rng.normal(0.0, sigma, size=len(values)).tolist()
            values = [v + n for v, n in zip(values, noise)]
        shares = dict(zip(logits, _softmax(values)))
        hosts = max(1, int(round(self.base_hosts * cap)))
        return shares, hosts

    # -- zone hook ------------------------------------------------------------------
    def apply_if_due(self, zone, now):
        """Rebalance ``zone`` if the clock entered a new hour bucket.

        The hot paths call this once per request; the cached next hour
        boundary turns the common no-op case into a single comparison.
        """
        if now < self._next_due:
            return False
        bucket = (int(now // DAYS), int((now % DAYS) // HOURS))
        self._next_due = (bucket[0] * 24 + bucket[1] + 1) * HOURS
        if bucket == self._last_applied:
            return False
        self._last_applied = bucket
        shares, hosts = self.target_for(*bucket)
        zone.rebalance(shares, now=now, total_hosts=hosts)
        return True


def _softmax(values):
    """Normalized ``exp`` of a list of logits, as a list of floats.

    Shifting and dividing are single IEEE operations, the same bits in
    Python floats as in numpy; the exponentials and their sum stay numpy
    (``math.exp`` can differ in the last bit).
    """
    top = max(values)
    exp = np.exp([v - top for v in values])
    total = float(exp.sum())
    return [e / total for e in exp.tolist()]
