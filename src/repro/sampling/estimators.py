"""Statistical confidence for CPU characterizations (RQ-2 machinery).

A characterization is a multinomial estimate; this module quantifies how
much to trust it:

* **credible intervals** on each CPU's share under a Dirichlet posterior
  (Jeffreys prior), honouring the *effective* sample size — placement is
  host-granular, so 1,000 requests carry far fewer independent draws;
* **predicted APE** from the posterior, an analytic counterpart to the
  empirical Figure-5 curves;
* **sample-size planning**: how many more observations until a share is
  known to ±ε at a given confidence.
"""

import math

from repro.common.errors import CharacterizationError, ConfigurationError

# A placement wave fills ~15 % of a 64-slot host before spilling, so
# consecutive requests share hosts: roughly this many requests per
# independent draw (see AvailabilityZone.HOST_FILL_FRACTION).
DEFAULT_CLUSTER_SIZE = 9.6


class CharacterizationEstimator(object):
    """Dirichlet-posterior view over a characterization's counts."""

    def __init__(self, characterization, cluster_size=DEFAULT_CLUSTER_SIZE,
                 prior=0.5):
        if cluster_size < 1:
            raise ConfigurationError("cluster_size must be >= 1")
        if prior <= 0:
            raise ConfigurationError("prior must be positive")
        counts = characterization.distribution.counts()
        if not counts:
            raise CharacterizationError("empty characterization")
        self.zone_id = characterization.zone_id
        self.cluster_size = float(cluster_size)
        self.prior = float(prior)
        # Deflate counts to the effective number of independent draws.
        self._effective = {cpu: count / self.cluster_size
                           for cpu, count in counts.items()}

    @property
    def effective_samples(self):
        return sum(self._effective.values())

    def cpu_keys(self):
        return sorted(self._effective)

    # -- share intervals ----------------------------------------------------------
    def share_interval(self, cpu_key, confidence=0.95):
        """Credible interval for one CPU's share.

        Marginal of a Dirichlet is a Beta; Jeffreys prior (0.5) keeps the
        interval honest for rare categories.
        """
        if not 0 < confidence < 1:
            raise ConfigurationError("confidence must be in (0, 1)")
        if cpu_key not in self._effective:
            # Never observed: upper bound only.
            alpha = self.prior
            beta = self.effective_samples + self.prior * len(
                self._effective)
        else:
            alpha = self._effective[cpu_key] + self.prior
            beta = (self.effective_samples - self._effective[cpu_key]
                    + self.prior * max(1, len(self._effective) - 1))
        # scipy.stats is imported where it is used: it costs ~70 MB of
        # resident memory, which every process importing ``repro`` would
        # otherwise pay (sweep workers, the serving gateway).
        from scipy import stats

        tail = (1.0 - confidence) / 2.0
        low = float(stats.beta.ppf(tail, alpha, beta))
        high = float(stats.beta.ppf(1.0 - tail, alpha, beta))
        return max(0.0, low), min(1.0, high)

    def share_halfwidth(self, cpu_key, confidence=0.95):
        low, high = self.share_interval(cpu_key, confidence)
        return (high - low) / 2.0

    # -- APE prediction ---------------------------------------------------------------
    def predicted_ape(self, confidence=0.5):
        """Analytic APE estimate vs. the (unknown) true distribution.

        Expected L1 deviation of a Dirichlet posterior from its mean,
        approximated per-category via the Beta standard deviation (the
        mean absolute deviation of a near-normal is sqrt(2/pi)*sigma).
        ``confidence`` is unused for the expectation but kept for
        signature symmetry with :meth:`share_interval`.
        """
        total = self.effective_samples
        if total <= 0:
            return 200.0
        ape = 0.0
        for cpu_key, effective in self._effective.items():
            share = effective / total
            sigma = math.sqrt(share * (1.0 - share) / total)
            ape += math.sqrt(2.0 / math.pi) * sigma
        return 100.0 * ape

    def observations_for_halfwidth(self, cpu_key, target_halfwidth,
                                   confidence=0.95):
        """Raw observations needed so the share is known to ±target.

        Returns the *additional* requests to collect (0 when already
        there), inflated back by the cluster size.
        """
        if target_halfwidth <= 0:
            raise ConfigurationError("target_halfwidth must be positive")
        share = self._effective.get(cpu_key, 0.0)
        total = self.effective_samples
        p = (share + self.prior) / (total + 2 * self.prior)
        from scipy import stats

        z = float(stats.norm.ppf(1.0 - (1.0 - confidence) / 2.0))
        needed_effective = (z / target_halfwidth) ** 2 * p * (1.0 - p)
        additional = needed_effective - total
        if additional <= 0:
            return 0
        return int(math.ceil(additional * self.cluster_size))

    def __repr__(self):
        return ("CharacterizationEstimator({}, effective_n={:.0f})"
                .format(self.zone_id, self.effective_samples))
