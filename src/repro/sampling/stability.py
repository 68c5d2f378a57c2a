"""Zone stability classification and adaptive sampling cadence (§4.4).

EX-4's takeaway: "stable AZs require less sampling to save on profiling
costs such as sa-east-1a and eu-north-1a, while others like ca-central-1a
and us-west-1a may require more samples."  This module turns that into a
mechanism: classify each zone from the observed drift of its recent
characterizations, then derive a per-zone re-sampling interval.
"""

from repro.common.errors import CharacterizationError, ConfigurationError
from repro.common.units import DAYS, HOURS

STABLE = "stable"
VOLATILE = "volatile"
UNKNOWN = "unknown"

#: How long a zone's current profile can be trusted, by stability label:
#: stable zones are re-sampled weekly, the rest on EX-4's daily cadence.
REFRESH_INTERVAL_S = {STABLE: 7 * DAYS, VOLATILE: 22 * HOURS,
                      UNKNOWN: 22 * HOURS}


class StabilityClassifier(object):
    """Classifies zones from consecutive-characterization drift.

    Feed it the characterization history (oldest first); it computes the
    APE between consecutive profiles normalized to a per-day rate and
    compares against ``volatile_threshold`` (APE %/day).
    """

    def __init__(self, volatile_threshold=8.0, min_observations=2):
        if volatile_threshold <= 0:
            raise ConfigurationError("volatile_threshold must be positive")
        if min_observations < 2:
            raise ConfigurationError("need at least two observations")
        self.volatile_threshold = float(volatile_threshold)
        self.min_observations = int(min_observations)

    def drift_rate(self, history):
        """Mean APE drift per simulated day across consecutive profiles."""
        if len(history) < 2:
            raise CharacterizationError(
                "need two characterizations to measure drift")
        rates = []
        for earlier, later in zip(history, history[1:]):
            gap_days = (later.created_at - earlier.created_at) / DAYS
            if gap_days <= 0:
                continue
            rates.append(later.ape_to(earlier) / gap_days)
        if not rates:
            raise CharacterizationError(
                "characterizations are not time-separated")
        return sum(rates) / len(rates)

    def classify(self, history):
        """``stable`` / ``volatile`` / ``unknown`` for a profile history."""
        if len(history) < self.min_observations:
            return UNKNOWN
        try:
            rate = self.drift_rate(history)
        except CharacterizationError:
            return UNKNOWN
        return VOLATILE if rate > self.volatile_threshold else STABLE

    def recommended_interval(self, history):
        """How long the zone's current profile can be trusted."""
        return REFRESH_INTERVAL_S[self.classify(history)]


class ZoneStabilityTracker(object):
    """Keeps per-zone characterization histories and classifications."""

    def __init__(self, classifier=None, history_limit=30):
        self.classifier = classifier or StabilityClassifier()
        self.history_limit = int(history_limit)
        self._history = {}

    def observe(self, characterization):
        history = self._history.setdefault(characterization.zone_id, [])
        history.append(characterization)
        del history[:-self.history_limit]
        return self.classify(characterization.zone_id)

    def history(self, zone_id):
        return list(self._history.get(zone_id, []))

    def classify(self, zone_id):
        return self.classifier.classify(self._history.get(zone_id, []))

    def next_refresh_due(self, zone_id):
        """Simulated timestamp when the zone's profile goes stale."""
        history = self._history.get(zone_id, [])
        if not history:
            return 0.0
        interval = self.classifier.recommended_interval(history)
        return history[-1].created_at + interval

    def needs_refresh(self, zone_id, now):
        return now >= self.next_refresh_due(zone_id)

    def zones(self):
        return sorted(self._history)
