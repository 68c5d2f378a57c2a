"""Carbon- and latency-aware routing policies (§3.4's heritage).

The paper extends a carbon-aware router into a performance-aware one.
This module keeps the original objectives available and adds a
multi-objective policy that trades off:

* **cost** — the expected workload runtime factor (the paper's metric);
* **carbon** — normalized grid intensity of the zone's region;
* **latency** — client round-trip time.

Scores are weighted sums over normalized terms; a weight of zero removes
an objective.  ``CarbonAwarePolicy`` is the prior-work special case
(carbon only, bounded latency).
"""

from repro.common.errors import CharacterizationError, ConfigurationError
from repro.core.policies import RoutingDecision, RoutingPolicy

#: The round-trip time that normalizes the latency term to ~1, on the
#: scale of the other two terms.
REFERENCE_RTT_S = 0.15


class MultiObjectivePolicy(RoutingPolicy):
    """Route to the zone minimizing a weighted cost/carbon/latency score."""

    name = "multi_objective"

    def __init__(self, cloud, carbon_model, cost_weight=1.0,
                 carbon_weight=0.0, latency_weight=0.0, max_rtt=None):
        if min(cost_weight, carbon_weight, latency_weight) < 0:
            raise ConfigurationError("weights must be non-negative")
        if cost_weight + carbon_weight + latency_weight == 0:
            raise ConfigurationError("at least one weight must be positive")
        self.cloud = cloud
        self.carbon_model = carbon_model
        self.cost_weight = float(cost_weight)
        self.carbon_weight = float(carbon_weight)
        self.latency_weight = float(latency_weight)
        self.max_rtt = max_rtt

    def _score(self, view, zone_id):
        region = self.cloud.region_of_zone(zone_id)
        score = 0.0
        if self.cost_weight:
            score += self.cost_weight * view.ranker.expected_factor(
                zone_id, view.factors, now=view.now)
        if self.carbon_weight:
            score += (self.carbon_weight
                      * self.carbon_model.normalized_intensity(
                          region.name, view.now, lon=region.geo.lon))
        if self.latency_weight:
            if view.client is None:
                raise ConfigurationError(
                    "latency weighting needs a client location")
            rtt = self.cloud.network.round_trip(view.client, region.geo)
            score += self.latency_weight * rtt / REFERENCE_RTT_S
        return score

    def _admissible(self, view, zone_id):
        if zone_id not in view.characterizations:
            return self.cost_weight == 0
        return True

    def decide(self, view):
        best_zone, best_score = None, None
        for zone_id in view.candidate_zones:
            if not self._admissible(view, zone_id):
                continue
            if self.max_rtt is not None and view.client is not None:
                region = self.cloud.region_of_zone(zone_id)
                rtt = self.cloud.network.round_trip(view.client,
                                                    region.geo)
                if rtt > self.max_rtt:
                    continue
            try:
                score = self._score(view, zone_id)
            except CharacterizationError:
                continue
            if best_score is None or score < best_score:
                best_zone, best_score = zone_id, score
        if best_zone is None:
            raise CharacterizationError(
                "no zone satisfies the routing constraints")
        return RoutingDecision(best_zone)


class CarbonAwarePolicy(MultiObjectivePolicy):
    """The prior-work router: lowest carbon intensity within a latency
    bound, ignoring hardware performance."""

    name = "carbon_aware"

    def __init__(self, cloud, carbon_model, max_rtt=0.2):
        super(CarbonAwarePolicy, self).__init__(
            cloud, carbon_model, cost_weight=0.0, carbon_weight=1.0,
            latency_weight=0.0, max_rtt=max_rtt)
