"""Routing policies: Baseline, Regional, Retry, and Hybrid (paper §3.5).

A policy turns the router's current *view* (fresh characterizations, the
workload's runtime factors, candidate zones) into a
:class:`RoutingDecision`: which zone to hit, and optionally a
:class:`~repro.core.retry.RetryPolicy` to apply inside it.

* **Baseline** — a fixed zone, no retries (what a normal user does).
* **Regional** — route to the zone whose CPU mix minimizes expected
  runtime.  No retries; trades network latency (unbilled) for faster CPUs.
* **Retry** — stay in a fixed zone but refuse slow CPUs (*retry slow* bans
  the two slowest; *focus fastest* bans all but the best).
* **Hybrid** — region hopping: re-pick the best zone whenever
  characterizations refresh, then fine-tune with retries inside it.
"""

from repro.common.errors import ConfigurationError
from repro.core.optimizer import ZoneRanker
from repro.core.retry import RetryPolicy


class RoutingDecision(object):
    """Where to send a request, and with what retry behaviour."""

    __slots__ = ("zone_id", "retry_policy")

    def __init__(self, zone_id, retry_policy=None):
        self.zone_id = zone_id
        self.retry_policy = retry_policy

    def __repr__(self):
        return "RoutingDecision({!r}, retry={})".format(
            self.zone_id, self.retry_policy)


class RoutingPolicy(object):
    """Base class: subclasses implement :meth:`decide`."""

    name = "abstract"

    def decide(self, view):
        """``view`` is a :class:`RoutingView`; returns a RoutingDecision."""
        raise NotImplementedError

    def __repr__(self):
        return "{}()".format(type(self).__name__)


class RoutingView(object):
    """Everything a policy may consult when deciding.

    ``health`` (a :class:`~repro.core.health.ZoneHealthTracker`, or None)
    lets policies weigh recent zone behaviour: the router already filters
    ``candidate_zones`` through breaker state, and policies can further
    consult :meth:`zone_error_rate` to prefer a stale characterization of
    a healthy zone over fresh data from a browning-out one.
    """

    __slots__ = ("characterizations", "factors", "base_seconds", "ranker",
                 "candidate_zones", "client", "now", "health")

    def __init__(self, characterizations, factors, base_seconds, ranker,
                 candidate_zones, client=None, now=0.0, health=None):
        self.characterizations = characterizations
        self.factors = factors
        self.base_seconds = base_seconds
        self.ranker = ranker
        self.candidate_zones = list(candidate_zones)
        self.client = client
        self.now = now
        self.health = health

    def observed_cpus(self, zone_id):
        return self.characterizations[zone_id].cpu_keys()

    def zone_error_rate(self, zone_id):
        """Recent failure fraction for ``zone_id`` (0.0 without health)."""
        if self.health is None:
            return 0.0
        return self.health.error_rate(zone_id, self.now)


class BaselinePolicy(RoutingPolicy):
    """All requests to one fixed zone, run on whatever CPU shows up."""

    name = "baseline"

    def __init__(self, zone_id):
        self.zone_id = zone_id

    def decide(self, view):
        return RoutingDecision(self.zone_id)


class RegionalPolicy(RoutingPolicy):
    """Route to the zone with the best expected CPU mix (no retries)."""

    name = "regional"

    def decide(self, view):
        zone_id = view.ranker.best_zone(view.candidate_zones, view.factors,
                                        now=view.now)
        return RoutingDecision(zone_id)


class CheapestCostPolicy(RoutingPolicy):
    """Route to the zone with the lowest expected *dollars* per request.

    The sky-computing generalization of :class:`RegionalPolicy`: when the
    candidate set spans providers (AWS vs. IBM vs. DO), expected runtime
    alone is not enough — billing rates differ, so the router must compare
    ``rate × expected runtime`` instead.
    """

    name = "cheapest_cost"

    def __init__(self, memory_mb=2048):
        self.memory_mb = memory_mb

    def decide(self, view):
        ranked = view.ranker.rank_by_cost(
            view.candidate_zones, view.factors, view.base_seconds,
            self.memory_mb, now=view.now)
        if not ranked:
            raise ConfigurationError(
                "no routable zone for the cheapest-cost policy")
        return RoutingDecision(ranked[0])


class RetryRoutingPolicy(RoutingPolicy):
    """Fixed zone plus a banned-CPU retry strategy."""

    VARIANTS = ("retry_slow", "focus_fastest")

    def __init__(self, zone_id, variant="retry_slow", n_slowest=2,
                 max_retries=None, hold_seconds=None):
        if variant not in self.VARIANTS:
            raise ConfigurationError(
                "unknown retry variant {!r}; pick one of {}".format(
                    variant, self.VARIANTS))
        self.zone_id = zone_id
        self.variant = variant
        self.n_slowest = n_slowest
        self._retry_kwargs = {}
        if max_retries is not None:
            self._retry_kwargs["max_retries"] = max_retries
        if hold_seconds is not None:
            self._retry_kwargs["hold_seconds"] = hold_seconds

    @property
    def name(self):
        return self.variant

    def _build_retry(self, view, zone_id):
        cpus = view.observed_cpus(zone_id)
        if len(cpus) < 2:
            return None  # homogeneous zone: nothing to refuse
        if self.variant == "focus_fastest":
            return RetryPolicy.focus_fastest(cpus, view.factors,
                                             **self._retry_kwargs)
        n_slowest = min(self.n_slowest, len(cpus) - 1)
        return RetryPolicy.retry_slow(cpus, view.factors,
                                      n_slowest=n_slowest,
                                      **self._retry_kwargs)

    def decide(self, view):
        return RoutingDecision(self.zone_id,
                               self._build_retry(view, self.zone_id))


class HybridPolicy(RetryRoutingPolicy):
    """Region hopping + in-zone retries (the paper's best strategy).

    Picks the zone whose mix minimizes expected runtime **including** the
    retry overhead the zone would incur, then applies the retry variant
    inside it.
    """

    def __init__(self, variant="retry_slow"):
        super(HybridPolicy, self).__init__(zone_id=None, variant=variant)

    @property
    def name(self):
        return "hybrid_" + self.variant

    def decide(self, view):
        best_zone, best_score, best_retry = None, None, None
        for zone_id in view.candidate_zones:
            if zone_id not in view.characterizations:
                continue
            # Retries are only worth their holds where the zone's mix
            # rewards filtering — evaluate each zone both with and without
            # the retry strategy and keep whichever is cheaper.  The
            # view's profile is the one the store would return at
            # ``view.now``, so it is scored directly.
            profile = view.characterizations[zone_id]
            options = [(ZoneRanker.profile_factor(profile, view.factors),
                        None)]
            retry = self._build_retry(view, zone_id)
            if retry is not None:
                options.append((ZoneRanker.profile_factor_with_retry(
                    profile, view.factors, retry,
                    base_seconds=view.base_seconds), retry))
            for score, option_retry in options:
                if best_score is None or score < best_score:
                    best_zone, best_score = zone_id, score
                    best_retry = option_retry
        if best_zone is None:
            raise ConfigurationError(
                "hybrid policy found no routable zone")
        return RoutingDecision(best_zone, best_retry)
