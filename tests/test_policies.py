"""Routing policies."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.common.units import Money
from repro.core import (
    BaselinePolicy,
    CharacterizationStore,
    HybridPolicy,
    RegionalPolicy,
    RetryRoutingPolicy,
    ZoneRanker,
)
from repro.core.policies import RoutingDecision, RoutingView
from repro.sampling import CharacterizationBuilder

FACTORS = {"xeon-2.5": 1.0, "xeon-2.9": 1.25, "xeon-3.0": 0.9,
           "amd-epyc": 1.5}


def make_view(profiles):
    store = CharacterizationStore()
    for zone, counts in profiles.items():
        builder = CharacterizationBuilder(zone)
        builder.add_poll(counts, cost=Money(0), timestamp=0.0)
        store.put(builder.snapshot())
    ranker = ZoneRanker(store)
    return RoutingView(
        characterizations=store.view(sorted(profiles)),
        factors=FACTORS,
        base_seconds=8.0,
        ranker=ranker,
        candidate_zones=sorted(profiles),
    )


@pytest.fixture
def view():
    return make_view({
        "slow-zone": {"xeon-2.5": 30, "xeon-2.9": 50, "amd-epyc": 20},
        "fast-zone": {"xeon-2.5": 40, "xeon-3.0": 60},
    })


class TestBaseline(object):
    def test_fixed_zone_no_retry(self, view):
        decision = BaselinePolicy("slow-zone").decide(view)
        assert decision.zone_id == "slow-zone"
        assert decision.retry_policy is None

    def test_name(self):
        assert BaselinePolicy("z").name == "baseline"


class TestRegional(object):
    def test_routes_to_best_mix(self, view):
        decision = RegionalPolicy().decide(view)
        assert decision.zone_id == "fast-zone"
        assert decision.retry_policy is None


class TestRetryRouting(object):
    def test_retry_slow_bans_two_slowest_observed(self, view):
        policy = RetryRoutingPolicy("slow-zone", "retry_slow")
        decision = policy.decide(view)
        assert decision.zone_id == "slow-zone"
        assert decision.retry_policy.banned_cpus == {"amd-epyc",
                                                     "xeon-2.9"}

    def test_focus_fastest_keeps_best_observed(self, view):
        policy = RetryRoutingPolicy("slow-zone", "focus_fastest")
        decision = policy.decide(view)
        # slow-zone's fastest observed CPU is the 2.5 GHz baseline.
        assert decision.retry_policy.banned_cpus == {"amd-epyc",
                                                     "xeon-2.9"}
        assert not decision.retry_policy.is_banned("xeon-2.5")

    def test_homogeneous_zone_gets_no_retry(self):
        view = make_view({"solo": {"xeon-2.5": 10}})
        decision = RetryRoutingPolicy("solo", "focus_fastest").decide(view)
        assert decision.retry_policy is None

    def test_n_slowest_capped_below_cpu_count(self):
        view = make_view({"duo": {"xeon-2.5": 5, "xeon-2.9": 5}})
        decision = RetryRoutingPolicy("duo", "retry_slow",
                                      n_slowest=3).decide(view)
        assert decision.retry_policy.banned_cpus == {"xeon-2.9"}

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigurationError):
            RetryRoutingPolicy("z", "retry_everything")

    def test_retry_knobs_forwarded(self, view):
        policy = RetryRoutingPolicy("slow-zone", "retry_slow",
                                    max_retries=3, hold_seconds=0.2)
        decision = policy.decide(view)
        assert decision.retry_policy.max_retries == 3
        assert decision.retry_policy.hold_seconds == 0.2

    def test_names(self):
        assert RetryRoutingPolicy("z", "retry_slow").name == "retry_slow"
        assert (RetryRoutingPolicy("z", "focus_fastest").name
                == "focus_fastest")


class TestHybrid(object):
    def test_hops_to_best_zone_with_retry(self, view):
        decision = HybridPolicy("focus_fastest").decide(view)
        assert decision.zone_id == "fast-zone"
        assert decision.retry_policy is not None
        assert not decision.retry_policy.is_banned("xeon-3.0")

    def test_accounts_for_retry_overhead(self):
        # fast-but-rare: the fastest CPU is only 5% of the zone, so
        # focusing it costs many retries; the hybrid should prefer the
        # zone where the fast CPU is plentiful.
        view = make_view({
            "fast-but-rare": {"xeon-3.0": 5, "xeon-2.5": 95},
            "fast-and-common": {"xeon-3.0": 60, "xeon-2.5": 40},
        })
        view.base_seconds = 0.5  # short workload: overhead matters
        decision = HybridPolicy("focus_fastest").decide(view)
        assert decision.zone_id == "fast-and-common"

    def test_no_candidates_raises(self, view):
        view.characterizations = {}
        with pytest.raises(ConfigurationError):
            HybridPolicy().decide(view)

    def test_name_includes_variant(self):
        assert HybridPolicy("retry_slow").name == "hybrid_retry_slow"


class StoreScoredHybrid(HybridPolicy):
    """The hybrid policy as it scored before reading the view: two store
    lookups per zone through the ranker."""

    def decide(self, view):
        best_zone, best_score, best_retry = None, None, None
        for zone_id in view.candidate_zones:
            if zone_id not in view.characterizations:
                continue
            options = [(view.ranker.expected_factor(
                zone_id, view.factors, now=view.now), None)]
            retry = self._build_retry(view, zone_id)
            if retry is not None:
                options.append((view.ranker.expected_factor_with_retry(
                    zone_id, view.factors, retry,
                    base_seconds=view.base_seconds, now=view.now), retry))
            for score, option_retry in options:
                if best_score is None or score < best_score:
                    best_zone, best_score = zone_id, score
                    best_retry = option_retry
        if best_zone is None:
            raise ConfigurationError("hybrid policy found no routable zone")
        return RoutingDecision(best_zone, best_retry)


_COUNTS = st.dictionaries(st.sampled_from(sorted(FACTORS)),
                          st.integers(min_value=1, max_value=200),
                          min_size=1, max_size=4)


class TestViewScoringMatchesStoreScoring(object):
    @settings(max_examples=80, deadline=None)
    @given(active=st.lists(_COUNTS, min_size=1, max_size=4),
           passive=st.lists(st.lists(st.sampled_from(sorted(FACTORS)),
                                     max_size=12), min_size=4, max_size=4),
           variant=st.sampled_from(["retry_slow", "focus_fastest"]),
           base_seconds=st.sampled_from([0.5, 8.0]))
    def test_same_decision_and_scores(self, active, passive, variant,
                                      base_seconds):
        store = CharacterizationStore()
        zones = ["zone-{}".format(i) for i in range(len(active))]
        for zone, counts in zip(zones, active):
            builder = CharacterizationBuilder(zone)
            builder.add_poll(counts, cost=Money(0), timestamp=0.0)
            store.put(builder.snapshot())
        for zone, observations in zip(zones, passive):
            for cpu in observations:
                store.record_observation(zone, cpu, timestamp=1.0)
        ranker = ZoneRanker(store)
        view = RoutingView(characterizations=store.view(zones, now=5.0),
                           factors=FACTORS, base_seconds=base_seconds,
                           ranker=ranker, candidate_zones=zones, now=5.0)
        policy = HybridPolicy(variant)
        for zone in zones:
            profile = view.characterizations[zone]
            assert ZoneRanker.profile_factor(profile, FACTORS) == \
                ranker.expected_factor(zone, FACTORS, now=5.0)
            retry = policy._build_retry(view, zone)
            if retry is not None:
                assert ZoneRanker.profile_factor_with_retry(
                    profile, FACTORS, retry, base_seconds=base_seconds) == \
                    ranker.expected_factor_with_retry(
                        zone, FACTORS, retry, base_seconds=base_seconds,
                        now=5.0)
        fast = policy.decide(view)
        spec = StoreScoredHybrid(variant).decide(view)
        assert fast.zone_id == spec.zone_id
        assert (fast.retry_policy is None) == (spec.retry_policy is None)
        if fast.retry_policy is not None:
            assert fast.retry_policy.banned_cpus == \
                spec.retry_policy.banned_cpus
