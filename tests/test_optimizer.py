"""Zone ranking by expected workload runtime."""

import pytest

from repro.common.errors import CharacterizationError
from repro.common.units import Money
from repro.core import CharacterizationStore, RetryPolicy, ZoneRanker
from repro.sampling import CharacterizationBuilder

FACTORS = {"xeon-2.5": 1.0, "xeon-2.9": 1.25, "xeon-3.0": 0.9}


def put_profile(store, zone, counts):
    builder = CharacterizationBuilder(zone)
    builder.add_poll(counts, cost=Money(0), timestamp=0.0)
    store.put(builder.snapshot())


@pytest.fixture
def store():
    store = CharacterizationStore()
    put_profile(store, "slow-zone", {"xeon-2.5": 40, "xeon-2.9": 60})
    put_profile(store, "fast-zone", {"xeon-2.5": 40, "xeon-3.0": 60})
    return store


class TestExpectedFactor(object):
    def test_weighted_mean(self, store):
        ranker = ZoneRanker(store)
        assert ranker.expected_factor("slow-zone", FACTORS) == pytest.approx(
            0.4 * 1.0 + 0.6 * 1.25)
        assert ranker.expected_factor("fast-zone", FACTORS) == pytest.approx(
            0.4 * 1.0 + 0.6 * 0.9)

    def test_unknown_zone_raises(self, store):
        with pytest.raises(CharacterizationError):
            ZoneRanker(store).expected_factor("nowhere", FACTORS)


class TestExpectedFactorWithRetry(object):
    def test_filtering_improves_factor(self, store):
        ranker = ZoneRanker(store)
        retry = RetryPolicy(["xeon-2.9"], hold_seconds=0.15)
        plain = ranker.expected_factor("slow-zone", FACTORS)
        with_retry = ranker.expected_factor_with_retry(
            "slow-zone", FACTORS, retry, base_seconds=100.0)
        assert with_retry < plain

    def test_overhead_matters_for_short_workloads(self, store):
        ranker = ZoneRanker(store)
        retry = RetryPolicy(["xeon-2.9"], hold_seconds=0.15)
        long_workload = ranker.expected_factor_with_retry(
            "slow-zone", FACTORS, retry, base_seconds=100.0)
        short_workload = ranker.expected_factor_with_retry(
            "slow-zone", FACTORS, retry, base_seconds=0.5)
        assert short_workload > long_workload

    def test_banning_everything_raises(self, store):
        ranker = ZoneRanker(store)
        retry = RetryPolicy(["xeon-2.5", "xeon-2.9"])
        with pytest.raises(CharacterizationError):
            ranker.expected_factor_with_retry("slow-zone", FACTORS, retry,
                                              base_seconds=10.0)


class TestRanking(object):
    def test_rank_prefers_fast_zone(self, store):
        ranker = ZoneRanker(store)
        ranked = ranker.rank(["slow-zone", "fast-zone"], FACTORS)
        assert ranked == ["fast-zone", "slow-zone"]

    def test_best_zone(self, store):
        ranker = ZoneRanker(store)
        assert ranker.best_zone(["slow-zone", "fast-zone"],
                                FACTORS) == "fast-zone"

    def test_zones_without_profiles_skipped(self, store):
        ranker = ZoneRanker(store)
        ranked = ranker.rank(["slow-zone", "ghost-zone"], FACTORS)
        assert ranked == ["slow-zone"]

    def test_no_routable_zone_raises(self, store):
        ranker = ZoneRanker(store)
        with pytest.raises(CharacterizationError):
            ranker.best_zone(["ghost-zone"], FACTORS)
