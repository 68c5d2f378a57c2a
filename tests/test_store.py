"""The characterization store: staleness and passive refinement."""

import pytest

from repro.common.errors import CharacterizationError
from repro.common.units import Money
from repro.core import CharacterizationStore
from repro.sampling import CharacterizationBuilder


def profile(zone="z-1", counts=None, timestamp=0.0):
    builder = CharacterizationBuilder(zone)
    builder.add_poll(counts or {"a": 50, "b": 50}, cost=Money(0.01),
                     timestamp=timestamp)
    return builder.snapshot()


class TestActiveProfiles(object):
    def test_put_get(self):
        store = CharacterizationStore()
        store.put(profile())
        assert store.get("z-1").share("a") == 0.5

    def test_missing_zone_raises(self):
        with pytest.raises(CharacterizationError):
            CharacterizationStore().get("nowhere")

    def test_try_get_returns_none(self):
        assert CharacterizationStore().try_get("nowhere") is None

    def test_put_overwrites(self):
        store = CharacterizationStore()
        store.put(profile(counts={"a": 10}))
        store.put(profile(counts={"b": 10}))
        assert store.get("z-1").cpu_keys() == ["b"]

    def test_zones_listing(self):
        store = CharacterizationStore()
        store.put(profile("z-1"))
        store.put(profile("z-2"))
        assert store.zones() == ["z-1", "z-2"]

    def test_view(self):
        store = CharacterizationStore()
        store.put(profile("z-1"))
        view = store.view(["z-1", "z-2"])
        assert set(view) == {"z-1"}


class TestStaleness(object):
    def test_fresh_within_limit(self):
        store = CharacterizationStore(staleness_limit=3600.0)
        store.put(profile(timestamp=0.0))
        assert store.get("z-1", now=1800.0) is not None

    def test_stale_after_limit(self):
        store = CharacterizationStore(staleness_limit=3600.0)
        store.put(profile(timestamp=0.0))
        with pytest.raises(CharacterizationError):
            store.get("z-1", now=7200.0)

    def test_is_stale(self):
        store = CharacterizationStore(staleness_limit=100.0)
        store.put(profile(timestamp=0.0))
        assert not store.is_stale("z-1", now=50.0)
        assert store.is_stale("z-1", now=150.0)
        assert store.is_stale("unknown", now=0.0)

    def test_no_limit_never_stale(self):
        store = CharacterizationStore()
        store.put(profile(timestamp=0.0))
        assert not store.is_stale("z-1", now=1e9)

    def test_view_drops_stale_zones(self):
        store = CharacterizationStore(staleness_limit=10.0)
        store.put(profile("z-1", timestamp=0.0))
        assert store.view(["z-1"], now=100.0) == {}


class TestPassive(object):
    def test_passive_only_zone(self):
        store = CharacterizationStore()
        for _ in range(4):
            store.record_observation("z-9", "a")
        assert store.get("z-9").share("a") == 1.0

    def test_passive_merges_with_active(self):
        store = CharacterizationStore()
        store.put(profile(counts={"a": 100}))
        for _ in range(100):
            store.record_observation("z-1", "b")
        merged = store.get("z-1")
        assert merged.share("a") == pytest.approx(0.5)
        assert merged.samples == 200

    def test_passive_sample_count(self):
        store = CharacterizationStore()
        store.record_observation("z-1", "a")
        store.record_observation("z-1", "a")
        assert store.passive_samples("z-1") == 2
        assert store.passive_samples("other") == 0

    def test_clear_passive(self):
        store = CharacterizationStore()
        store.record_observation("z-1", "a")
        store.clear_passive("z-1")
        assert store.passive_samples("z-1") == 0

    def test_clear_all_passive(self):
        store = CharacterizationStore()
        store.record_observation("z-1", "a")
        store.record_observation("z-2", "a")
        store.clear_passive()
        assert store.zones() == []


def _merge_reference(store, zone_id):
    """The merged profile built from scratch, as every ``get`` once did."""
    active = store._active[zone_id]
    passive = store._passive[zone_id]
    return (active.distribution.merge(passive.snapshot().distribution),
            active.samples + passive.samples)


class TestMergedProfileMemo(object):
    """``get`` reuses the merged active+passive profile while the active
    profile, the passive builder and its sample count are unchanged."""

    @staticmethod
    def _store(limit=None):
        store = CharacterizationStore(staleness_limit=limit)
        store.put(profile(counts={"a": 60, "b": 40}, timestamp=0.0))
        store.record_observation("z-1", "c", timestamp=1.0)
        return store

    @staticmethod
    def _assert_fresh(store, merged):
        distribution, samples = _merge_reference(store, "z-1")
        assert merged.distribution.counts() == distribution.counts()
        assert merged.samples == samples

    def test_unchanged_store_reuses_the_profile(self):
        store = self._store()
        first = store.get("z-1")
        assert store.get("z-1") is first
        assert store.view(["z-1"])["z-1"] is first
        self._assert_fresh(store, first)

    def test_record_observation_invalidates(self):
        store = self._store()
        first = store.get("z-1")
        store.record_observation("z-1", "a", timestamp=2.0)
        second = store.get("z-1")
        assert second is not first
        assert second.distribution.count("a") == \
            first.distribution.count("a") + 1
        self._assert_fresh(store, second)

    def test_put_invalidates(self):
        store = self._store()
        first = store.get("z-1")
        store.put(profile(counts={"b": 10}, timestamp=3.0))
        second = store.get("z-1")
        assert second is not first
        assert second.created_at == 3.0
        self._assert_fresh(store, second)

    def test_clear_passive_invalidates(self):
        store = self._store()
        merged = store.get("z-1")
        store.clear_passive("z-1")
        assert store.get("z-1") is store._active["z-1"]
        # A new builder with the same sample count is a different state.
        store.record_observation("z-1", "b", timestamp=4.0)
        again = store.get("z-1")
        assert again is not merged
        assert again.distribution.count("b") == \
            merged.distribution.count("b") + 1
        assert again.distribution.count("c") == 0
        self._assert_fresh(store, again)

    def test_clear_all_passive_invalidates(self):
        store = self._store()
        store.get("z-1")
        store.clear_passive()
        assert store.get("z-1") is store._active["z-1"]

    def test_stale_profile_raises_even_when_cached(self):
        store = self._store(limit=100.0)
        cached = store.get("z-1", now=50.0)
        assert store.get("z-1", now=99.0) is cached
        with pytest.raises(CharacterizationError):
            store.get("z-1", now=101.0)
        assert store.try_get("z-1", now=101.0) is None
        assert store.view(["z-1"], now=101.0) == {}
