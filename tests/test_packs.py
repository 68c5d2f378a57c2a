"""Scenario packs: named provider profiles usable everywhere a provider
name is accepted.

Covers lazy registration through :func:`provider_by_name`, per-pack
seeded determinism, vectorized-vs-looped equality on pack zones, the
adapter behaviour each built pack zone carries, and the CaaS
container-reuse floor that keeps repeat traffic warm across arbitrarily
long idle gaps.
"""

import pytest

from repro.cloudsim import Cloud
from repro.cloudsim.catalog import (
    PACK_REGION_SPECS,
    catalog_region_names,
    install_catalog,
    provider_name_of_zone,
)
from repro.cloudsim.handlers import ModeledWorkloadHandler
from repro.cloudsim.packs import PACK_PROVIDERS
from repro.cloudsim.provider import PROVIDERS, provider_by_name
from repro.engine.spec import CloudSpec
from tests.helpers import PACK_ZONES


def _handler():
    return ModeledWorkloadHandler("wl", 0.3, {}, noise_sigma=0.05,
                                  default_factor=1.0)


def _poll_pack(pack, seed, vectorize=True, polls=(300, 300),
               advance_s=30.0):
    """Aggregate keys from a fresh pack zone polled ``polls`` times."""
    zone_id = PACK_ZONES[pack]
    cloud = CloudSpec.for_zones([zone_id], seed=seed).build()
    account = cloud.create_account("acct", pack)
    deployment = cloud.deploy(account, zone_id, "fn", 1024,
                              handler=_handler())
    keys = []
    for n_requests in polls:
        result = cloud.poll_batch(deployment, n_requests,
                                  vectorize=vectorize)
        keys.append(result.aggregate_key())
        cloud.clock.advance(advance_s)
    return keys


class TestRegistration(object):
    def test_every_pack_resolves_by_name(self):
        for name in PACK_PROVIDERS:
            config = provider_by_name(name)
            assert config.name == name
            assert config is PROVIDERS[name]

    def test_pack_names(self):
        assert set(PACK_PROVIDERS) == {"gcp", "azure", "openwhisk",
                                       "ce-caas", "spot"}

    def test_pack_regions_listed_per_provider(self):
        for pack in PACK_ZONES:
            regions = catalog_region_names(provider=pack)
            assert regions  # each pack ships at least one region
            for region in regions:
                assert region in PACK_REGION_SPECS[pack]

    def test_zone_provider_resolution(self):
        for pack, zone_id in PACK_ZONES.items():
            assert provider_name_of_zone(zone_id) == pack


class TestSeededDeterminism(object):
    @pytest.mark.parametrize("pack", sorted(PACK_ZONES))
    def test_same_seed_same_transcript(self, pack):
        assert _poll_pack(pack, 7) == _poll_pack(pack, 7)

    @pytest.mark.parametrize("pack", sorted(PACK_ZONES))
    def test_vectorized_matches_looped(self, pack):
        vec = _poll_pack(pack, 11, vectorize=True)
        loop = _poll_pack(pack, 11, vectorize=False)
        assert vec == loop


class TestBuiltPackZones(object):
    def test_caas_zone_identical_through_spec_and_install(self):
        zone_id = PACK_ZONES["ce-caas"]
        spec = CloudSpec.for_zones([zone_id], seed=3)
        reference = spec.build()
        installed = install_catalog(Cloud(seed=3), regions=spec.regions)
        keys = []
        for cloud in (reference, installed):
            zone = cloud.zone(zone_id)
            assert zone.keepalive_policy is \
                provider_by_name("ce-caas").adapter.keepalive
            assert zone.keepalive == zone.keepalive_policy.idle_ttl
            account = cloud.create_account("acct", "ce-caas")
            deployment = cloud.deploy(account, zone_id, "fn", 1024,
                                      handler=_handler())
            keys.append(cloud.poll_batch(deployment, 200).aggregate_key())
        assert keys[0] == keys[1]

    def test_only_spot_zones_preempt(self):
        regions = tuple(catalog_region_names()) + tuple(sorted(
            name for specs in PACK_REGION_SPECS.values() for name in specs))
        cloud = install_catalog(Cloud(seed=4), regions=regions)
        spot = set()
        for zone_id in cloud.zone_ids():
            process = cloud.zone(zone_id)._preempt
            if provider_name_of_zone(zone_id) == "spot":
                spot.add(zone_id)
                assert (process.interval_s, process.fraction) == \
                    (300.0, 0.25)
            else:
                assert process is None
        assert spot == {name + suffix
                        for name, (_, _, zones)
                        in PACK_REGION_SPECS["spot"].items()
                        for suffix in zones}


class TestContainerReuseFloor(object):
    def _cold_after_gap(self, provider, zone_id, gap_s=1200.0):
        cloud = CloudSpec.for_zones([zone_id], seed=5).build()
        account = cloud.create_account("acct", provider)
        deployment = cloud.deploy(account, zone_id, "fn", 1024,
                                  handler=_handler())
        # 80 concurrent requests spawn at most 80 FIs — all inside the
        # ce-caas pinned floor of 96 min-instances.
        cloud.poll_batch(deployment, 80)
        cloud.clock.advance(gap_s)
        return cloud.poll_batch(deployment, 80).cold_starts

    def test_caas_floor_survives_idle_gap(self):
        # 1,200 s idle is double the ce-caas idle TTL; the pinned
        # min-instance floor must still serve the repeat burst mostly
        # warm (a few requests stray onto a CPU group with fewer pinned
        # FIs than the second multinomial split asks for), while an aws
        # zone (300 s sliding window) has gone completely cold.
        caas_cold = self._cold_after_gap("ce-caas", PACK_ZONES["ce-caas"])
        aws_cold = self._cold_after_gap("aws", "us-west-1a")
        assert aws_cold == 80
        assert caas_cold <= 10


class TestSpotPreemption(object):
    def test_preemption_fires_and_is_deterministic(self):
        served = []
        for _ in range(2):
            zone_id = PACK_ZONES["spot"]
            cloud = CloudSpec.for_zones([zone_id], seed=9).build()
            account = cloud.create_account("acct", "spot")
            deployment = cloud.deploy(account, zone_id, "fn", 1024,
                                      handler=_handler())
            cloud.poll_batch(deployment, 400)
            cloud.clock.advance(600.0)  # crosses two 300 s strike windows
            result = cloud.poll_batch(deployment, 400)
            zone = cloud.zone(zone_id)
            served.append((result.aggregate_key(),
                           zone._preempt.preempted))
        assert served[0] == served[1]
        assert served[0][1] > 0
