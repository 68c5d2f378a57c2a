"""The one catalog install path (``install_catalog``).

``install_catalog`` walks one memoized, ordered catalog table and builds
each zone from its spec and its provider's adapter on first use.  These
tests pin that table to the spec tables (same regions, providers,
coordinates and zone specs, in install order) and the install to the
table's order and filters.
"""

import pytest

from repro.cloudsim import Cloud
from repro.common.errors import ConfigurationError
from repro.cloudsim import catalog
from repro.cloudsim.catalog import (
    AWS_REGION_SPECS,
    DO_REGION_SPECS,
    IBM_REGION_SPECS,
    PACK_REGION_SPECS,
    install_catalog,
)
from repro.engine import CampaignTask, CloudSpec, SweepEngine


def _cloud_signature(cloud):
    """Everything the build decides: regions, zones, pools, policies."""
    signature = {}
    for region_name, region in sorted(cloud.regions.items()):
        zones = {}
        for zone_id, zone in sorted(region.zones.items()):
            pools = tuple(
                (pool.cpu_key, pool.hosts, pool.slots_per_host,
                 pool.affinity)
                for pool in sorted(zone.pools.values(),
                                   key=lambda p: p.cpu_key))
            zones[zone_id] = (pools, zone.keepalive,
                              zone.scaling.pressure_threshold,
                              zone.scaling.slots_per_minute,
                              zone.scaling.max_surge_slots)
        signature[region_name] = (region.provider.name,
                                  (region.geo.lat, region.geo.lon), zones)
    return signature


def _spec_table_walk():
    """``(region, provider, lat, lon, [(zone_id, ZoneSpec)])`` straight
    from the spec tables, in install order: AWS by name, IBM, Digital
    Ocean, then each pack provider's regions."""
    walk = []
    for name in sorted(AWS_REGION_SPECS):
        lat, lon, zones = AWS_REGION_SPECS[name]
        walk.append((name, "aws", lat, lon,
                     [(name + s, zones[s]) for s in sorted(zones)]))
    for provider, specs in (("ibm", IBM_REGION_SPECS),
                            ("do", DO_REGION_SPECS)):
        for name in sorted(specs):
            lat, lon, spec = specs[name]
            walk.append((name, provider, lat, lon, [(name, spec)]))
    for provider in sorted(PACK_REGION_SPECS):
        for name in sorted(PACK_REGION_SPECS[provider]):
            lat, lon, zones = PACK_REGION_SPECS[provider][name]
            walk.append((name, provider, lat, lon,
                         [(name + s, zones[s]) for s in sorted(zones)]))
    return walk


def test_plan_recipes_match_fresh_spec_table_recipes():
    # The memoized catalog table is the spec tables, walked in install
    # order: each region's provider, coordinates, pack flag and zone specs.
    rows = catalog._catalog()[0]
    walk = _spec_table_walk()
    assert [row.name for row in rows] == [entry[0] for entry in walk]
    for row, (name, provider, lat, lon, zones) in zip(rows, walk):
        assert (row.provider, row.lat, row.lon) == (provider, lat, lon)
        assert row.pack == (provider in PACK_REGION_SPECS)
        assert list(row.zones) == zones


@pytest.mark.parametrize("filters", [
    {"aws_only": True},
    {"aws_only": False},
    {"aws_only": False, "regions": ("us-west-1", "lon1")},
    {"aws_only": True, "regions": ("us-west-1",)},
    {"aws_only": False, "regions": ("spot-us-1", "eu-de", "us-east-2")},
])
def test_install_follows_plan_order_and_filters(filters):
    cloud = install_catalog(Cloud(seed=7), **filters)
    regions = filters.get("regions")
    expected = [entry for entry in _spec_table_walk()
                if (regions is None and entry[1] not in PACK_REGION_SPECS)
                or (regions is not None and entry[0] in regions)]
    expected = [entry for entry in expected
                if not filters["aws_only"] or entry[1] == "aws"]
    assert list(cloud.regions) == [entry[0] for entry in expected]
    assert cloud.zone_ids() == sorted(
        zone_id for entry in expected for zone_id, _ in entry[4])
    for name, provider, lat, lon, _ in expected:
        region = cloud.regions[name]
        assert region.provider.name == provider
        assert (region.geo.lat, region.geo.lon) == (lat, lon)


def test_plan_is_memoized_and_immutable():
    assert catalog._catalog() is catalog._catalog()
    rows, zones = catalog._catalog()
    assert isinstance(rows, tuple)
    for row in rows:
        assert isinstance(row.zones, tuple)
        for zone_id, spec in row.zones:
            assert zones[zone_id] == (row.name, row.provider, spec)


class TestCloudSpecBuild(object):
    def test_build_uses_active_plan(self):
        # CloudSpec.build installs through install_catalog.
        built = CloudSpec(seed=5, aws_only=True).build()
        reference = install_catalog(Cloud(seed=5), aws_only=True)
        assert _cloud_signature(built) == _cloud_signature(reference)

    def test_for_zones_build_matches_reference(self):
        built = CloudSpec.for_zones(["us-west-1a"], seed=2).build()
        reference = install_catalog(Cloud(seed=2), aws_only=True,
                                    regions=("us-west-1",))
        assert _cloud_signature(built) == _cloud_signature(reference)


class TestEngineIntegration(object):
    def test_pool_run_shares_catalog_and_stays_deterministic(self):
        def tasks():
            return [CampaignTask(CloudSpec.for_zones(["us-west-1a"],
                                                     seed=seed),
                                 "us-west-1a", endpoints=3, n_requests=150,
                                 max_polls=2) for seed in range(3)]

        # Each pool worker memoizes its own catalog table; the cells must
        # not tell it apart from the serial run's.
        serial = SweepEngine(workers=1).run(tasks())
        engine = SweepEngine(workers=2)
        pooled = engine.run(tasks())
        assert engine.last_mode == "pool"
        assert [r.ground_truth().shares() for r in pooled] == \
            [r.ground_truth().shares() for r in serial]


class TestLoudRegionFilters(object):
    """A requested region that would not install raises, naming it."""

    def test_unknown_region_next_to_a_known_one(self):
        spec = CloudSpec(seed=1, regions=("us-west-1", "nope"))
        with pytest.raises(ConfigurationError, match="catalog: nope"):
            spec.build()

    def test_region_filtered_out_by_aws_only(self):
        spec = CloudSpec(seed=1, regions=("eu-de",))
        with pytest.raises(ConfigurationError,
                           match="aws_only=True: eu-de"):
            spec.build()
        assert list(CloudSpec(seed=1, aws_only=False,
                              regions=("eu-de",)).build().regions) == \
            ["eu-de"]

    def test_pack_region_filtered_out_by_aws_only(self):
        with pytest.raises(ConfigurationError,
                           match="aws_only=True: spot-us-1"):
            install_catalog(Cloud(seed=1), aws_only=True,
                            regions=("us-west-1", "spot-us-1"))

    def test_install_catalog_names_every_dropped_region_and_installs_none(
            self):
        cloud = Cloud(seed=1)
        with pytest.raises(ConfigurationError) as raised:
            install_catalog(cloud, aws_only=True,
                            regions=["nope", "us-west-1", "eu-gb", "zz"])
        message = str(raised.value)
        assert "not in the catalog: nope, zz" in message
        assert "aws_only=True: eu-gb" in message
        assert cloud.regions == {}

    def test_install_catalog_with_only_an_unknown_region(self):
        with pytest.raises(ConfigurationError, match="catalog: nope"):
            install_catalog(Cloud(seed=1), regions=["nope"])

    def test_spec_construction_does_not_validate(self):
        # Sweeps build one spec per cell: validation waits for build().
        spec = CloudSpec(seed=1, regions=("nope",))
        assert spec.regions == ("nope",)
