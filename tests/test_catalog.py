"""The 41-region global catalog and its paper-mandated constraints.

``install_catalog`` is the one install path: it walks one memoized,
ordered catalog table and builds each zone from its spec and its
provider's adapter on first use.  The tests after the built-catalog ones
pin that table to the spec tables (same regions, providers, coordinates
and zone specs, in install order) and the install to the table's order
and filters.
"""

import pytest

from repro.cloudsim import Cloud
from repro.cloudsim import catalog
from repro.common.errors import ConfigurationError, UnknownZoneError
from repro.cloudsim.catalog import (
    AWS_REGION_SPECS,
    DO_REGION_SPECS,
    EX3_ZONES,
    EX4_ZONES,
    IBM_REGION_SPECS,
    PACK_REGION_SPECS,
    catalog_region_names,
    install_catalog,
    zone_spec,
)
from repro.engine import CampaignTask, CloudSpec, SweepEngine


class TestCatalogShape(object):
    def test_41_regions_total(self):
        assert len(catalog_region_names()) == 41

    def test_provider_split(self):
        assert len(catalog_region_names("aws")) == 33
        assert len(catalog_region_names("ibm")) == 4
        assert len(catalog_region_names("do")) == 4

    def test_region_names_unique(self):
        names = catalog_region_names()
        assert len(names) == len(set(names))

    def test_ex3_zones_exist(self):
        # The eleven progressive-sampling AZs of EX-3.
        assert len(EX3_ZONES) == 11
        for zone_id in EX3_ZONES:
            assert zone_spec(zone_id) is not None

    def test_ex4_zones_subset_of_ex3(self):
        assert len(EX4_ZONES) == 5
        assert set(EX4_ZONES) <= set(EX3_ZONES)

    def test_unknown_zone_spec(self):
        with pytest.raises(UnknownZoneError):
            zone_spec("mars-central-1a")


class TestPaperConstraints(object):
    def test_every_aws_zone_has_the_25ghz_xeon(self):
        # EX-2 observation (3): every region had the 2.5 GHz processor.
        for name, (_, _, zones) in AWS_REGION_SPECS.items():
            for spec in zones.values():
                assert "xeon-2.5" in spec.mix, name

    def test_only_af_south_lacks_the_30ghz_xeon(self):
        # EX-2 observation (4): all regions but af-south-1 host the 3.0 GHz
        # part (region-level: in at least one of their zones).
        missing = []
        for name, (_, _, zones) in AWS_REGION_SPECS.items():
            if not any("xeon-3.0" in spec.mix for spec in zones.values()):
                missing.append(name)
        assert missing == ["af-south-1"]

    def test_epyc_most_prevalent_in_il_central_1(self):
        # EX-2 observation (2).
        def epyc_share(region_name):
            _, _, zones = AWS_REGION_SPECS[region_name]
            return max(spec.mix.get("amd-epyc", 0.0)
                       for spec in zones.values())

        il_share = epyc_share("il-central-1")
        for name in AWS_REGION_SPECS:
            assert epyc_share(name) <= il_share

    def test_us_west_2_dominated_by_30ghz(self):
        # EX-2: "regions like us-west-2 ... the 3.0 GHz processor was most
        # prevalent."
        spec = zone_spec("us-west-2a")
        assert max(spec.mix, key=spec.mix.get) == "xeon-3.0"

    def test_us_east_2a_single_cpu(self):
        # EX-3: us-east-2a consistently returned 0 % error — all requests
        # on the 2.5 GHz Xeon exclusively.
        assert zone_spec("us-east-2a").mix == {"xeon-2.5": 1.0}

    def test_eu_north_much_smaller_than_eu_central(self):
        # EX-3: eu-north-1a fails after ~5k calls; eu-central-1a sustains
        # ten times that.
        ratio = (zone_spec("eu-central-1a").slots
                 / zone_spec("eu-north-1a").slots)
        assert 8 <= ratio <= 12

    def test_temporal_classes(self):
        # EX-4: stable vs volatile zones.
        for zone_id in ("sa-east-1a", "eu-north-1a"):
            assert zone_spec(zone_id).drift == "stable"
        for zone_id in ("ca-central-1a", "us-west-1a", "us-west-1b"):
            assert zone_spec(zone_id).drift == "volatile"

    def test_mixes_sum_to_one(self):
        for name, (_, _, zones) in AWS_REGION_SPECS.items():
            for suffix, spec in zones.items():
                assert sum(spec.mix.values()) == pytest.approx(1.0), (
                    name + suffix)

    def test_ibm_and_do_near_homogeneous(self):
        # EX-2: no exploitable heterogeneity outside AWS.
        for specs in (IBM_REGION_SPECS, DO_REGION_SPECS):
            for name, (_, _, spec) in specs.items():
                assert max(spec.mix.values()) >= 0.85, name


class TestBuiltCatalog(object):
    def test_full_build(self, catalog_cloud_readonly):
        assert len(catalog_cloud_readonly.regions) == 41

    def test_zone_index_spans_providers(self, catalog_cloud_readonly):
        cloud = catalog_cloud_readonly
        assert cloud.zone("us-east-2a").zone_id == "us-east-2a"
        assert cloud.zone("us-south").zone_id == "us-south"
        assert cloud.zone("nyc1").zone_id == "nyc1"

    def test_aws_only_build(self):
        from repro import build_sky
        cloud = build_sky(seed=0, aws_only=True)
        assert len(cloud.regions) == 33

    def test_zone_capacity_matches_spec_scale(self, catalog_cloud_readonly):
        zone = catalog_cloud_readonly.zone("eu-north-1a")
        spec = zone_spec("eu-north-1a")
        assert abs(zone.capacity - spec.slots) <= spec.slots * 0.3

    def test_subset_install(self):
        cloud = Cloud(seed=0)
        install_catalog(cloud, regions={"us-west-1", "nyc1"})
        assert sorted(cloud.regions) == ["nyc1", "us-west-1"]

    def test_mesh_scale_matches_paper(self, catalog_cloud_readonly):
        # §3.3: the full AWS ladder (9 memory x 2 arch) across every zone
        # plus per-zone sampling sets exceeds 1,600 deployments.  Count the
        # deployable slots rather than deploying (read-only fixture).
        zones = catalog_cloud_readonly.zone_ids(provider="aws")
        ladder_deployments = len(zones) * 9 * 2
        sampling_deployments = 100 * len(EX3_ZONES)
        assert ladder_deployments + sampling_deployments > 1600


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


def test_catalog_table_matches_spec_tables():
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
def test_install_follows_catalog_order_and_filters(filters):
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


def test_catalog_table_is_memoized_and_immutable():
    assert catalog._catalog() is catalog._catalog()
    rows, zones = catalog._catalog()
    assert isinstance(rows, tuple)
    for row in rows:
        assert isinstance(row.zones, tuple)
        for zone_id, spec in row.zones:
            assert zones[zone_id] == (row.name, row.provider, spec)


class TestCloudSpecBuild(object):
    def test_build_installs_through_install_catalog(self):
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
