"""The shared catalog plan (``repro.cloudsim.shared_catalog``).

``install_catalog`` stays the executable reference; these tests pin the
plan-based build (memoized once per process) to it — same regions, same
zones, same pool/scaling parameters, same seeded outcomes.
"""

import pytest

from repro.cloudsim import Cloud
from repro.cloudsim.catalog import install_catalog
from repro.cloudsim.shared_catalog import catalog_plan, install_plan
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


@pytest.mark.parametrize("filters", [
    {"aws_only": True},
    {"aws_only": False},
    {"aws_only": False, "regions": ("us-west-1", "lon1")},
    {"aws_only": True, "regions": ("us-west-1",)},
])
def test_plan_install_matches_install_catalog(filters):
    reference = install_catalog(Cloud(seed=7), **filters)
    planned = install_plan(Cloud(seed=7), catalog_plan(), **filters)
    assert _cloud_signature(planned) == _cloud_signature(reference)
    assert list(planned.regions) == list(reference.regions)


def test_plan_is_memoized_and_immutable():
    assert catalog_plan() is catalog_plan()
    assert isinstance(catalog_plan(), tuple)
    for entry in catalog_plan():
        assert isinstance(entry["zones"], tuple)


def test_seeded_outcomes_identical_across_construction_paths():
    polls = []
    for install in (
        lambda cloud: install_catalog(cloud, aws_only=True),
        lambda cloud: install_plan(cloud, catalog_plan(), aws_only=True),
    ):
        cloud = install(Cloud(seed=13))
        account = cloud.create_account("acct", "aws")
        deployment = cloud.deploy(account, "us-west-1a", "fn", 1024)
        result = cloud.poll_batch(deployment, 400)
        polls.append(result.aggregate_key())
    assert polls[0] == polls[1]


class TestCloudSpecBuild(object):
    def test_build_uses_active_plan(self):
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

        # Each pool worker memoizes its own plan; the cells must not tell
        # it apart from the serial run's.
        serial = SweepEngine(workers=1).run(tasks())
        engine = SweepEngine(workers=2)
        pooled = engine.run(tasks())
        assert engine.last_mode == "pool"
        assert [r.ground_truth().shares() for r in pooled] == \
            [r.ground_truth().shares() for r in serial]
