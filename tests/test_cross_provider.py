"""Cross-provider cost ranking and failover routing."""

import pytest

from repro.common.errors import (
    ConfigurationError,
    SaturationError,
)
from repro.common.units import Money
from repro.core import (
    BaselinePolicy,
    CharacterizationStore,
    RegionalPolicy,
    ResilienceConfig,
    SmartRouter,
    ZoneHealthTracker,
    ZoneRanker,
)
from repro.core.policies import CheapestCostPolicy
from repro.dynfunc import UniversalDynamicFunctionHandler
from repro.sampling import CharacterizationBuilder
from repro.skymesh import SkyMesh
from repro.workloads import resolve_runtime_model, workload_by_name
from tests.helpers import drain_zone, make_cloud


def put_profile(store, zone, counts):
    builder = CharacterizationBuilder(zone)
    builder.add_poll(counts, cost=Money(0), timestamp=0.0)
    store.put(builder.snapshot())


@pytest.fixture
def multi_provider_sky():
    """An AWS region plus an IBM region in one cloud."""
    from repro.cloudsim.az import AvailabilityZone, ScalingPolicy
    from repro.cloudsim.host import HostPool
    from repro.cloudsim.network import GeoPoint
    from repro.cloudsim.provider import provider_by_name
    from repro.cloudsim.region import Region

    cloud = make_cloud(seed=121)  # AWS region test-1 with zones a/b
    ibm = provider_by_name("ibm")
    region = Region("us-south", ibm, GeoPoint(32.8, -96.8))
    region.add_zone(AvailabilityZone(
        "us-south",
        [HostPool("cascadelake-2.5", 10, ibm.slots_per_host)],
        cloud.clock, keepalive=ibm.adapter.keepalive.idle_ttl,
        scaling=ScalingPolicy(max_surge_slots=64), rng=121))
    cloud.add_region(region)
    return cloud


class TestExpectedCost(object):
    def test_folds_in_provider_rates(self, multi_provider_sky):
        cloud = multi_provider_sky
        store = CharacterizationStore()
        put_profile(store, "test-1a", {"xeon-2.5": 10})
        put_profile(store, "us-south", {"cascadelake-2.5": 10})
        ranker = ZoneRanker(store, cloud=cloud)
        factors = workload_by_name("sha1_hash").cpu_factors()
        aws_cost = ranker.expected_cost("test-1a", factors, 2.5, 2048)
        ibm_cost = ranker.expected_cost("us-south", factors, 2.5, 2048)
        # IBM's effective GB-s rate is ~25 % higher than AWS x86.
        assert ibm_cost > aws_cost

    def test_requires_cloud(self):
        store = CharacterizationStore()
        put_profile(store, "z", {"xeon-2.5": 1})
        with pytest.raises(ConfigurationError):
            ZoneRanker(store).expected_cost("z", {"xeon-2.5": 1.0}, 1.0,
                                            1024)

    def test_rank_by_cost_skips_unprofiled(self, multi_provider_sky):
        cloud = multi_provider_sky
        store = CharacterizationStore()
        put_profile(store, "test-1a", {"xeon-2.5": 10})
        ranker = ZoneRanker(store, cloud=cloud)
        factors = workload_by_name("sha1_hash").cpu_factors()
        ranked = ranker.rank_by_cost(["test-1a", "us-south"], factors,
                                     2.5, 2048)
        assert ranked == ["test-1a"]


class TestCheapestCostPolicy(object):
    def test_prefers_cheaper_provider(self, multi_provider_sky):
        cloud = multi_provider_sky
        store = CharacterizationStore()
        put_profile(store, "test-1a", {"xeon-2.5": 10})
        put_profile(store, "us-south", {"cascadelake-2.5": 10})
        mesh = SkyMesh(cloud)
        aws_account = cloud.create_account("aws-acct", "aws")
        handler = UniversalDynamicFunctionHandler(resolve_runtime_model)
        mesh.register(cloud.deploy(aws_account, "test-1a", "dynamic",
                                   2048, handler=handler))
        router = SmartRouter(cloud, mesh, store, CheapestCostPolicy(),
                             workload_by_name("sha1_hash"),
                             ["test-1a", "us-south"])
        assert router.decide().zone_id == "test-1a"

    def test_runtime_edge_can_beat_rate_edge(self, multi_provider_sky):
        # When the pricier provider's zone is far faster, cost ranking can
        # still prefer it — the whole point of comparing dollars.
        cloud = multi_provider_sky
        store = CharacterizationStore()
        put_profile(store, "test-1a", {"xeon-2.9": 10})  # slow AWS mix
        put_profile(store, "us-south", {"cascadelake-2.5": 10})
        ranker = ZoneRanker(store, cloud=cloud)
        factors = dict(workload_by_name("sha1_hash").cpu_factors())
        factors["xeon-2.9"] = 2.0  # pathological slowdown
        ranked = ranker.rank_by_cost(["test-1a", "us-south"], factors,
                                     2.5, 2048)
        assert ranked[0] == "us-south"

    def test_no_candidates_raises(self, multi_provider_sky):
        cloud = multi_provider_sky
        mesh = SkyMesh(cloud)
        router = SmartRouter(cloud, mesh, CharacterizationStore(),
                             CheapestCostPolicy(),
                             workload_by_name("sha1_hash"), ["test-1a"])
        with pytest.raises(ConfigurationError):
            router.decide()


class TestFailover(object):
    """Failover-only routing: ``route_resilient`` with one attempt per
    candidate zone and no hedge hops zones on saturation."""

    @pytest.fixture
    def failover_rig(self):
        cloud = make_cloud(seed=131)
        account = cloud.create_account("rig", "aws")
        mesh = SkyMesh(cloud)
        handler = UniversalDynamicFunctionHandler(resolve_runtime_model)
        for zone in ("test-1a", "test-1b"):
            mesh.register(cloud.deploy(account, zone, "dynamic", 2048,
                                       handler=handler))
        store = CharacterizationStore()
        put_profile(store, "test-1a", {"xeon-2.5": 10})
        put_profile(store, "test-1b", {"xeon-3.0": 10})
        return cloud, mesh, store

    @staticmethod
    def _router(rig, policy=None):
        cloud, mesh, store = rig
        return SmartRouter(cloud, mesh, store, policy or RegionalPolicy(),
                           workload_by_name("sha1_hash"),
                           ["test-1a", "test-1b"],
                           health=ZoneHealthTracker())

    @staticmethod
    def _route(router):
        return router.route_resilient(ResilienceConfig(
            max_attempts=len(router.candidate_zones)))

    def test_fails_over_to_second_zone(self, failover_rig):
        cloud, _, _ = failover_rig
        drain_zone(cloud.zone("test-1b"), duration=600.0)  # best zone dead
        outcome = self._route(self._router(failover_rig))
        assert outcome.zone_id == "test-1a"
        assert outcome.failovers == 1

    def test_no_failover_needed_uses_best_zone(self, failover_rig):
        outcome = self._route(self._router(failover_rig))
        assert outcome.zone_id == "test-1b"
        assert outcome.attempts == 1

    def test_all_zones_saturated_raises(self, failover_rig):
        cloud, _, _ = failover_rig
        drain_zone(cloud.zone("test-1a"), duration=600.0)
        drain_zone(cloud.zone("test-1b"), duration=600.0)
        with pytest.raises(SaturationError):
            self._route(self._router(failover_rig))

    def test_candidates_restored_after_failover(self, failover_rig):
        cloud, _, _ = failover_rig
        drain_zone(cloud.zone("test-1b"), duration=600.0)
        router = self._router(failover_rig)
        self._route(router)
        assert router.candidate_zones == ["test-1a", "test-1b"]

    def test_fixed_zone_policy_cannot_fail_over(self, failover_rig):
        # A baseline policy re-decides the same dead zone; after dropping
        # it the policy still insists, so the error surfaces.
        cloud, _, _ = failover_rig
        drain_zone(cloud.zone("test-1a"), duration=600.0)
        router = self._router(failover_rig, BaselinePolicy("test-1a"))
        with pytest.raises(SaturationError):
            self._route(router)
