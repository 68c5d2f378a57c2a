"""The SmartRouter."""

import pytest

from repro.common.errors import ConfigurationError
from repro.common.units import Money
from repro.core import (
    BaselinePolicy,
    CharacterizationStore,
    RegionalPolicy,
    RetryRoutingPolicy,
    SmartRouter,
    WorkloadRunner,
)
from repro.dynfunc import UniversalDynamicFunctionHandler
from repro.sampling import CharacterizationBuilder
from repro.skymesh import SkyMesh
from repro.workloads import resolve_runtime_model, workload_by_name
from tests.helpers import make_cloud


def put_profile(store, zone, counts):
    builder = CharacterizationBuilder(zone)
    builder.add_poll(counts, cost=Money(0), timestamp=0.0)
    store.put(builder.snapshot())


@pytest.fixture
def routing_setup():
    cloud = make_cloud(seed=41)
    account = cloud.create_account("router", "aws")
    mesh = SkyMesh(cloud)
    for zone in ("test-1a", "test-1b"):
        deployment = cloud.deploy(
            account, zone, "dynamic", 2048,
            handler=UniversalDynamicFunctionHandler(resolve_runtime_model))
        mesh.register(deployment)
    store = CharacterizationStore()
    put_profile(store, "test-1a", {"xeon-2.5": 60, "xeon-2.9": 40})
    put_profile(store, "test-1b", {"xeon-2.5": 40, "xeon-3.0": 60})
    return cloud, mesh, store


def make_router(setup, policy, **kwargs):
    cloud, mesh, store = setup
    return SmartRouter(cloud, mesh, store, policy,
                       workload_by_name("sha1_hash"),
                       ["test-1a", "test-1b"], **kwargs)


class TestRouting(object):
    def test_baseline_routes_to_fixed_zone(self, routing_setup):
        router = make_router(routing_setup, BaselinePolicy("test-1a"))
        request = router.route()
        assert request.zone_id == "test-1a"
        assert request.retries == 0
        assert request.cost > Money(0)

    def test_regional_routes_to_best_zone(self, routing_setup):
        router = make_router(routing_setup, RegionalPolicy())
        assert router.route().zone_id == "test-1b"

    def test_retry_policy_applied(self, routing_setup):
        router = make_router(
            routing_setup,
            RetryRoutingPolicy("test-1a", "focus_fastest",
                               max_retries=20))
        requests = [router.route() for _ in range(15)]
        assert all(r.cpu_key == "xeon-2.5" for r in requests)
        assert any(r.retries > 0 for r in requests)

    def test_needs_candidate_zones(self, routing_setup):
        cloud, mesh, store = routing_setup
        with pytest.raises(ConfigurationError):
            SmartRouter(cloud, mesh, store, BaselinePolicy("test-1a"),
                        workload_by_name("sha1_hash"), [])

    def test_burst_decides_once(self, routing_setup):
        router = make_router(routing_setup, RegionalPolicy())
        result = WorkloadRunner(routing_setup[0]).run_burst(router, 10)
        assert result.n == 10
        assert len(result.zones) == 1

    def test_burst_validates_count(self, routing_setup):
        router = make_router(routing_setup, BaselinePolicy("test-1a"))
        with pytest.raises(ConfigurationError):
            WorkloadRunner(routing_setup[0]).run_burst(router, 0)

    def test_latency_includes_client_rtt(self, routing_setup):
        from repro.cloudsim.network import GeoPoint
        far = GeoPoint(-33.9, 151.2)
        with_client = make_router(routing_setup,
                                  BaselinePolicy("test-1a"), client=far)
        near = make_router(routing_setup, BaselinePolicy("test-1a"))
        assert (with_client.route().latency_s
                > near.route().latency_s + 0.05)


class TestPassiveCharacterization(object):
    def test_observations_fed_back_to_store(self, routing_setup):
        cloud, mesh, store = routing_setup
        router = make_router(routing_setup, BaselinePolicy("test-1a"),
                             passive=True)
        WorkloadRunner(cloud).run_burst(router, 20)
        assert store.passive_samples("test-1a") == 20

    def test_disabled_by_default(self, routing_setup):
        cloud, mesh, store = routing_setup
        router = make_router(routing_setup, BaselinePolicy("test-1a"))
        WorkloadRunner(cloud).run_burst(router, 5)
        assert store.passive_samples("test-1a") == 0

    def test_passive_profile_converges_to_zone_mix(self, routing_setup):
        cloud, mesh, store = routing_setup
        store.clear_passive()
        fresh_store = CharacterizationStore()
        router = SmartRouter(cloud, mesh, fresh_store,
                             BaselinePolicy("test-1a"),
                             workload_by_name("sha1_hash"),
                             ["test-1a"], passive=True)
        # Without any polls, passive observations alone build a profile.
        for _ in range(60):
            router.route(router.policy.decide(None))
        profile = fresh_store.get("test-1a")
        truth = cloud.zone("test-1a").cpu_slot_shares()
        assert profile.ape_to(truth) < 35.0
