"""Failure injection: how the stack behaves when things go wrong.

These tests drive the sampling and routing layers into the failure modes a
real deployment hits — saturated zones, throttled accounts, stale or
missing characterizations, exhausted retry budgets — and check that each
layer degrades the way it documents.
"""

import pytest

from repro.common.errors import (
    CharacterizationError,
    ConfigurationError,
    SaturationError,
)
from repro.common.units import DAYS, Money
from repro.core import (
    BaselinePolicy,
    CharacterizationStore,
    HybridPolicy,
    RegionalPolicy,
    RetryEngine,
    RetryPolicy,
    SmartRouter,
    WorkloadRunner,
)
from repro.dynfunc import UniversalDynamicFunctionHandler
from repro.sampling import CharacterizationBuilder, SamplingCampaign
from repro.skymesh import SkyMesh
from repro.workloads import resolve_runtime_model, workload_by_name
from tests.helpers import drain_zone, make_cloud, sleep_poll


def put_profile(store, zone, counts, timestamp=0.0):
    builder = CharacterizationBuilder(zone)
    builder.add_poll(counts, cost=Money(0), timestamp=timestamp)
    store.put(builder.snapshot())


@pytest.fixture
def rig():
    cloud = make_cloud(seed=101)
    account = cloud.create_account("rig", "aws")
    mesh = SkyMesh(cloud)
    for zone in ("test-1a", "test-1b"):
        mesh.register(cloud.deploy(
            account, zone, "dynamic", 2048,
            handler=UniversalDynamicFunctionHandler(resolve_runtime_model)))
    return cloud, account, mesh


class TestSaturatedZones(object):
    def test_router_surfaces_saturation(self, rig):
        cloud, account, mesh = rig
        drain_zone(cloud.zone("test-1a"), duration=600.0)
        store = CharacterizationStore()
        put_profile(store, "test-1a", {"xeon-2.5": 10})
        router = SmartRouter(cloud, mesh, store, BaselinePolicy("test-1a"),
                             workload_by_name("sha1_hash"), ["test-1a"])
        with pytest.raises(SaturationError):
            router.route()

    def test_batched_burst_raises_on_dead_zone(self, rig):
        cloud, account, mesh = rig
        drain_zone(cloud.zone("test-1a"), duration=600.0)
        runner = WorkloadRunner(cloud)
        with pytest.raises(Exception):
            runner.profile_workload(mesh.endpoint("test-1a", 2048),
                                    workload_by_name("sha1_hash"), 100)

    def test_campaign_handles_immediately_saturated_zone(self, rig):
        cloud, account, mesh = rig
        drain_zone(cloud.zone("test-1a"), duration=600.0)
        endpoints = mesh.deploy_sampling_endpoints(account, "test-1a",
                                                   count=5)
        result = SamplingCampaign(cloud, endpoints, n_requests=100).run()
        assert result.saturated
        assert result.polls_run == 1
        # Nothing was observed, so there is no ground truth to build.
        with pytest.raises(CharacterizationError):
            result.ground_truth()

    def test_retry_engine_saturation_mid_retry(self, rig):
        cloud, account, mesh = rig
        zone = cloud.zone("test-1a")
        drain_zone(zone, fraction=0.995, duration=600.0)
        engine = RetryEngine(cloud)
        deployment = mesh.endpoint("test-1a", 2048)
        policy = RetryPolicy(["xeon-2.5", "xeon-2.9"], max_retries=50)
        # Each retry forces a new FI; the zone runs out before the budget
        # does.  The engine surfaces the platform error as a structured
        # failed outcome — attempts and hold cost are not lost in a raise.
        failed = None
        for _ in range(30):
            outcome = engine.invoke(deployment, policy,
                                    payload=workload_by_name(
                                        "sha1_hash").payload())
            if outcome.failed:
                failed = outcome
                break
        assert failed is not None
        assert not failed.executed
        assert failed.final is None
        assert failed.cpu_key is None
        assert isinstance(failed.error, SaturationError)
        assert failed.error.reason == "no_capacity"


class TestThrottling(object):
    def test_oversized_poll_is_clipped_not_crashed(self, rig):
        cloud, account, mesh = rig
        endpoints = mesh.deploy_sampling_endpoints(account, "test-1a",
                                                   count=1)
        result, _ = sleep_poll(cloud, endpoints[0], 5000)
        assert result.requested == account.concurrency_quota
        assert account.throttled_requests == 4000


class TestStaleAndMissingProfiles(object):
    def test_regional_policy_without_any_profiles(self, rig):
        cloud, account, mesh = rig
        store = CharacterizationStore()
        router = SmartRouter(cloud, mesh, store, RegionalPolicy(),
                             workload_by_name("sha1_hash"),
                             ["test-1a", "test-1b"])
        with pytest.raises(CharacterizationError):
            router.route()

    def test_hybrid_policy_without_any_profiles(self, rig):
        cloud, account, mesh = rig
        router = SmartRouter(cloud, mesh, CharacterizationStore(),
                             HybridPolicy(), workload_by_name("sha1_hash"),
                             ["test-1a", "test-1b"])
        with pytest.raises(ConfigurationError):
            router.route()

    def test_stale_profiles_drop_out_of_the_view(self, rig):
        cloud, account, mesh = rig
        store = CharacterizationStore(staleness_limit=1 * DAYS)
        put_profile(store, "test-1a", {"xeon-2.5": 10}, timestamp=0.0)
        put_profile(store, "test-1b", {"xeon-3.0": 10},
                    timestamp=2 * DAYS)
        cloud.clock.advance_to(2.5 * DAYS)
        router = SmartRouter(cloud, mesh, store, RegionalPolicy(),
                             workload_by_name("sha1_hash"),
                             ["test-1a", "test-1b"])
        # Only the fresh zone remains routable.
        assert router.route().zone_id == "test-1b"

    def test_partial_profiles_restrict_regional_choice(self, rig):
        cloud, account, mesh = rig
        store = CharacterizationStore()
        put_profile(store, "test-1a", {"xeon-2.5": 10})
        router = SmartRouter(cloud, mesh, store, RegionalPolicy(),
                             workload_by_name("matrix_multiply"),
                             ["test-1a", "test-1b"])
        # test-1b would win on hardware but has no profile: the router
        # must not route blind.
        assert router.route().zone_id == "test-1a"


class TestRetryBudgetExhaustion(object):
    def test_impossible_ban_still_completes_work(self, rig):
        cloud, account, mesh = rig
        engine = RetryEngine(cloud)
        deployment = mesh.endpoint("test-1b", 2048)
        policy = RetryPolicy(["xeon-2.5", "xeon-3.0"], max_retries=2)
        outcome = engine.invoke(
            deployment, policy,
            payload=workload_by_name("sha1_hash").payload())
        assert outcome.executed
        assert outcome.retries == 2
        assert outcome.final.runtime_s > 1.0

    def test_zero_retry_budget_means_single_attempt(self, rig):
        cloud, account, mesh = rig
        engine = RetryEngine(cloud)
        deployment = mesh.endpoint("test-1b", 2048)
        policy = RetryPolicy(["xeon-2.5"], max_retries=0)
        outcome = engine.invoke(
            deployment, policy,
            payload=workload_by_name("sha1_hash").payload())
        assert outcome.retries == 0
        assert outcome.executed
