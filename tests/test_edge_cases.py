"""Edge cases across layers that no other test file pins down."""

import pytest

from repro.common.errors import ConfigurationError
from repro.common.units import Money
from repro.cloudsim.handlers import SleepHandler
from tests.helpers import make_cloud, sleep_poll


class TestZoneEdges(object):
    def test_occupancy_of_zero_capacity_zone(self, clock):
        from repro.cloudsim.az import AvailabilityZone, ScalingPolicy
        from repro.cloudsim.host import HostPool
        zone = AvailabilityZone(
            "empty-1a", [HostPool("xeon-2.5", 0, 64)], clock,
            scaling=ScalingPolicy(max_surge_slots=0))
        assert zone.capacity == 0
        assert zone.occupancy() == 1.0  # full by definition

    def test_single_request_batch(self, zone):
        result = zone.invoke_batch("fn", 1, duration=0.25, window=0.2)
        assert result.served == 1
        assert result.unique_fis == 1

    def test_batch_larger_than_capacity(self, zone):
        result = zone.invoke_batch("fn", zone.capacity + 500,
                                   duration=0.25, window=0.0)
        assert result.served == zone.capacity
        assert result.failed == 500

    def test_duration_much_longer_than_window(self, zone):
        # duration/window > 1 clamps to all-unique, never more.
        result = zone.invoke_batch("fn", 100, duration=10.0, window=0.1)
        assert result.unique_fis == 100

    def test_reuse_prefers_same_deployment_even_with_many_others(self,
                                                                 zone):
        for index in range(5):
            zone.invoke_batch("other-{}".format(index), 50, duration=0.25,
                              window=0.2)
        zone.invoke_batch("mine", 50, duration=0.25, window=0.2)
        zone.clock.advance(5.0)
        second = zone.invoke_batch("mine", 50, duration=0.25, window=0.2)
        assert sum(second.reused_fi_counts.values()) == 50

    def test_cpu_keys_sorted(self, zone):
        assert zone.cpu_keys() == sorted(zone.cpu_keys())


class TestCloudEdges(object):
    def test_hold_with_unknown_instance_still_bills(self, cloud,
                                                    aws_account):
        # Holding an FI the index no longer tracks (e.g. batch-placed)
        # must still bill the hold — the platform doesn't care where the
        # busy-loop runs.
        deployment = cloud.deploy(aws_account, "test-1a", "fn", 2048,
                                  handler=SleepHandler(0.25))
        invocation = cloud.invoke(deployment)
        cloud.clock.advance(400.0)  # FI expired and dropped from index
        bill = cloud.hold(deployment, invocation, 0.150)
        assert bill.compute > Money(0)

    def test_invocation_repr_and_properties(self, cloud, aws_account):
        deployment = cloud.deploy(aws_account, "test-1a", "fn", 2048,
                                  handler=SleepHandler(0.25))
        invocation = cloud.invoke(deployment)
        assert invocation.is_cold
        assert "test-1a" in repr(invocation)

    def test_region_names_filtering(self, cloud):
        assert cloud.region_names() == ["test-1"]
        assert cloud.region_names(provider="do") == []

    def test_poll_uses_handler_sleep(self, cloud, aws_account):
        deployment = cloud.deploy(aws_account, "test-1a", "fn", 2048,
                                  handler=SleepHandler(0.5))
        result, bill = sleep_poll(cloud, deployment, 10)
        assert bill.billed_duration == pytest.approx(10 * 0.501)


class TestStudyResultEdges(object):
    def test_savings_summary_requires_baseline(self):
        from repro.core.study import StudyResult
        result = StudyResult("zipper", 2, ["only_policy"])
        result.daily_costs["only_policy"] = [1.0, 1.0]
        with pytest.raises(ConfigurationError):
            result.savings_summary()

    def test_cumulative_cost(self):
        from repro.core.study import StudyResult
        result = StudyResult("zipper", 2, ["baseline"])
        result.daily_costs["baseline"] = [1.5, 2.5]
        assert result.cumulative_cost("baseline") == 4.0


class TestMeshEdges(object):
    def test_sampling_endpoints_memory_never_exceeds_envelope(self):
        cloud = make_cloud(seed=211)
        account = cloud.create_account("edge", "aws")
        from repro.skymesh import SkyMesh
        mesh = SkyMesh(cloud)
        endpoints = mesh.deploy_sampling_endpoints(
            account, "test-1a", count=5, memory_base_mb=10235)
        assert max(e.memory_mb for e in endpoints) <= 10240

    def test_endpoint_lookup_distinguishes_arch(self):
        cloud = make_cloud(seed=212)
        account = cloud.create_account("edge", "aws")
        from repro.skymesh import SkyMesh
        mesh = SkyMesh(cloud)
        x86 = cloud.deploy(account, "test-1a", "dynamic", 2048,
                           arch="x86_64", handler=SleepHandler(0.25))
        arm = cloud.deploy(account, "test-1a", "dynamic", 2048,
                           arch="arm64", handler=SleepHandler(0.25))
        mesh.register(x86)
        mesh.register(arm)
        assert mesh.endpoint("test-1a", 2048, arch="arm64") is arm
        assert mesh.endpoint("test-1a", 2048, arch="x86_64") is x86


class TestDistributionSamplingEdge(object):
    def test_single_category_sampling(self):
        import numpy as np
        from repro.common.distributions import CategoricalDistribution
        d = CategoricalDistribution({"only": 5})
        draws = d.sample(np.random.default_rng(0), size=10)
        assert all(x == "only" for x in draws)


class TestRetriedInvocationEdges(object):
    def test_single_attempt_latency_equals_invocation(self):
        from repro.core.retry import RetriedInvocation
        from repro.common.units import Money

        class FakeInvocation(object):
            latency_s = 2.0
            runtime_s = 1.9
            cpu_key = "xeon-2.5"

            class bill(object):
                total = Money(0.001)

        outcome = RetriedInvocation(FakeInvocation(), [FakeInvocation()],
                                    Money(0), executed=True)
        assert outcome.retries == 0
        assert outcome.total_latency == 2.0
        assert outcome.billed_runtime == pytest.approx(1.9)
