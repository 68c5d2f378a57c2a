"""The cloud facade: accounts, deployments, invoke, place_batch, hold."""

import pytest

from repro.common.errors import (
    ConfigurationError,
    DeploymentError,
    UnknownRegionError,
    UnknownZoneError,
)
from repro.common.units import Money
from repro.cloudsim.handlers import CallableHandler, SleepHandler
from repro.cloudsim.network import GeoPoint
from tests.helpers import sleep_poll


@pytest.fixture
def deployment(cloud, aws_account):
    return cloud.deploy(aws_account, "test-1a", "fn", 2048,
                        handler=SleepHandler(0.25))


class TestTopology(object):
    def test_region_lookup(self, cloud):
        assert cloud.region("test-1").name == "test-1"

    def test_unknown_region(self, cloud):
        with pytest.raises(UnknownRegionError):
            cloud.region("atlantis-1")

    def test_zone_lookup(self, cloud):
        assert cloud.zone("test-1a").zone_id == "test-1a"

    def test_unknown_zone(self, cloud):
        with pytest.raises(UnknownZoneError):
            cloud.zone("test-9z")

    def test_region_of_zone(self, cloud):
        assert cloud.region_of_zone("test-1b").name == "test-1"

    def test_duplicate_region_rejected(self, cloud):
        from repro.cloudsim.region import Region
        from repro.cloudsim.provider import AWS_LAMBDA
        with pytest.raises(ConfigurationError):
            cloud.add_region(Region("test-1", AWS_LAMBDA, GeoPoint(0, 0)))

    def test_zone_ids_filtered_by_provider(self, cloud):
        assert cloud.zone_ids(provider="aws") == ["test-1a", "test-1b"]
        assert cloud.zone_ids(provider="ibm") == []


class TestAccounts(object):
    def test_create(self, cloud):
        account = cloud.create_account("a1", "aws")
        assert account.provider.name == "aws"

    def test_duplicate_rejected(self, cloud):
        cloud.create_account("a1", "aws")
        with pytest.raises(ConfigurationError):
            cloud.create_account("a1", "aws")


class TestDeploy(object):
    def test_deploy(self, deployment):
        assert deployment.zone_id == "test-1a"
        assert deployment.memory_mb == 2048

    def test_account_provider_must_match_zone(self, cloud):
        ibm_account = cloud.create_account("ibm-acct", "ibm")
        with pytest.raises(DeploymentError):
            cloud.deploy(ibm_account, "test-1a", "fn", 2048)

    def test_memory_validated(self, cloud, aws_account):
        with pytest.raises(ConfigurationError):
            cloud.deploy(aws_account, "test-1a", "fn", 32)

    def test_deployment_lookup(self, cloud, deployment):
        assert cloud.deployment(deployment.deployment_id) is deployment

    def test_unknown_deployment(self, cloud):
        with pytest.raises(DeploymentError):
            cloud.deployment("dep-999999")

    def test_default_handler_is_sleep(self, cloud, aws_account):
        deployment = cloud.deploy(aws_account, "test-1a", "fn", 2048)
        assert isinstance(deployment.handler, SleepHandler)


class TestInvoke(object):
    def test_basic_invocation(self, cloud, deployment):
        invocation = cloud.invoke(deployment)
        assert invocation.zone_id == "test-1a"
        assert invocation.runtime_s == pytest.approx(0.251)
        assert invocation.cpu_key in ("xeon-2.5", "xeon-2.9")

    def test_cold_start_on_first_invocation(self, cloud, deployment):
        invocation = cloud.invoke(deployment)
        assert invocation.is_cold
        assert invocation.cold_start_s > 0

    def test_warm_reuse_on_second_invocation(self, cloud, deployment):
        cloud.invoke(deployment)
        cloud.clock.advance(1.0)
        second = cloud.invoke(deployment)
        assert second.reused
        assert second.cold_start_s == 0.0

    def test_force_new(self, cloud, deployment):
        first = cloud.invoke(deployment)
        cloud.clock.advance(1.0)
        second = cloud.invoke(deployment, force_new=True)
        assert second.instance_id != first.instance_id

    def test_billing_recorded_on_account(self, cloud, deployment,
                                         aws_account):
        cloud.invoke(deployment)
        assert aws_account.total_spend() > Money(0)

    def test_client_latency_added(self, cloud, deployment):
        far_client = GeoPoint(-33.9, 151.2)  # Sydney vs a Seattle region
        with_client = cloud.invoke(deployment, client=far_client)
        cloud.clock.advance(400.0)
        without = cloud.invoke(deployment)
        assert with_client.latency_s > without.latency_s + 0.05

    def test_custom_handler_durations(self, cloud, aws_account):
        handler = CallableHandler(lambda cpu, rng, payload: 2.0)
        deployment = cloud.deploy(aws_account, "test-1a", "fn2", 1024,
                                  handler=handler)
        invocation = cloud.invoke(deployment)
        assert invocation.runtime_s == pytest.approx(2.0)

    def test_response_from_handler(self, cloud, deployment):
        invocation = cloud.invoke(deployment)
        assert invocation.response["slept"] == 0.25


class TestHold(object):
    def test_hold_bills_compute_without_request_fee(self, cloud, deployment,
                                                    aws_account):
        invocation = cloud.invoke(deployment)
        before = aws_account.total_spend()
        bill = cloud.hold(deployment, invocation, 0.150)
        assert bill.request == Money(0)
        assert bill.compute > Money(0)
        assert aws_account.total_spend() > before

    def test_hold_recorded_under_retry_category(self, cloud, deployment,
                                                aws_account):
        invocation = cloud.invoke(deployment)
        cloud.hold(deployment, invocation, 0.150)
        assert "retry-hold" in aws_account.spend_breakdown()


class TestPoll(object):
    def test_poll_returns_result_and_bill(self, cloud, deployment):
        result, bill = sleep_poll(cloud, deployment, 100)
        assert result.served == 100
        assert bill.requests == 100

    def test_poll_respects_quota(self, cloud, deployment, aws_account):
        result, _ = sleep_poll(cloud, deployment, 1500)
        assert result.requested == 1000
        assert aws_account.throttled_requests == 500

    def test_place_batch_without_charge(self, cloud, deployment,
                                        aws_account):
        before = aws_account.total_spend()
        cloud.place_batch(deployment, 50, 0.25, charge=False)
        assert aws_account.total_spend() == before
