"""Provider-specific billing and invocation behaviour on IBM and DO.

The headline experiments run on AWS; these tests pin down the behaviour
of the other two providers so the multi-provider paths stay honest.
"""

import pytest

from repro.common.units import Money
from repro.cloudsim import build_global_catalog
from repro.cloudsim.billing import (
    AWS_LAMBDA_BILLING,
    DIGITAL_OCEAN_BILLING,
    IBM_CODE_ENGINE_BILLING,
)
from repro.cloudsim.handlers import SleepHandler
from tests.helpers import sleep_poll


class TestIbmBilling(object):
    def test_coarse_granularity_rounds_up(self):
        # IBM Code Engine bills in 100 ms ticks.
        assert IBM_CODE_ENGINE_BILLING.billed_duration(
            0.101) == pytest.approx(0.2)
        assert IBM_CODE_ENGINE_BILLING.billed_duration(
            0.2) == pytest.approx(0.2)

    def test_effective_rate_includes_vcpu(self):
        # The folded rate must exceed the bare memory rate.
        assert IBM_CODE_ENGINE_BILLING.rate_for("x86_64") > 3.56e-6

    def test_no_per_request_fee(self):
        bill = IBM_CODE_ENGINE_BILLING.bill(1024, 1.0)
        assert bill.request == Money(0)


class TestDoBilling(object):
    def test_no_per_request_fee(self):
        assert DIGITAL_OCEAN_BILLING.bill(512, 1.0).request == Money(0)

    def test_rate_above_aws(self):
        assert (DIGITAL_OCEAN_BILLING.rate_for("x86_64")
                > AWS_LAMBDA_BILLING.rate_for("x86_64"))


class TestNonAwsInvocations(object):
    @pytest.fixture
    def sky(self):
        return build_global_catalog(seed=171)

    def test_ibm_invocation_end_to_end(self, sky):
        account = sky.create_account("ibm-acct", "ibm")
        deployment = sky.deploy(account, "eu-de", "fn", 2048,
                                handler=SleepHandler(0.25))
        invocation = sky.invoke(deployment)
        assert invocation.cpu_key == "cascadelake-2.5"
        # 100 ms granularity: 0.251 s bills as 0.3 s.
        assert float(invocation.bill.compute) == pytest.approx(
            2.0 * 0.3 * IBM_CODE_ENGINE_BILLING.rate_for("x86_64"))

    def test_do_invocation_end_to_end(self, sky):
        account = sky.create_account("do-acct", "do")
        deployment = sky.deploy(account, "nyc1", "fn", 512,
                                handler=SleepHandler(0.25))
        invocation = sky.invoke(deployment)
        assert invocation.cpu_key == "do-xeon-2.7"
        assert invocation.bill.request == Money(0)

    def test_ibm_memory_envelope(self, sky):
        from repro.common.errors import ConfigurationError
        account = sky.create_account("ibm-acct", "ibm")
        with pytest.raises(ConfigurationError):
            sky.deploy(account, "eu-de", "fn", 8192)

    def test_do_quota_small(self, sky):
        account = sky.create_account("do-acct", "do")
        deployment = sky.deploy(account, "nyc1", "fn", 512,
                                handler=SleepHandler(0.25))
        result, _ = sleep_poll(sky, deployment, 1000)
        assert result.requested == 120  # DO's concurrency quota
        assert account.throttled_requests == 880

    def test_ibm_cold_start_slower_than_aws(self, sky):
        ibm_account = sky.create_account("ibm-acct", "ibm")
        aws_account = sky.create_account("aws-acct", "aws")
        ibm = sky.invoke(sky.deploy(ibm_account, "eu-de", "fn", 2048,
                                    handler=SleepHandler(0.25)))
        aws = sky.invoke(sky.deploy(aws_account, "us-east-1a", "fn",
                                    2048, handler=SleepHandler(0.25)))
        assert ibm.cold_start_s > aws.cold_start_s

    def test_provider_arrival_windows_differ(self, sky):
        ibm = sky.region_of_zone("eu-de").provider
        aws = sky.region_of_zone("us-east-1a").provider
        assert ibm.arrival_window(2048) > aws.arrival_window(2048)
