"""Provider configurations."""

import pytest

from repro.common.errors import ConfigurationError
from repro.cloudsim.provider import (
    AWS_LAMBDA,
    CORE_PROVIDERS,
    DIGITAL_OCEAN,
    IBM_CODE_ENGINE,
    PROVIDERS,
    ProviderConfig,
    provider_by_name,
    register_provider,
)


class TestRegistry(object):
    def test_core_providers_registered(self):
        # Scenario packs may add more, but the paper's three are always
        # present and first-class.
        assert set(CORE_PROVIDERS) == {"aws", "ibm", "do"}
        assert set(CORE_PROVIDERS) <= set(PROVIDERS)

    def test_lookup(self):
        assert provider_by_name("aws") is AWS_LAMBDA

    def test_unknown_provider(self):
        with pytest.raises(ConfigurationError):
            provider_by_name("nimbus")

    def test_register_rejects_duplicates(self):
        with pytest.raises(ConfigurationError):
            register_provider(AWS_LAMBDA)

    def test_register_and_resolve(self):
        config = ProviderConfig(
            name="test-faas",
            memory_options_mb=(256, 512),
            archs=("x86_64",),
            billing=AWS_LAMBDA.billing,
            adapter=AWS_LAMBDA.adapter,
        )
        try:
            register_provider(config)
            assert provider_by_name("test-faas") is config
        finally:
            PROVIDERS.pop("test-faas", None)


class TestAwsLambda(object):
    def test_paper_memory_ladder(self):
        # §3.3: 128 MB through 10 GB.
        for memory in (128, 256, 512, 1024, 2048, 4096, 6144, 8192, 10240):
            assert memory in AWS_LAMBDA.memory_options_mb

    def test_dual_architecture(self):
        assert set(AWS_LAMBDA.archs) == {"x86_64", "arm64"}

    def test_concurrency_quota_is_1000(self):
        # §3.1: "AWS Lambda had a limit of 1,000 concurrent function
        # requests on the accounts used in this study."
        assert AWS_LAMBDA.adapter.quota.ceiling == 1000

    def test_keepalive_is_five_minutes(self):
        # §4.1: FIs persist ~5 minutes.
        assert AWS_LAMBDA.adapter.keepalive.idle_ttl == 300.0

    def test_memory_validation_allows_intermediate_values(self):
        assert AWS_LAMBDA.validate_memory(10140) == 10140

    def test_memory_validation_rejects_out_of_range(self):
        with pytest.raises(ConfigurationError):
            AWS_LAMBDA.validate_memory(64)
        with pytest.raises(ConfigurationError):
            AWS_LAMBDA.validate_memory(20480)

    def test_memory_validation_rejects_non_integral(self):
        # 512.7 MB is a caller bug: it must raise, not truncate to 512.
        with pytest.raises(ConfigurationError):
            AWS_LAMBDA.validate_memory(512.7)

    def test_memory_validation_accepts_integral_float(self):
        assert AWS_LAMBDA.validate_memory(512.0) == 512

    def test_arch_validation(self):
        assert AWS_LAMBDA.validate_arch("arm64") == "arm64"
        with pytest.raises(ConfigurationError):
            AWS_LAMBDA.validate_arch("riscv")


class TestIbmAndDo(object):
    def test_ibm_three_memory_settings(self):
        # §3.3: IBM Code Engine offers only 1, 2, and 4 GB.
        assert IBM_CODE_ENGINE.memory_options_mb == (1024, 2048, 4096)

    def test_ibm_x86_only(self):
        assert IBM_CODE_ENGINE.archs == ("x86_64",)

    def test_do_smaller_quota(self):
        assert (DIGITAL_OCEAN.adapter.quota.ceiling
                < AWS_LAMBDA.adapter.quota.ceiling)


class TestArrivalWindow(object):
    def test_reference_memory_gives_base_window(self):
        assert AWS_LAMBDA.arrival_window(2048) == pytest.approx(0.25)

    def test_lower_memory_widens_window(self):
        # Figure 3: lower memory needs longer sleeps for full coverage.
        assert AWS_LAMBDA.arrival_window(128) > AWS_LAMBDA.arrival_window(
            2048)

    def test_higher_memory_narrows_window(self):
        assert AWS_LAMBDA.arrival_window(10240) < AWS_LAMBDA.arrival_window(
            2048)

    def test_window_clamped(self):
        assert 0.05 <= AWS_LAMBDA.arrival_window(10240)
        assert AWS_LAMBDA.arrival_window(128) <= 3.0
