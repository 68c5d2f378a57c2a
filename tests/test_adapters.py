"""Provider adapters: cold-start distributions, keep-alive policies,
quota models, pool-scaling rules, preemption, and function timeouts.

The load-bearing contracts: ``FixedColdStart`` never touches the RNG,
the hard cap reproduces ``min(n, quota)``, the default
``PoolScalingRule`` recipe matches the historical derivation exactly,
and the quota an account reports is the quota it enforces.
"""

import numpy as np
import pytest

from repro.cloudsim.adapters import (
    BimodalColdStart,
    BurstThenThrottleQuota,
    ContainerReuseKeepAlive,
    FixedColdStart,
    FixedLeaseKeepAlive,
    HardCapQuota,
    LognormalColdStart,
    PoolScalingRule,
    PreemptionProcess,
    ProviderAdapter,
    SlidingWindowKeepAlive,
    TokenRefillQuota,
    keepalive_policy_from_spec,
)
from repro.cloudsim.account import CloudAccount
from repro.cloudsim.billing import AWS_LAMBDA_BILLING
from repro.cloudsim.handlers import ModeledWorkloadHandler, SleepHandler
from repro.cloudsim.provider import (
    AWS_LAMBDA,
    PROVIDERS,
    ProviderConfig,
    provider_by_name,
    register_provider,
)
from repro.common.errors import ConfigurationError
from tests.helpers import make_cloud, make_zone


def _rng(seed=0):
    return np.random.default_rng(seed)


class TestColdStartDistributions(object):
    def test_fixed_draws_no_rng(self):
        # The seed contract: the default adapter consumes the cloud RNG
        # exactly as the legacy scalar did — i.e. not at all.
        dist = FixedColdStart(0.18)
        rng = _rng(7)
        before = rng.bit_generator.state
        assert dist.sample(rng) == 0.18
        samples = dist.sample_n(rng, 5)
        assert rng.bit_generator.state == before
        assert list(samples) == [0.18] * 5
        assert dist.is_fixed

    def test_lognormal_batch_matches_scalar_stream(self):
        # sample_n(rng, n) must consume the stream exactly like n
        # scalar sample() calls — the vectorized and looped poll paths
        # share one draw sequence.
        dist = LognormalColdStart(0.45, sigma=0.35)
        batch = dist.sample_n(_rng(11), 64)
        rng = _rng(11)
        scalars = [dist.sample(rng) for _ in range(64)]
        np.testing.assert_array_equal(batch, np.asarray(scalars))
        assert not dist.is_fixed
        assert float(np.min(batch)) > 0.0

    def test_bimodal_batch_matches_scalar_stream(self):
        dist = BimodalColdStart(0.25, 2.5, slow_share=0.15)
        batch = dist.sample_n(_rng(13), 64)
        rng = _rng(13)
        scalars = [dist.sample(rng) for _ in range(64)]
        np.testing.assert_array_equal(batch, np.asarray(scalars))

    def test_bimodal_slow_share(self):
        dist = BimodalColdStart(0.25, 2.5, slow_share=0.15)
        samples = dist.sample_n(_rng(5), 20000)
        share = float(np.mean(samples == 2.5))
        assert share == pytest.approx(0.15, abs=0.02)


class TestKeepAlivePolicies(object):
    def test_specs_round_trip(self):
        for policy in (SlidingWindowKeepAlive(300.0),
                       FixedLeaseKeepAlive(600.0, 3600.0),
                       ContainerReuseKeepAlive(600.0, 96)):
            rebuilt = keepalive_policy_from_spec(policy.spec())
            assert rebuilt.kind == policy.kind
            assert rebuilt.spec() == policy.spec()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            keepalive_policy_from_spec(("caffeinated", 1.0))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SlidingWindowKeepAlive(0.0)
        with pytest.raises(ConfigurationError):
            FixedLeaseKeepAlive(600.0, -1.0)
        with pytest.raises(ConfigurationError):
            ContainerReuseKeepAlive(600.0, 0)


class TestQuotaModels(object):
    def test_hard_cap_is_min(self):
        quota = HardCapQuota(1000)
        state = quota.new_state()
        assert state is None  # stateless: nothing to pickle or reset
        for n in (0, 1, 999, 1000, 1001, 5000):
            assert quota.admit(state, n, 0.0) == min(n, 1000)

    def test_burst_then_throttle_window(self):
        quota = BurstThenThrottleQuota(100, 10, window_s=60.0)
        state = quota.new_state()
        assert quota.admit(state, 80, 0.0) == 80   # inside the burst
        assert quota.admit(state, 40, 1.0) == 20   # remaining headroom
        assert quota.admit(state, 40, 2.0) == 10   # throttled to sustained
        assert quota.admit(state, 150, 60.0) == 100  # window rolled over

    def test_token_refill(self):
        quota = TokenRefillQuota(100, 10.0)
        state = quota.new_state()
        assert quota.admit(state, 150, 0.0) == 100  # drain the bucket
        assert quota.admit(state, 150, 5.0) == 50   # 5 s * 10/s refilled
        assert quota.admit(state, 150, 1000.0) == 100  # capped at capacity

    def test_integral_float_accepted(self):
        assert HardCapQuota(1000.0).cap == 1000


@pytest.mark.parametrize("build", [
    lambda: HardCapQuota(0.5),
    lambda: HardCapQuota(1000.7),
    lambda: BurstThenThrottleQuota(600.5, 200),
    lambda: BurstThenThrottleQuota(600, 199.9),
    lambda: TokenRefillQuota(1000.2, 250.0),
    lambda: ContainerReuseKeepAlive(600.0, 96.5),
], ids=["cap-0.5", "cap-1000.7", "burst", "sustained", "capacity",
        "min-instances"])
def test_fractional_counts_rejected(build):
    # int() would silently truncate: HardCapQuota(0.5) admitted nothing.
    with pytest.raises(ConfigurationError):
        build()


ALL_PROVIDERS = ("aws", "ibm", "do", "gcp", "azure", "openwhisk",
                 "ce-caas", "spot")


class TestReportedQuotaIsEnforced(object):
    @pytest.mark.parametrize("name", ALL_PROVIDERS)
    def test_fresh_account_reports_what_it_admits(self, name):
        provider = provider_by_name(name)
        account = CloudAccount("acct", provider)
        reported = account.concurrency_quota
        assert reported == provider.adapter.quota.ceiling
        assert reported == account.admit_batch(10 ** 9, 0.0)

    def test_swapping_the_quota_moves_both(self):
        config = ProviderConfig(
            name="swap-faas", memory_options_mb=(1024,),
            archs=("x86_64",), billing=AWS_LAMBDA_BILLING,
            adapter=ProviderAdapter(FixedColdStart(0.18),
                                    SlidingWindowKeepAlive(300.0),
                                    HardCapQuota(1000)))
        before = CloudAccount("before", config)
        config.adapter.quota = HardCapQuota(200000)
        after = CloudAccount("after", config)
        # Each account keeps the model it was opened with; what it
        # reports and what it admits never come from different models.
        assert before.concurrency_quota == 1000
        assert before.admit_batch(10 ** 9, 0.0) == 1000
        assert after.concurrency_quota == 200000
        assert after.admit_batch(10 ** 9, 0.0) == 200000


class TestPoolScalingRule(object):
    def test_default_recipe_matches_legacy_derivation(self):
        rule = PoolScalingRule()
        for slots in (64, 1024, 3072, 12288, 20480):
            assert rule.recipe(slots) == (0.85, 8, max(256, slots // 12))

    def test_custom_rule(self):
        rule = PoolScalingRule(pressure_threshold=0.7, slots_per_minute=4,
                               surge_floor=128, surge_divisor=16)
        assert rule.recipe(3200) == (0.7, 4, 200)
        assert rule.recipe(100) == (0.7, 4, 128)

    @pytest.mark.parametrize("kwargs", [
        {"slots_per_minute": -1},
        {"slots_per_minute": float("nan")},
        {"surge_floor": -1},
        {"surge_floor": 128.5},  # used to truncate to 128
        {"surge_divisor": 0},
        {"surge_divisor": 12.5},  # used to truncate to 12
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigurationError):
            PoolScalingRule(**kwargs)


class TestProviderAdapter(object):
    def test_preemption_validation(self):
        with pytest.raises(ConfigurationError):
            ProviderAdapter(FixedColdStart(0.1),
                            SlidingWindowKeepAlive(300.0),
                            HardCapQuota(10), preemption=(0.0, 0.5))
        with pytest.raises(ConfigurationError):
            ProviderAdapter(FixedColdStart(0.1),
                            SlidingWindowKeepAlive(300.0),
                            HardCapQuota(10), preemption=(60.0, 1.5))

    def test_default_scaling_filled_in(self):
        adapter = ProviderAdapter(FixedColdStart(0.1),
                                  SlidingWindowKeepAlive(300.0),
                                  HardCapQuota(10))
        assert adapter.scaling.recipe(1200) == (0.85, 8, max(256, 100))

    def test_aws_adapter_declares_paper_scalars(self):
        adapter = AWS_LAMBDA.adapter
        assert adapter.cold_start.is_fixed
        assert adapter.cold_start.sample(None) == 0.18
        assert adapter.keepalive.spec() == ("sliding", 300.0)
        assert adapter.quota.admit(None, 5000, 0.0) == 1000
        assert adapter.scaling.recipe(1200) == (0.85, 8, 256)
        assert adapter.preemption is None


class TestPreemptionProcess(object):
    def _preempted_after(self, seed):
        zone = make_zone(seed=3)
        # Many separate placements → many FI buckets → many independent
        # preemption draws per strike.
        for i in range(12):
            zone.invoke_batch("fn-{}".format(i), 50, duration=500.0,
                              window=0.0)
        process = PreemptionProcess("test-1a", 60.0, 0.5, seed=seed)
        process.apply_if_due(zone, 130.0)  # strikes at 60 and 120
        return process.preempted

    def test_deterministic_per_seed(self):
        runs = [self._preempted_after(9) for _ in range(2)]
        assert runs[0] == runs[1]
        assert runs[0] > 0

    def test_seed_changes_the_timeline(self):
        assert self._preempted_after(9) != self._preempted_after(10)

    def test_no_strike_before_first_interval(self):
        zone = make_zone(seed=3)
        zone.invoke_batch("fn", 100, duration=500.0, window=0.0)
        process = PreemptionProcess("test-1a", 60.0, 1.0, seed=0)
        process.apply_if_due(zone, 59.9)
        assert process.preempted == 0
        process.apply_if_due(zone, 60.0)
        assert process.preempted > 0

    def test_dedicated_stream_leaves_zone_rng_alone(self):
        # Attaching (and striking) must not perturb the zone's own RNG.
        zone_a = make_zone(seed=3)
        zone_b = make_zone(seed=3)
        for zone in (zone_a, zone_b):
            zone.invoke_batch("fn", 200, duration=500.0, window=0.0)
        PreemptionProcess("test-1a", 60.0, 1.0, seed=0).apply_if_due(
            zone_b, 61.0)
        assert zone_a.rng.bit_generator.state == \
            zone_b.rng.bit_generator.state


TIMEOUT_PROVIDER = "timeout-faas"


@pytest.fixture
def timeout_provider():
    config = ProviderConfig(
        name=TIMEOUT_PROVIDER,
        memory_options_mb=(128, 10240),
        archs=("x86_64",),
        billing=AWS_LAMBDA_BILLING,
        adapter=AWS_LAMBDA.adapter,
        function_timeout=0.2,
    )
    register_provider(config)
    try:
        yield config
    finally:
        PROVIDERS.pop(TIMEOUT_PROVIDER, None)


def _timeout_cloud():
    return make_cloud(seed=5, provider=TIMEOUT_PROVIDER)


class TestFunctionTimeout(object):
    def test_scalar_invoke_billed_at_the_cap(self, timeout_provider):
        cloud = _timeout_cloud()
        account = cloud.create_account("acct", TIMEOUT_PROVIDER)
        deployment = cloud.deploy(account, "test-1a", "fn", 1024,
                                  handler=SleepHandler(1.0))
        invocation = cloud.invoke(deployment)
        assert invocation.timed_out
        assert invocation.runtime_s == 0.2
        reference = deployment.billing.bill(1024, 0.2, "x86_64", requests=1)
        assert float(invocation.bill.total) == float(reference.total)

    def test_fast_request_not_flagged(self, timeout_provider):
        cloud = _timeout_cloud()
        account = cloud.create_account("acct", TIMEOUT_PROVIDER)
        deployment = cloud.deploy(account, "test-1a", "fn", 1024,
                                  handler=SleepHandler(0.05))
        invocation = cloud.invoke(deployment)
        assert not invocation.timed_out
        # SleepHandler adds a 1e-3 dispatch overhead to the sleep.
        assert invocation.runtime_s == pytest.approx(0.051)

    def test_batch_paths_cap_and_count_identically(self, timeout_provider):
        keys = []
        for vectorize in (True, False):
            cloud = _timeout_cloud()
            account = cloud.create_account("acct", TIMEOUT_PROVIDER)
            deployment = cloud.deploy(
                account, "test-1a", "fn", 1024,
                handler=SleepHandler(1.0))
            result = cloud.poll_batch(deployment, 300, vectorize=vectorize)
            assert result.timeouts == result.served
            assert result.runtime_total_s == \
                pytest.approx(0.2 * result.served)
            keys.append(result.aggregate_key())
        assert keys[0] == keys[1]

    def test_batch_mixed_runtimes_agree_across_paths(self):
        # A noisy handler straddling the cap: some requests time out,
        # some don't, and the np.where cap must match the scalar cap
        # bit-for-bit.
        config = ProviderConfig(
            name=TIMEOUT_PROVIDER,
            memory_options_mb=(128, 10240),
            archs=("x86_64",),
            billing=AWS_LAMBDA_BILLING,
            adapter=AWS_LAMBDA.adapter,
            function_timeout=0.3,
        )
        register_provider(config)
        try:
            keys, timeouts = [], []
            for vectorize in (True, False):
                cloud = make_cloud(seed=5, provider=TIMEOUT_PROVIDER)
                account = cloud.create_account("acct", TIMEOUT_PROVIDER)
                deployment = cloud.deploy(
                    account, "test-1a", "fn", 1024,
                    handler=ModeledWorkloadHandler(
                        "wl", 0.3, {}, noise_sigma=0.2,
                        default_factor=1.0))
                result = cloud.poll_batch(deployment, 500,
                                          vectorize=vectorize)
                keys.append(result.aggregate_key())
                timeouts.append(result.timeouts)
            assert keys[0] == keys[1]
            assert 0 < timeouts[0] < 500
        finally:
            PROVIDERS.pop(TIMEOUT_PROVIDER, None)

    def test_timeouts_ride_the_aggregate_key(self, timeout_provider):
        cloud = _timeout_cloud()
        account = cloud.create_account("acct", TIMEOUT_PROVIDER)
        deployment = cloud.deploy(account, "test-1a", "fn", 1024,
                                  handler=SleepHandler(1.0))
        result = cloud.poll_batch(deployment, 50)
        assert result.aggregate_key()[-1] == result.timeouts == 50
