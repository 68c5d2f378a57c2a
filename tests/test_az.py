"""Availability zones: placement, saturation, scaling, drift hooks."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConfigurationError, SaturationError
from repro.cloudsim.adapters import SlidingWindowKeepAlive
from repro.cloudsim.az import AvailabilityZone, ScalingPolicy, _apportion
from repro.cloudsim.host import HostPool
from tests.helpers import drain_zone, make_zone


class TestConstruction(object):
    def test_requires_pools(self, clock):
        with pytest.raises(ConfigurationError):
            AvailabilityZone("z", [], clock)

    def test_rejects_duplicate_cpu_pools(self, clock):
        pools = [HostPool("xeon-2.5", 1, 16), HostPool("xeon-2.5", 2, 16)]
        with pytest.raises(ConfigurationError):
            AvailabilityZone("z", pools, clock)

    @pytest.mark.parametrize("keepalive", [-5, -1e-9, float("nan")])
    def test_rejects_bad_keepalive(self, clock, keepalive):
        with pytest.raises(ConfigurationError):
            AvailabilityZone("z", [HostPool("xeon-2.5", 1, 16)], clock,
                             keepalive=SlidingWindowKeepAlive(keepalive))

    @pytest.mark.parametrize("kwargs", [
        {"slots_per_minute": -5},
        {"slots_per_minute": float("nan")},
        {"slots_per_minute": float("inf")},
        {"max_surge_slots": -1},
        {"max_surge_slots": 10.7},
        {"max_surge_slots": float("nan")},
    ])
    def test_scaling_policy_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigurationError):
            ScalingPolicy(**kwargs)

    def test_scaling_policy_accepts_integral_values(self):
        policy = ScalingPolicy(slots_per_minute=0, max_surge_slots=256.0)
        assert policy.max_surge_slots == 256
        assert type(policy.max_surge_slots) is int

    def test_capacity_sums_pools(self, zone):
        assert zone.capacity == (12 + 4) * 64

    def test_ground_truth_shares(self, zone):
        truth = zone.cpu_slot_shares()
        assert truth.share("xeon-2.5") == pytest.approx(12 / 16)
        assert truth.share("xeon-3.0") == pytest.approx(4 / 16)


class TestPlaceBatch(object):
    def test_all_unique_when_sleep_covers_window(self, zone):
        result = zone.invoke_batch("fn", 100, duration=0.25, window=0.2)
        assert result.unique_fis == 100
        assert result.served == 100
        assert result.failed == 0

    def test_short_sleep_reuses_fis(self, zone):
        result = zone.invoke_batch("fn", 100, duration=0.1, window=1.0)
        assert result.unique_fis == 10
        assert result.served == 100  # served sequentially by reuse

    def test_zero_window_means_truly_parallel(self, zone):
        result = zone.invoke_batch("fn", 50, duration=0.01, window=0.0)
        assert result.unique_fis == 50

    def test_request_counts_match_served(self, zone):
        result = zone.invoke_batch("fn", 200, duration=0.3, window=0.2)
        assert sum(result.request_cpu_counts.values()) == result.served

    def test_cpu_counts_cover_only_known_pools(self, zone):
        result = zone.invoke_batch("fn", 200, duration=0.3, window=0.2)
        assert set(result.new_fi_counts) <= {"xeon-2.5", "xeon-3.0"}

    def test_warm_fis_of_same_deployment_reused_first(self, zone):
        zone.invoke_batch("fn", 100, duration=0.25, window=0.2)
        zone.clock.advance(5.0)
        second = zone.invoke_batch("fn", 100, duration=0.25, window=0.2)
        assert sum(second.reused_fi_counts.values()) == 100
        assert second.new_fis == 0

    def test_other_deployments_cannot_reuse(self, zone):
        zone.invoke_batch("fn-a", 100, duration=0.25, window=0.2)
        zone.clock.advance(5.0)
        second = zone.invoke_batch("fn-b", 100, duration=0.25, window=0.2)
        assert second.new_fis == 100

    def test_invalid_arguments(self, zone):
        with pytest.raises(ConfigurationError):
            zone.invoke_batch("fn", 0, duration=1.0, window=0.0)
        with pytest.raises(ConfigurationError):
            zone.invoke_batch("fn", 10, duration=0.0, window=0.0)

    def test_failure_rate_property(self, zone):
        result = zone.invoke_batch("fn", 100, duration=0.25, window=0.2)
        assert result.failure_rate == 0.0


class TestSaturation(object):
    def test_requests_fail_when_pool_is_full(self, zone):
        drain_zone(zone, duration=100.0)
        result = zone.invoke_batch("other", 100, duration=0.25, window=0.2)
        assert result.failed == 100

    def test_distinct_deployments_accumulate_until_saturation(self, zone):
        # Polls against distinct endpoints pile warm FIs onto the pool —
        # the core of the sampling method.
        total_served = 0
        deployments = 0
        while True:
            result = zone.invoke_batch("fn-{}".format(deployments), 200,
                                       duration=0.25, window=0.2)
            total_served += result.served
            deployments += 1
            zone.clock.advance(2.0)
            if result.failure_rate > 0.5:
                break
        assert total_served >= zone.capacity * 0.9
        assert deployments <= 10

    def test_saturation_is_shared_across_deployments(self, zone):
        # A "second account" (fresh deployment) fails immediately once the
        # zone is exhausted — the EX-1 validation.
        drain_zone(zone, duration=100.0)
        second_account = zone.invoke_batch("account-b-fn", 100,
                                           duration=0.25, window=0.2)
        assert second_account.failure_rate == 1.0

    def test_capacity_recovers_after_keepalive(self, zone):
        zone.invoke_batch("fn", 500, duration=1.0, window=0.0)
        zone.clock.advance(1.0 + zone.keepalive + 1.0)
        assert zone.free_slots() == zone.capacity


class TestScaling(object):
    def test_surge_capacity_added_under_pressure(self, clock):
        zone = make_zone(clock=clock, scaling=ScalingPolicy(
            pressure_threshold=0.5, slots_per_minute=64,
            max_surge_slots=256))
        base_capacity = zone.capacity
        drain_zone(zone, fraction=0.9, duration=600.0)
        clock.advance(120.0)
        zone.invoke_batch("fn", 10, duration=0.25, window=0.2)
        assert zone.capacity > base_capacity

    def test_no_scaling_without_pressure(self, clock):
        zone = make_zone(clock=clock)
        base_capacity = zone.capacity
        clock.advance(600.0)
        zone.invoke_batch("fn", 10, duration=0.25, window=0.2)
        assert zone.capacity == base_capacity

    def test_surge_is_bounded(self, clock):
        policy = ScalingPolicy(pressure_threshold=0.1, slots_per_minute=1000,
                               max_surge_slots=64)
        zone = make_zone(clock=clock, scaling=policy)
        base_capacity = zone.capacity
        drain_zone(zone, fraction=0.95, duration=3600.0)
        for _ in range(5):
            clock.advance(300.0)
            zone.invoke_batch("fn", 5, duration=0.25, window=0.2)
        assert zone.capacity <= base_capacity + 64 + 64  # slots + rounding


class TestInvokeOne(object):
    def test_cold_then_warm(self, zone):
        fi, reused = zone.invoke_one("fn", lambda cpu: 0.5)
        assert not reused
        zone.clock.advance(1.0)
        fi2, reused2 = zone.invoke_one("fn", lambda cpu: 0.5)
        assert reused2
        assert fi2.instance_id == fi.instance_id

    def test_force_new_skips_warm(self, zone):
        fi, _ = zone.invoke_one("fn", lambda cpu: 0.5)
        zone.clock.advance(1.0)
        fi2, reused = zone.invoke_one("fn", lambda cpu: 0.5, force_new=True)
        assert not reused
        assert fi2.instance_id != fi.instance_id

    def test_busy_fi_not_reused(self, zone):
        zone.invoke_one("fn", lambda cpu: 10.0)
        fi2, reused = zone.invoke_one("fn", lambda cpu: 10.0)
        assert not reused

    def test_duration_fn_receives_cpu(self, zone):
        seen = []

        def duration_fn(cpu_key):
            seen.append(cpu_key)
            return 0.5

        zone.invoke_one("fn", duration_fn)
        assert seen and seen[0] in ("xeon-2.5", "xeon-3.0")

    def test_saturated_zone_raises(self, zone):
        drain_zone(zone, duration=100.0)
        with pytest.raises(SaturationError):
            zone.invoke_one("fn", lambda cpu: 0.5)

    def test_hold_blocks_reuse(self, zone):
        fi, _ = zone.invoke_one("fn", lambda cpu: 0.5)
        zone.clock.advance(1.0)
        zone.hold_instance(fi, 0.150)
        fi2, reused = zone.invoke_one("fn", lambda cpu: 0.5)
        assert not reused


class TestRebalance(object):
    def test_rebalance_to_new_shares(self, zone):
        zone.rebalance({"xeon-2.5": 0.25, "xeon-3.0": 0.75})
        truth = zone.cpu_slot_shares()
        assert truth.share("xeon-3.0") == pytest.approx(0.75, abs=0.05)

    def test_rebalance_introduces_new_cpu(self, zone):
        zone.rebalance({"xeon-2.5": 0.5, "amd-epyc": 0.5})
        assert "amd-epyc" in zone.cpu_slot_shares().categories

    def test_rebalance_removes_missing_cpu_when_idle(self, zone):
        zone.rebalance({"xeon-2.5": 1.0})
        assert zone.cpu_slot_shares().categories == ("xeon-2.5",)

    def test_rebalance_cannot_evict_live_fis(self, zone):
        zone.invoke_batch("fn", 200, duration=600.0, window=0.0)
        before = zone.occupied()
        zone.rebalance({"xeon-2.5": 1.0})
        assert zone.occupied() >= before


class TestApportion(object):
    def test_sums_to_total(self):
        result = _apportion(10, {"a": 1, "b": 1, "c": 1})
        assert sum(result.values()) == 10

    def test_proportionality(self):
        result = _apportion(100, {"a": 3, "b": 1})
        assert result == {"a": 75, "b": 25}

    def test_zero_total(self):
        assert _apportion(0, {"a": 1}) == {}

    def test_empty_weights(self):
        assert _apportion(5, {}) == {}

    @given(st.integers(min_value=1, max_value=10 ** 5),
           st.dictionaries(st.sampled_from(["a", "b", "c", "d"]),
                           st.integers(min_value=1, max_value=1000),
                           min_size=1, max_size=4))
    @settings(max_examples=50)
    def test_apportion_conserves_total(self, total, weights):
        result = _apportion(total, weights)
        assert sum(result.values()) == total
        assert set(result) <= set(weights)
