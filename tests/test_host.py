"""Host pools: slot accounting, keep-alive expiry, warm reuse."""

import pytest

from repro.common.errors import ConfigurationError
from repro.cloudsim.host import HostPool


@pytest.fixture
def pool():
    return HostPool("xeon-2.5", hosts=4, slots_per_host=16)


class TestCapacity(object):
    def test_capacity(self, pool):
        assert pool.capacity == 64

    def test_invalid_construction(self):
        with pytest.raises(ConfigurationError):
            HostPool("x", hosts=-1, slots_per_host=16)
        with pytest.raises(ConfigurationError):
            HostPool("x", hosts=1, slots_per_host=0)
        with pytest.raises(ConfigurationError):
            HostPool("x", hosts=1, slots_per_host=16, affinity=0)

    @pytest.mark.parametrize("hosts,slots_per_host,affinity", [
        (3, 0.5, 1.0),        # would truncate to 0 slots: capacity 0
        (2.7, 64, 1.0),       # would truncate to 2 hosts
        (float("nan"), 64, 1.0),
        (4, float("inf"), 1.0),
        ("4", 64, 1.0),
        (4, 64, float("nan")),
        (4, 64, float("inf")),
    ])
    def test_fractional_or_non_finite_shape_rejected(self, hosts,
                                                      slots_per_host,
                                                      affinity):
        with pytest.raises(ConfigurationError):
            HostPool("x", hosts, slots_per_host, affinity)

    def test_integral_floats_accepted(self):
        pool = HostPool("x", 3.0, 16.0)
        assert (pool.hosts, pool.slots_per_host) == (3, 16)
        assert type(pool.hosts) is int and type(pool.slots_per_host) is int

    def test_empty_pool_has_all_slots_free(self, pool):
        assert pool.free_slots(now=0.0) == 64
        assert pool.occupied(now=0.0) == 0


class TestAllocation(object):
    def test_allocate_occupies_slots(self, pool):
        pool.allocate("fn", 10, now=0.0, duration=1.0, keepalive=300.0)
        assert pool.occupied(now=0.0) == 10
        assert pool.free_slots(now=0.0) == 54

    def test_bucket_lifecycle_times(self, pool):
        bucket = pool.allocate("fn", 5, now=10.0, duration=2.0,
                               keepalive=300.0)
        assert bucket.busy_until == 12.0
        assert bucket.expire_at == 312.0

    def test_over_allocation_raises(self, pool):
        with pytest.raises(ConfigurationError):
            pool.allocate("fn", 65, now=0.0, duration=1.0, keepalive=300.0)

    def test_zero_allocation_raises(self, pool):
        with pytest.raises(ConfigurationError):
            pool.allocate("fn", 0, now=0.0, duration=1.0, keepalive=300.0)

    def test_slots_released_after_keepalive(self, pool):
        pool.allocate("fn", 10, now=0.0, duration=1.0, keepalive=300.0)
        assert pool.occupied(now=300.0) == 10
        assert pool.occupied(now=301.1) == 0

    def test_allocate_instance(self, pool):
        fi = pool.allocate_instance("fi-1", "host-1", "fn", now=0.0,
                                    duration=1.0, keepalive=300.0)
        assert fi.count == 1
        assert fi.instance_id == "fi-1"
        assert pool.occupied(now=0.0) == 1


class TestWarmReuse(object):
    def test_idle_warm_counts(self, pool):
        pool.allocate("fn", 8, now=0.0, duration=1.0, keepalive=300.0)
        assert pool.idle_warm("fn", now=0.5) == 0  # still busy
        assert pool.idle_warm("fn", now=2.0) == 8  # warm-idle

    def test_idle_warm_scoped_to_deployment(self, pool):
        pool.allocate("fn-a", 8, now=0.0, duration=1.0, keepalive=300.0)
        assert pool.idle_warm("fn-b", now=2.0) == 0

    def test_claim_warm_full_bucket(self, pool):
        pool.allocate("fn", 8, now=0.0, duration=1.0, keepalive=300.0)
        claimed = pool.claim_warm("fn", 8, now=2.0, duration=1.0,
                                  keepalive=300.0)
        assert claimed == 8
        assert pool.idle_warm("fn", now=2.5) == 0  # busy again

    def test_claim_warm_partial_bucket_splits(self, pool):
        pool.allocate("fn", 8, now=0.0, duration=1.0, keepalive=300.0)
        claimed = pool.claim_warm("fn", 3, now=2.0, duration=1.0,
                                  keepalive=300.0)
        assert claimed == 3
        assert pool.idle_warm("fn", now=2.0) == 5
        assert pool.occupied(now=2.0) == 8  # total unchanged

    def test_claim_refreshes_keepalive(self, pool):
        pool.allocate("fn", 4, now=0.0, duration=1.0, keepalive=300.0)
        pool.claim_warm("fn", 4, now=250.0, duration=1.0, keepalive=300.0)
        # Originally would expire at 301; the claim pushed it to 551.
        assert pool.occupied(now=400.0) == 4

    def test_claim_more_than_available(self, pool):
        pool.allocate("fn", 4, now=0.0, duration=1.0, keepalive=300.0)
        assert pool.claim_warm("fn", 10, now=2.0, duration=1.0,
                               keepalive=300.0) == 4

    def test_claim_expired_returns_zero(self, pool):
        pool.allocate("fn", 4, now=0.0, duration=1.0, keepalive=300.0)
        assert pool.claim_warm("fn", 4, now=302.0, duration=1.0,
                               keepalive=300.0) == 0


class TestResizing(object):
    def test_set_hosts_grows(self, pool):
        assert pool.set_hosts(8, now=0.0) == 8
        assert pool.capacity == 128

    def test_set_hosts_shrinks(self, pool):
        assert pool.set_hosts(1, now=0.0) == 1
        assert pool.capacity == 16

    def test_shrink_floored_at_occupancy(self, pool):
        pool.allocate("fn", 40, now=0.0, duration=1.0, keepalive=300.0)
        # 40 occupied slots need ceil(40/16) = 3 hosts.
        assert pool.set_hosts(0, now=0.0) == 3

    def test_negative_hosts_rejected(self, pool):
        with pytest.raises(ConfigurationError):
            pool.set_hosts(-1, now=0.0)

    def test_add_hosts(self, pool):
        pool.add_hosts(2)
        assert pool.hosts == 6
        with pytest.raises(ConfigurationError):
            pool.add_hosts(-1)

    def test_fractional_resizes_rejected(self, pool):
        with pytest.raises(ConfigurationError):
            pool.add_hosts(1.9)  # used to add 1
        with pytest.raises(ConfigurationError):
            pool.set_hosts(2.5, now=0.0)  # used to set 2
        with pytest.raises(ConfigurationError):
            pool.set_hosts(float("nan"), now=0.0)
        assert pool.hosts == 4

    def test_admit_new_trusts_the_callers_free_count(self, pool):
        bucket = pool.admit_new("fn", 16, now=0.0, duration=1.0,
                                keepalive=300.0)
        assert (bucket.count, bucket.busy_until, bucket.expire_at) == (
            16, 1.0, 301.0)
        assert pool.occupied(now=0.0) == 16
        assert pool.claim_warm("fn", 16, now=2.0, duration=1.0,
                               keepalive=300.0) == 16
