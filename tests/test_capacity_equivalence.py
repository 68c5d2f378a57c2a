"""Event-driven capacity accounting vs. the seed's sweep-everything spec.

The expiry-heap rewrite of :class:`~repro.cloudsim.host.HostPool` promises
that every *seeded placement outcome* is bit-identical to the naive
implementation it replaced.  This module keeps that promise executable:

* :class:`NaiveHostPool` re-implements the original algorithm — full bucket
  sweep on every capacity read, no cached counter, no warm index — behind
  the same interface, including the zone hot path's internal contract
  (``_heap`` / ``_occupied`` / ``_warm`` reads);
* the campaign tests drive two identically-seeded clouds, one stock and one
  with every pool swapped for the naive spec, through a 50-poll saturation
  campaign and a 400-invocation routing campaign (warm reuse, ``force_new``
  storms, holds) and require byte-identical transcripts — on AWS and on
  every scenario pack, so pinned floors, fixed leases and preemption are
  covered too;
* a hypothesis state machine interleaves allocations (plain, pinned and
  leased), warm claims, splits, resizes, and *external* bucket mutations
  (the background process shrinks counts and force-expires buckets, the
  zone's warm invoke path and retry holds move ``busy_until``) and checks
  that the O(1) cached occupancy never drifts from the ground-truth sweep,
  that both pools hold identical buckets, and that the warm index keeps
  exactly one entry per live bucket.
"""

import pytest
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)
from hypothesis import strategies as st

from repro import build_sky
from repro.cloudsim.background import BackgroundLoad
from repro.cloudsim.handlers import SleepHandler
from repro.cloudsim.host import HostPool
from repro.cloudsim.instance import FIBucket
from repro.cloudsim.packs import PACK_PROVIDERS
from repro.common.errors import ConfigurationError, SaturationError
from repro.common.units import MINUTES
from repro.engine.spec import CloudSpec
from tests.helpers import PACK_ZONES

_NEG_INF = float("-inf")


class _Buckets(list):
    """A deployment's buckets that is truthy even when empty."""

    def __bool__(self):
        return True


class _AlwaysWarm(object):
    """Stands in for the warm index: every deployment *might* have warm FIs.

    The seed consulted ``claim_warm`` unconditionally; returning a truthy
    value for every key makes the zone's warm-index fast-path guard a no-op
    so the naive pool sees the same call sequence the seed did.  The value
    still lists the deployment's buckets, which the zone's pinned-floor
    count reads.
    """

    def __init__(self, pool):
        self._pool = pool

    def get(self, key, default=None):
        return _Buckets(b for b in self._pool._buckets if b.deployment == key)


class NaiveHostPool(HostPool):
    """The seed's sweep-everything accounting, kept as an executable spec.

    Every capacity read re-derives occupancy from the full bucket list, the
    way the pre-heap implementation did.  The sentinel ``_heap`` entry makes
    the zone's ``heap[0][0] <= now`` expiry guards always fire, so
    ``_occupied`` is freshly recomputed before each direct read — the
    unconditional sweep the seed performed.
    """

    def __init__(self, cpu_key, hosts, slots_per_host, affinity=1.0):
        super(NaiveHostPool, self).__init__(cpu_key, hosts, slots_per_host,
                                            affinity)
        self._heap = [(_NEG_INF, 0, None)]
        self._warm = _AlwaysWarm(self)

    # -- the original algorithms -------------------------------------------
    def expire(self, now):
        live = []
        occupied = 0
        released = 0
        on_release = self.on_release
        for b in self._buckets:
            if b.is_expired(now):
                b._released = True
                released += b.count
                if on_release is not None:
                    on_release(b, now)
            else:
                live.append(b)
                occupied += b.count
        self._buckets = live
        self._occupied = occupied
        if released and self.bus.enabled:
            self.bus.emit("host.expire", now, zone=self.zone_id,
                          cpu=self.cpu_key, released=released)

    def allocate(self, deployment, count, now, duration, keepalive):
        if count <= 0:
            raise ConfigurationError("allocation count must be positive")
        if count > self.free_slots(now):
            raise ConfigurationError(
                "pool {} over-allocated: {} requested, {} free".format(
                    self.cpu_key, count, self.free_slots(now)))
        bucket = FIBucket(deployment, self.cpu_key, count,
                          busy_until=now + duration,
                          expire_at=now + duration + keepalive)
        self._admit(bucket)
        if self.bus.enabled:
            self.bus.emit("host.allocate", now, zone=self.zone_id,
                          cpu=self.cpu_key, count=count)
        return bucket

    def claim_warm(self, deployment, count, now, duration, keepalive):
        remaining = int(count)
        if remaining <= 0:
            return 0
        claimed = 0
        new_buckets = []
        for bucket in self._buckets:
            if (remaining > 0 and bucket.deployment == deployment
                    and bucket.is_idle(now)):
                take = min(bucket.count, remaining)
                if take == bucket.count:
                    if bucket._pinned:
                        # Pinned floors keep their horizon.
                        bucket.busy_until = now + duration
                    else:
                        bucket.touch(now, duration, keepalive)
                else:
                    bucket.count -= take
                    reused = FIBucket(deployment, self.cpu_key, take,
                                      busy_until=now + duration,
                                      expire_at=now + duration + keepalive)
                    if bucket._pinned:
                        reused._pinned = True
                        reused._expire_at = bucket._expire_at
                    elif bucket._lease_until is not None:
                        reused._lease_until = bucket._lease_until
                        reused._expire_at = min(reused._expire_at,
                                                bucket._lease_until)
                    new_buckets.append(reused)
                remaining -= take
                claimed += take
        self._buckets.extend(new_buckets)
        if claimed and self.bus.enabled:
            self.bus.emit("host.reuse", now, zone=self.zone_id,
                          cpu=self.cpu_key, count=claimed)
        return claimed

    def idle_warm(self, deployment, now):
        return sum(b.count for b in self._buckets
                   if b.deployment == deployment and b.is_idle(now))

    def _admit(self, bucket):
        # Plain records, like the seed: no accounting hooks, no heap entry.
        # ``_occupied`` is advanced so direct reads between sweeps stay
        # honest; every sweep recomputes it from scratch anyway.
        bucket._pool = None
        self._buckets.append(bucket)
        self._occupied += bucket.count


def naivify(cloud):
    """Swap every pool in ``cloud`` for its :class:`NaiveHostPool` twin."""
    for region in cloud.regions.values():
        for zone in region.zones.values():
            for key, pool in list(zone.pools.items()):
                twin = NaiveHostPool(pool.cpu_key, pool.hosts,
                                     pool.slots_per_host, pool.affinity)
                twin.on_release = zone._bucket_released
                twin.bus = pool.bus
                twin.zone_id = pool.zone_id
                zone.pools[key] = twin
            zone._pool_order = None
    return cloud


# ---------------------------------------------------------------------------
# Seeded campaign equivalence
# ---------------------------------------------------------------------------

def _saturation_and_routing_transcript(cloud, provider="aws",
                                       zone_id="eu-central-1a",
                                       memory_mb=2048):
    """Drive the digest campaign: 50 saturating polls, then a routed
    invocation storm with warm reuse, force_new retries, and holds."""
    account = cloud.create_account("equiv", provider)
    endpoints = [
        cloud.deploy(account, zone_id, "ep-{}".format(i), memory_mb,
                     handler=SleepHandler(15.0))
        for i in range(50)
    ]
    lines = []
    for i, endpoint in enumerate(endpoints):
        result, bill = cloud.poll(endpoint, 1000)
        lines.append("poll {} {} {} {} {!r} {!r} {!r} {:.6f} {}".format(
            i, result.served, result.failed, result.unique_fis,
            sorted(result.new_fi_counts.items()),
            sorted(result.reused_fi_counts.items()),
            sorted(result.request_cpu_counts.items()),
            result.timestamp, bill.total))
        cloud.clock.advance(2.5)

    service = cloud.deploy(account, zone_id, "svc", memory_mb,
                           handler=SleepHandler(0.4))
    for i in range(400):
        try:
            inv = cloud.invoke(service, force_new=(i % 7 == 3))
        except SaturationError:
            lines.append("invoke {} SATURATED".format(i))
            cloud.clock.advance(30.0)
            continue
        lines.append("invoke {} {} {} {} {:.9f} {:.9f} {}".format(
            i, inv.cpu_key, inv.instance_id, inv.reused, inv.runtime_s,
            inv.latency_s, inv.bill.total))
        if i % 11 == 5:
            cloud.hold(service, inv, 3.0)
        cloud.clock.advance(1.7 if i % 5 else 80.0)
    return lines


def _drift_and_background_transcript(cloud):
    """Multi-hour polls across two zones with drift rebalances and
    background-tenant churn (external count/expiry mutation)."""
    account = cloud.create_account("equiv2", "aws")
    zone_ids = ["us-west-1a", "eu-central-1a"]
    for zone_id in zone_ids:
        cloud.zone(zone_id).attach_background(BackgroundLoad(zone_id,
                                                             seed=13))
    endpoints = {
        zone_id: [cloud.deploy(account, zone_id,
                               "ep-{}-{}".format(zone_id, i), 2048,
                               handler=SleepHandler(10.0))
                  for i in range(12)]
        for zone_id in zone_ids
    }
    lines = []
    for round_i in range(40):
        for zone_id in zone_ids:
            endpoint = endpoints[zone_id][round_i % 12]
            result, bill = cloud.poll(endpoint, 800)
            lines.append("{} {} {} {} {} {!r} {!r} {:.6f} {}".format(
                zone_id, round_i, result.served, result.failed,
                result.unique_fis, sorted(result.new_fi_counts.items()),
                sorted(result.request_cpu_counts.items()),
                result.timestamp, bill.total))
        cloud.clock.advance(7 * MINUTES if round_i % 3 else 31 * MINUTES)
    for zone_id in zone_ids:
        zone = cloud.zone(zone_id)
        lines.append("final {} occ={} free={} cap={}".format(
            zone_id, zone.occupied(), zone.free_slots(), zone.capacity))
    return lines


@pytest.mark.parametrize("seed,campaign", [
    (191, _saturation_and_routing_transcript),
    (77, _drift_and_background_transcript),
], ids=["saturation-routing", "drift-background"])
def test_seeded_campaign_matches_naive_spec(seed, campaign):
    stock = campaign(build_sky(seed=seed, aws_only=True))
    naive = campaign(naivify(build_sky(seed=seed, aws_only=True)))
    assert stock == naive


@pytest.mark.parametrize("pack", sorted(PACK_PROVIDERS))
def test_pack_campaign_matches_naive_spec(pack):
    """The same campaign on each pack's own keep-alive, quota, cold-start
    and preemption semantics (pinned floors, leases, reclaimed capacity)."""
    zone_id = PACK_ZONES[pack]

    def transcript(cloud):
        return _saturation_and_routing_transcript(
            cloud, provider=pack, zone_id=zone_id, memory_mb=1024)

    spec = CloudSpec.for_zones([zone_id], seed=191)
    stock = transcript(spec.build())
    naive = transcript(naivify(spec.build()))
    assert stock == naive
    assert any(" True " in line for line in stock)  # warm reuse happened


def test_warm_index_never_outlives_compaction():
    """Retention: after ``expire``'s global compaction neither warm-index
    heap references a released bucket, and a deployment with no live
    bucket left has no index at all."""
    pool = HostPool("cpu-x", hosts=8, slots_per_host=16)
    for _ in range(20):
        pool.allocate("fn-short", 1, 0.0, duration=1.0, keepalive=5.0)
    for _ in range(3):
        pool.allocate("fn-long", 2, 0.0, duration=1.0, keepalive=1e6)
        pool.allocate("fn-long", 1, 0.0, duration=1.0, keepalive=5.0)
    pool.allocate("fn-gone", 1, 0.0, duration=1.0, keepalive=5.0)
    # Build every deployment's index while its buckets are still live.
    for dep, keepalive in (("fn-short", 5.0), ("fn-long", 1e6),
                           ("fn-gone", 5.0)):
        assert pool.claim_warm(dep, 1, 2.5, 0.5, keepalive) == 1
    assert set(pool._index) == {"fn-short", "fn-long", "fn-gone"}
    pool.expire(1000.0)  # everything short-lived lapses: compaction
    assert pool._dead == 0
    assert set(pool._index) == {"fn-long"}
    busy, idle = pool._index["fn-long"]
    indexed = [entry[-1] for entry in busy + idle]
    assert not any(bucket._released for bucket in indexed)
    assert sorted(map(id, indexed)) == sorted(
        id(b) for b in pool._buckets if b.deployment == "fn-long")
    assert pool.claim_warm("fn-long", 6, 1000.0, 1.0, 5.0) == 6


def test_short_hold_rebuilds_the_warm_index():
    """A hold shorter than the remaining run moves ``busy_until`` earlier;
    the next claim must still find the FI idle as soon as the hold ends."""
    stock = HostPool("cpu-x", hosts=2, slots_per_host=8)
    naive = NaiveHostPool("cpu-x", hosts=2, slots_per_host=8)
    for pool in (stock, naive):
        bucket = pool.allocate("fn", 1, 0.0, duration=50.0, keepalive=300.0)
        assert pool.claim_warm("fn", 1, 1.0, 1.0, 300.0) == 0
        bucket.touch(2.0, 0.5, 300.0)  # retry hold: busy until 2.5, not 50
        assert pool.claim_warm("fn", 1, 3.0, 1.0, 300.0) == 1


def test_fi_index_stays_bounded_under_force_new_storm():
    """Regression: force_new retry storms never rebuild the warm lookup
    list, so the per-deployment FI index used to grow without bound.  The
    expiry-heap release callback now prunes it."""
    cloud = build_sky(seed=23, aws_only=True)
    account = cloud.create_account("storm", "aws")
    service = cloud.deploy(account, "eu-central-1a", "storm-svc", 512,
                           handler=SleepHandler(0.2))
    zone = cloud.zone("eu-central-1a")
    created = 0
    peak = 0
    for i in range(300):
        try:
            cloud.invoke(service, force_new=True)
            created += 1
        except SaturationError:
            pass
        # Advance past the keep-alive every few requests so earlier FIs
        # expire while the storm continues.
        cloud.clock.advance(2.0 if i % 10 else 400.0)
        if zone._fi_index:
            peak = max(peak, max(len(v) for v in zone._fi_index.values()))
    assert created >= 250
    # Compaction keeps the index proportional to the live population (tens),
    # not the request history (hundreds).
    assert peak < created / 2


# ---------------------------------------------------------------------------
# Property: cached occupancy == ground-truth sweep, under any interleaving
# ---------------------------------------------------------------------------

DEPLOYMENTS = ("fn-a", "fn-b", "fn-c")


class PoolPairMachine(RuleBasedStateMachine):
    """Drive a stock pool and its naive twin through the same operations.

    After every step both pools must agree on occupancy, free slots, and
    per-deployment warm capacity — and the stock pool's O(1) cached counter
    must equal a from-scratch sweep of its own live buckets.
    """

    @initialize()
    def setup(self):
        self.now = 0.0
        self.stock = HostPool("cpu-x", hosts=4, slots_per_host=16)
        self.naive = NaiveHostPool("cpu-x", hosts=4, slots_per_host=16)
        self.pairs = []  # (stock_bucket, naive_bucket) from allocate()

    # -- operations --------------------------------------------------------
    @rule(dep=st.sampled_from(DEPLOYMENTS),
          want=st.integers(min_value=1, max_value=24),
          duration=st.floats(min_value=0.1, max_value=10.0),
          keepalive=st.floats(min_value=1.0, max_value=120.0),
          policy=st.sampled_from(("sliding", "sliding", "pinned",
                                  "leased")),
          lease=st.floats(min_value=0.5, max_value=150.0))
    def allocate(self, dep, want, duration, keepalive, policy, lease):
        free = self.stock.free_slots(self.now)
        assert free == self.naive.free_slots(self.now)
        count = min(want, free)
        if count <= 0:
            return
        a = self.stock.allocate(dep, count, self.now, duration, keepalive)
        b = self.naive.allocate(dep, count, self.now, duration, keepalive)
        for bucket in (a, b):
            # What the zone's keep-alive policy hook does to a new bucket.
            if policy == "pinned":
                bucket._pinned = True
                bucket.expire_at = float("inf")  # extension: lazy re-key
            elif policy == "leased":
                bucket._lease_until = self.now + lease
                if bucket.expire_at > bucket._lease_until:
                    bucket.expire_at = bucket._lease_until  # eager re-key
        self.pairs.append((a, b))

    @rule(dep=st.sampled_from(DEPLOYMENTS),
          first=st.integers(min_value=1, max_value=12),
          second=st.integers(min_value=1, max_value=12),
          duration=st.floats(min_value=0.1, max_value=10.0),
          keepalive=st.floats(min_value=1.0, max_value=120.0))
    def claim_twice(self, dep, first, second, duration, keepalive):
        # A second claim at the same ``now`` right after a (likely) split:
        # the parent's idle remainder must be found again.
        for want in (first, second):
            got_stock = self.stock.claim_warm(dep, want, self.now, duration,
                                              keepalive)
            got_naive = self.naive.claim_warm(dep, want, self.now, duration,
                                              keepalive)
            assert got_stock == got_naive

    @precondition(lambda self: self.pairs)
    @rule(pick=st.integers(min_value=0, max_value=10 ** 6),
          duration=st.floats(min_value=0.1, max_value=30.0),
          keepalive=st.floats(min_value=1.0, max_value=120.0))
    def warm_invoke(self, pick, duration, keepalive):
        # The zone's per-request warm path serves an idle FI from outside
        # the pool: busy_until moves later.
        a, b = self.pairs[pick % len(self.pairs)]
        if a._released or not a.is_idle(self.now):
            return
        for bucket in (a, b):
            if bucket._pinned:
                bucket.busy_until = self.now + duration
            else:
                bucket.touch(self.now, duration, keepalive)

    @precondition(lambda self: self.pairs)
    @rule(pick=st.integers(min_value=0, max_value=10 ** 6),
          hold=st.floats(min_value=0.05, max_value=30.0))
    def hold(self, pick, hold):
        # A retry hold on a live FI, busy or not: a hold shorter than the
        # remaining run moves busy_until earlier.
        a, b = self.pairs[pick % len(self.pairs)]
        if a._released or a.is_expired(self.now):
            return
        a.touch(self.now, hold, 60.0)
        b.touch(self.now, hold, 60.0)

    @rule(dep=st.sampled_from(DEPLOYMENTS),
          want=st.integers(min_value=1, max_value=32),
          duration=st.floats(min_value=0.1, max_value=10.0),
          keepalive=st.floats(min_value=1.0, max_value=120.0))
    def claim_warm(self, dep, want, duration, keepalive):
        got_stock = self.stock.claim_warm(dep, want, self.now, duration,
                                          keepalive)
        got_naive = self.naive.claim_warm(dep, want, self.now, duration,
                                          keepalive)
        assert got_stock == got_naive

    @rule(dt=st.floats(min_value=0.0, max_value=200.0))
    def advance(self, dt):
        self.now += dt

    @rule(hosts=st.integers(min_value=0, max_value=8))
    def set_hosts(self, hosts):
        applied_stock = self.stock.set_hosts(hosts, self.now)
        applied_naive = self.naive.set_hosts(hosts, self.now)
        assert applied_stock == applied_naive

    @precondition(lambda self: self.pairs)
    @rule(pick=st.integers(min_value=0, max_value=10 ** 6),
          shrink=st.integers(min_value=1, max_value=8))
    def shrink_count(self, pick, shrink):
        # The background process re-targets held buckets by mutating
        # ``count`` directly; the stock pool must absorb the delta through
        # the property hook.
        a, b = self.pairs[pick % len(self.pairs)]
        take = min(shrink, a.count - 1)
        if a._released or take <= 0:
            return
        a.count -= take
        b.count -= take

    @precondition(lambda self: self.pairs)
    @rule(pick=st.integers(min_value=0, max_value=10 ** 6),
          offset=st.floats(min_value=-50.0, max_value=200.0))
    def move_expiry(self, pick, offset):
        # Force-expire (offset <= 0: the background release path) or extend
        # (the keep-alive refresh path) a bucket out from under the pool;
        # the stock pool must lazily or eagerly re-key its heap entry.
        a, b = self.pairs[pick % len(self.pairs)]
        a.expire_at = self.now + offset
        b.expire_at = self.now + offset

    # -- invariants --------------------------------------------------------
    @invariant()
    def occupancy_agrees(self):
        if not hasattr(self, "stock"):
            return
        assert self.stock.occupied(self.now) == self.naive.occupied(self.now)
        assert (self.stock.free_slots(self.now)
                == self.naive.free_slots(self.now))

    @invariant()
    def cached_counter_is_exact(self):
        if not hasattr(self, "stock"):
            return
        self.stock.expire(self.now)
        ground_truth = sum(bucket.count for bucket in self.stock._buckets
                           if not bucket._released)
        assert self.stock._occupied == ground_truth

    @invariant()
    def buckets_agree(self):
        # The same buckets, in the same order, with the same lifecycle:
        # both pools claimed exactly the same FIs.
        if not hasattr(self, "stock"):
            return
        self.stock.expire(self.now)
        self.naive.expire(self.now)

        def states(buckets):
            return [(b.deployment, b.count, b.busy_until, b.expire_at,
                     b._pinned, b._lease_until)
                    for b in buckets if not b._released]
        assert states(self.stock._buckets) == states(self.naive._buckets)

    @invariant()
    def warm_index_has_one_entry_per_live_bucket(self):
        if not hasattr(self, "stock"):
            return
        for dep, (busy, idle) in self.stock._index.items():
            indexed = [entry[-1] for entry in busy + idle
                       if not entry[-1]._released]
            live = [b for b in self.stock._buckets
                    if b.deployment == dep and not b._released]
            assert sorted(map(id, indexed)) == sorted(map(id, live))

    @invariant()
    def warm_index_agrees(self):
        if not hasattr(self, "stock"):
            return
        for dep in DEPLOYMENTS:
            assert (self.stock.idle_warm(dep, self.now)
                    == self.naive.idle_warm(dep, self.now))


PoolPairMachine.TestCase.settings = settings(
    max_examples=80, stateful_step_count=50, deadline=None)
TestPoolPairMachine = PoolPairMachine.TestCase
