"""Event-driven capacity accounting vs. the seed's sweep-everything spec.

The expiry-heap rewrite of :class:`~repro.cloudsim.host.HostPool` and the
fused zone placement pass of :class:`~repro.cloudsim.az.AvailabilityZone`
promise that every *seeded placement outcome* is bit-identical to the naive
implementations they replaced.  This module keeps that promise executable:

* :class:`NaiveHostPool` re-implements the original algorithm — full bucket
  sweep on every capacity read, no cached counter, no warm index — behind
  the same interface, including the zone's internal contract
  (``_heap`` / ``_occupied`` / ``_warm`` reads);
* :class:`NaiveZone` replays the per-pool call sequence the zone made
  before its placement pass was fused: an expiry sweep, a warm-claim walk,
  a re-probing free-slot walk, a checked ``allocate`` per pool, the
  general largest-remainder apportionment, and a rebalance that rebuilds
  the base CPU mix eagerly;
* the campaign tests drive two identically-seeded clouds, one stock and one
  with every zone and pool swapped for the naive specs, through a 50-poll
  saturation campaign and a 400-invocation routing campaign (warm reuse,
  ``force_new`` storms, holds) and require byte-identical transcripts — on
  AWS and on every scenario pack, so pinned floors, fixed leases and
  preemption are covered too — and, with an event bus attached,
  byte-identical event transcripts (expiry, scaling, reuse, allocation and
  placement events in the same order), also under fault presets;
* a zone-level hypothesis machine interleaves batch placements, single
  invocations, holds, rebalances (new and vanished CPU models), surge
  scaling and capacity collapses on a stock zone and its naive twin under
  each keep-alive policy, and requires equal results, buckets and events;
  property tests hold the split and the apportionment to the naive ones on
  their own, ties and clamps included;
* a pool-level hypothesis state machine interleaves allocations (plain,
  pinned and leased), warm claims, splits, resizes, and *external* bucket
  mutations (the background process shrinks counts and force-expires
  buckets, the zone's warm invoke path and retry holds move
  ``busy_until``) and checks that the O(1) cached occupancy never drifts
  from the ground-truth sweep, that both pools hold identical buckets,
  and that the warm index keeps exactly one entry per live bucket.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)
from hypothesis import strategies as st

from repro import build_sky
from repro.cloudsim.adapters import (
    ContainerReuseKeepAlive,
    FixedLeaseKeepAlive,
    SlidingWindowKeepAlive,
)
from repro.cloudsim.az import (
    AvailabilityZone,
    PlacementResult,
    ScalingPolicy,
    _apportion,
)
from repro.cloudsim.background import BackgroundLoad
from repro.cloudsim.handlers import SleepHandler
from repro.cloudsim.host import HostPool
from repro.cloudsim.instance import FIBucket
from repro.cloudsim.packs import PACK_PROVIDERS
from repro.common.errors import (
    ConfigurationError,
    ReproError,
    SaturationError,
)
from repro.common.units import MINUTES
from repro.engine.spec import CloudSpec
from repro.faults import FaultInjector, build_preset
from repro.obs.hooks import NULL_BUS, EventBus
from repro.simclock import SimClock
from tests.helpers import PACK_ZONES, sleep_poll

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

    def admit_new(self, deployment, count, now, duration, keepalive):
        # The seed had no unchecked entry point: every admission checked.
        return self.allocate(deployment, count, now, duration, keepalive)

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


def naive_apportion(total, weights):
    """Largest-remainder apportionment with no shortcut: the spec for
    :func:`~repro.cloudsim.az._apportion`."""
    if total <= 0 or not weights:
        return {}
    weight_sum = float(sum(weights.values()))
    if weight_sum <= 0:
        return {}
    keys = sorted(weights)
    result = {}
    remainders = []
    granted = 0
    for k in keys:
        raw = total * weights[k] / weight_sum
        floored = int(raw)
        result[k] = floored
        remainders.append(raw - floored)
        granted += floored
    shortfall = total - granted
    if shortfall:
        order = sorted(range(len(keys)), key=remainders.__getitem__,
                       reverse=True)
        for i in order[:shortfall]:
            result[keys[i]] += 1
    return {k: n for k, n in result.items() if n > 0}


class NaiveZone(AvailabilityZone):
    """The zone's pre-fusion placement, kept as an executable spec.

    Every method below is the per-pool call sequence the zone made before
    its placement pass was fused: the scaling sweep calls ``expire`` per
    pool in dict order, warm claims walk the pools once, new placement
    walks them again (re-probing expiry) and ``allocate`` — which probes
    and checks once more — admits each pool's share; the apportionment is
    always the general largest-remainder one, and a rebalance rebuilds the
    base CPU mix as a distribution.  Built from a stock zone with
    :meth:`adopt`, over :class:`NaiveHostPool` pools.
    """

    @classmethod
    def adopt(cls, zone):
        zone.__class__ = cls
        zone._base_shares = zone.cpu_slot_shares()
        return zone

    def invoke_batch(self, deployment, n_requests, duration, window,
                     now=None, force_new=False):
        now = self._now(now)
        if n_requests <= 0:
            raise ConfigurationError("n_requests must be positive")
        if duration <= 0:
            raise ConfigurationError("duration must be positive")
        self._apply_processes(now)
        self._expire_and_scale(now)

        if window <= 0:
            unique_needed = n_requests
        else:
            unique_needed = max(
                1, int(math.ceil(n_requests * min(1.0, duration / window))))
        requests_per_fi = n_requests / float(unique_needed)

        reused_counts = {}
        remaining = unique_needed
        if not force_new:
            for pool in self._pools_by_affinity():
                if remaining <= 0:
                    break
                if not pool._warm.get(deployment):
                    continue
                claimed = pool.claim_warm(deployment, remaining, now,
                                          duration, self.keepalive)
                if claimed:
                    reused_counts[pool.cpu_key] = claimed
                    remaining -= claimed

        new_counts = self._place_new_fis(deployment, remaining, now, duration)
        new_total = sum(new_counts.values())
        reused_total = sum(reused_counts.values()) if reused_counts else 0
        got_fis = reused_total + new_total
        served = min(n_requests, int(round(got_fis * requests_per_fi)))
        failed = n_requests - served

        if reused_counts:
            fi_cpu_counts = dict(reused_counts)
            for key, count in new_counts.items():
                fi_cpu_counts[key] = fi_cpu_counts.get(key, 0) + count
        else:
            fi_cpu_counts = new_counts
        request_cpu_counts = naive_apportion(served, fi_cpu_counts)

        bus = self._bus
        if bus.enabled:
            bus.emit("az.placement", now, zone=self.zone_id,
                     requested=n_requests, served=served, failed=failed,
                     unique_fis=got_fis,
                     new_fis=new_total,
                     reused_fis=reused_total,
                     occupancy=self.occupancy(now))
            if failed > 0:
                bus.emit("az.saturation", now, zone=self.zone_id,
                         failed=failed,
                         failure_rate=failed / float(n_requests),
                         kind="batch")

        return PlacementResult(self.zone_id, n_requests, served, failed,
                               got_fis, new_counts, reused_counts,
                               request_cpu_counts, duration, now)

    def invoke_one(self, deployment, duration_fn, now=None, force_new=False):
        now = self._now(now)
        self._apply_processes(now)
        self._expire_and_scale(now)

        if not force_new:
            warm = self._find_warm_instance(deployment, now)
            if warm is not None:
                if warm._pinned:
                    warm.busy_until = now + duration_fn(warm.cpu_key)
                    warm.invocations += 1
                else:
                    warm.touch(now, duration_fn(warm.cpu_key),
                               self.keepalive)
                return warm, True

        new_counts = self._place_new_fis(deployment, 1, now, duration=0.0,
                                         materialize=False)
        if not new_counts:
            bus = self._bus
            if bus.enabled:
                bus.emit("az.saturation", now, zone=self.zone_id,
                         failed=1, failure_rate=1.0, kind="invoke")
            raise SaturationError(
                "zone {} has no free capacity".format(self.zone_id))
        (cpu_key,) = new_counts
        duration = duration_fn(cpu_key)
        pool = self.pools[cpu_key]
        host_index = int(self.rng.integers(0, max(1, pool.hosts)))
        host_id = "host-{}-{}-{:04d}".format(self.zone_id, cpu_key,
                                             host_index)
        fi = pool.allocate_instance(self._new_instance_id(), host_id,
                                    deployment, now, duration, self.keepalive)
        fi.invocations = 1
        if self._ka_dynamic:
            self._apply_keepalive_policy(fi, pool, deployment, now)
        index = self._fi_index.get(deployment)
        if index is None:
            self._fi_index[deployment] = [fi]
        else:
            index.append(fi)
        self._fi_by_id[fi.instance_id] = fi
        return fi, False

    def rebalance(self, target_shares, now=None, total_hosts=None):
        now = self._now(now)
        pools = list(self.pools.values())
        slots_per_host = pools[0].slots_per_host if pools else 64
        if total_hosts is None:
            total_hosts = sum(p.hosts for p in self.pools.values())
        for cpu_key, share in target_shares.items():
            hosts = int(round(total_hosts * share))
            if cpu_key not in self.pools:
                if hosts > 0:
                    pool = NaiveHostPool(cpu_key, hosts, slots_per_host,
                                         affinity=0.4)
                    pool.on_release = self._bucket_released
                    if self._bus is not NULL_BUS:
                        pool.attach_bus(self._bus, self.zone_id)
                    self.pools[cpu_key] = pool
                    self._pool_order = None
            else:
                self.pools[cpu_key].set_hosts(hosts, now)
        for cpu_key in list(self.pools):
            if cpu_key not in target_shares:
                self.pools[cpu_key].set_hosts(0, now)
        self._base_shares = self.cpu_slot_shares()
        self._surge_slots_added = 0

    def _expire_and_scale(self, now):
        occupied = 0
        capacity = 0
        for pool in self.pools.values():
            heap = pool._heap
            if heap and heap[0][0] <= now:
                pool.expire(now)
            occupied += pool._occupied
            capacity += pool.hosts * pool.slots_per_host
        elapsed = now - self._last_scale_check
        if elapsed <= 0:
            return
        self._last_scale_check = now
        occupancy = 1.0 if capacity == 0 else occupied / float(capacity)
        if occupancy < self.scaling.pressure_threshold:
            return
        budget = self.scaling.max_surge_slots - self._surge_slots_added
        if budget <= 0:
            return
        add = min(budget,
                  int(self.scaling.slots_per_minute * elapsed / MINUTES))
        if add <= 0:
            return
        self._surge_slots_added += add
        for cpu_key in self._base_shares.categories:
            pool = self.pools.get(cpu_key)
            if pool is None:
                continue
            extra_hosts = int(round(
                add * self._base_shares.share(cpu_key) / pool.slots_per_host))
            pool.add_hosts(max(0, extra_hosts))
        bus = self._bus
        if bus.enabled:
            bus.emit("az.scale", now, zone=self.zone_id, slots_added=add,
                     surge_total=self._surge_slots_added,
                     occupancy=self.occupancy(now))

    def _place_new_fis(self, deployment, count, now, duration,
                       materialize=True):
        counts = {}
        if count <= 0:
            return counts
        pools = []
        free = []
        weights = []
        sph = []
        for p in self._pools_by_affinity():
            if p.hosts <= 0:
                continue
            heap = p._heap
            if heap and heap[0][0] <= now:
                p.expire(now)
            f = p.hosts * p.slots_per_host - p._occupied
            if f < 0:
                f = 0
            pools.append(p)
            free.append(f)
            weights.append(f * p.affinity)
            sph.append(p.slots_per_host)
        if self._faults.enabled:
            factor = self._faults.capacity_factor(self.zone_id, now)
            if factor < 1.0:
                free = [int(f * factor) for f in free]
                weights = [f * p.affinity for f, p in zip(free, pools)]
        total_free = sum(free)
        if total_free <= 0:
            return counts
        take = min(count, total_free)
        split = self._noisy_split(take, free, weights, sph)
        for pool, allocated in zip(pools, split):
            if allocated <= 0:
                continue
            if materialize:
                bucket = pool.allocate(deployment, allocated, now, duration,
                                       self.keepalive)
                if self._ka_dynamic:
                    self._apply_keepalive_policy(bucket, pool, deployment,
                                                 now)
            counts[pool.cpu_key] = allocated
        return counts

    def _noisy_split(self, take, free, weights, slots_per_host):
        if len(free) == 1:
            return [min(take, free[0])]
        total_weight = float(sum(weights))
        if total_weight <= 0:
            return [0] * len(free)
        probs = [w / total_weight for w in weights]
        mean_sph = sum(slots_per_host) / float(len(slots_per_host))
        granule = max(1.0, mean_sph * self.HOST_FILL_FRACTION)
        host_draws = max(1, int(round(take / granule)))
        host_counts = self.rng.multinomial(host_draws, probs).tolist()
        draws = float(host_draws)
        split = []
        deficit = take
        for h, f in zip(host_counts, free):
            s = int(round(take * (h / draws)))
            if s > f:
                s = f
            split.append(s)
            deficit -= s
        if deficit > 0:
            headroom = [s - f for s, f in zip(split, free)]
            order = sorted(range(len(free)), key=headroom.__getitem__)
            idx = 0
            while deficit > 0 and idx < len(order):
                i = order[idx]
                room = free[i] - split[i]
                grant = min(room, deficit)
                split[i] += grant
                deficit -= grant
                idx += 1
        while deficit < 0:
            i = max(range(len(split)), key=split.__getitem__)
            split[i] -= 1
            deficit += 1
        return split


def naive_pool(pool, zone):
    """``pool``'s :class:`NaiveHostPool` twin, wired into ``zone``."""
    twin = NaiveHostPool(pool.cpu_key, pool.hosts, pool.slots_per_host,
                         pool.affinity)
    twin.on_release = zone._bucket_released
    twin.bus = pool.bus
    twin.zone_id = pool.zone_id
    return twin


def naivify(cloud):
    """Swap every zone in ``cloud`` for a :class:`NaiveZone` and every pool
    for its :class:`NaiveHostPool` twin."""
    for region in cloud.regions.values():
        for zone in region.zones.values():
            for key, pool in list(zone.pools.items()):
                zone.pools[key] = naive_pool(pool, zone)
            zone._pool_order = None
            NaiveZone.adopt(zone)
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
        result, bill = sleep_poll(cloud, endpoint, 1000)
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
            result, bill = sleep_poll(cloud, endpoint, 800)
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


def _observed(campaign, cloud, *args, **kwargs):
    """Run ``campaign`` on ``cloud`` with an event bus attached; returns
    ``(transcript lines, event transcript)``."""
    bus = EventBus()
    events = []
    bus.subscribe(lambda event: events.append(
        (event.name, event.timestamp, sorted(event.fields.items()))))
    cloud.attach_bus(bus)
    return campaign(cloud, *args, **kwargs), events


def _names(events):
    return {event[0] for event in events}


@pytest.mark.parametrize("seed,campaign", [
    (191, _saturation_and_routing_transcript),
    (77, _drift_and_background_transcript),
], ids=["saturation-routing", "drift-background"])
def test_event_transcript_matches_naive_spec(seed, campaign):
    """With the bus on, the fused pass emits the naive zone's events in
    the naive zone's order: expiry (drift's rebalance expiry first), then
    scaling, then reuse and allocation in affinity order, then placement
    and saturation."""
    stock = _observed(campaign, build_sky(seed=seed, aws_only=True))
    naive = _observed(campaign, naivify(build_sky(seed=seed, aws_only=True)))
    assert stock == naive
    names = _names(stock[1])
    assert {"host.expire", "host.allocate", "az.placement"} <= names
    if campaign is _saturation_and_routing_transcript:
        assert {"az.scale", "az.saturation"} <= names


@pytest.mark.parametrize("pack", sorted(PACK_PROVIDERS))
def test_pack_event_transcript_matches_naive_spec(pack):
    zone_id = PACK_ZONES[pack]
    spec = CloudSpec.for_zones([zone_id], seed=191)
    kwargs = dict(provider=pack, zone_id=zone_id, memory_mb=1024)
    stock = _observed(_saturation_and_routing_transcript, spec.build(),
                      **kwargs)
    naive = _observed(_saturation_and_routing_transcript,
                      naivify(spec.build()), **kwargs)
    assert stock == naive
    assert "az.placement" in _names(stock[1])


def _faulted_transcript(cloud, preset):
    """Polls and routed invocations through a fault preset's window:
    capacity collapses, forced cold starts and injected failures."""
    zone_id = "us-west-1a"
    FaultInjector(build_preset(preset, [zone_id], start=30.0,
                               duration=150.0), seed=5).install(cloud)
    account = cloud.create_account("chaos", "aws")
    endpoints = [cloud.deploy(account, zone_id, "ep-{}".format(i), 2048,
                              handler=SleepHandler(15.0))
                 for i in range(40)]
    service = cloud.deploy(account, zone_id, "svc", 2048,
                           handler=SleepHandler(0.4))
    lines = []
    for i in range(60):
        try:
            result, bill = sleep_poll(cloud, endpoints[i % 40], 1000)
            lines.append("poll {} {} {} {!r} {!r} {}".format(
                i, result.served, result.unique_fis,
                list(result.new_fi_counts.items()),
                list(result.reused_fi_counts.items()), bill.total))
        except ReproError as error:
            lines.append("poll {} {}".format(i, type(error).__name__))
        try:
            inv = cloud.invoke(service, force_new=(i % 5 == 2))
            lines.append("invoke {} {} {} {}".format(
                i, inv.cpu_key, inv.instance_id, inv.reused))
        except ReproError as error:
            lines.append("invoke {} {}".format(i, type(error).__name__))
        cloud.clock.advance(4.0)
    return lines


@pytest.mark.parametrize("preset", ["brownout", "coldstorm", "chaos"])
def test_faulted_campaign_matches_naive_spec(preset):
    stock = _observed(_faulted_transcript,
                      build_sky(seed=29, aws_only=True), preset)
    naive = _observed(_faulted_transcript,
                      naivify(build_sky(seed=29, aws_only=True)), preset)
    assert stock == naive
    assert "host.reuse" in _names(stock[1])  # batch warm claims happened


@given(pools=st.lists(
           st.tuples(st.integers(min_value=0, max_value=60),
                     st.sampled_from((0.4, 0.7, 1.0)),
                     st.sampled_from((1, 4, 16, 64))),
           min_size=2, max_size=5),
       share=st.floats(min_value=0.0, max_value=1.0),
       seed=st.integers(min_value=0, max_value=2 ** 16))
@settings(max_examples=300, deadline=None)
def test_noisy_split_matches_naive_spec(pools, share, seed):
    """The split on its own, clamped and unclamped, ties included: the
    same slots per pool and the same draw as the naive zone's."""
    free = [f for f, _, _ in pools]
    if not sum(free):
        return
    take = max(1, int(round(share * sum(free))))
    weights = [f * affinity for f, affinity, _ in pools]
    slots = [sph for _, _, sph in pools]
    stock, _ = _pair_zone("sliding", naive=False)
    naive, _ = _pair_zone("sliding", naive=True)
    stock.rng = np.random.default_rng(seed)
    naive.rng = np.random.default_rng(seed)
    assert (stock._noisy_split(take, free, weights,
                               sum(slots) / float(len(slots)))
            == naive._noisy_split(take, free, weights, slots))
    assert stock.rng.random() == naive.rng.random()


@given(weights=st.dictionaries(
           st.sampled_from(("amd-epyc", "xeon-2.5", "xeon-2.9", "xeon-3.0")),
           st.integers(min_value=0, max_value=400), max_size=4),
       extra=st.integers(min_value=-50, max_value=50))
@settings(max_examples=300, deadline=None)
def test_apportion_matches_naive_spec(weights, extra):
    """Every total, including the one-request-per-FI total that equals
    the weight sum: the same counts in the same key order."""
    for total in (sum(weights.values()), sum(weights.values()) + extra):
        assert (list(_apportion(total, weights).items())
                == list(naive_apportion(total, weights).items()))


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


# ---------------------------------------------------------------------------
# Property: the fused zone pass == the naive per-pool zone, step by step
# ---------------------------------------------------------------------------

KEEPALIVE_POLICIES = {
    "sliding": None,
    "lease": FixedLeaseKeepAlive(idle_ttl=60.0, lease_s=150.0),
    "pinned": ContainerReuseKeepAlive(idle_ttl=60.0, min_instances=3),
}
CPU_MODELS = ("xeon-2.5", "xeon-3.0", "amd-epyc", "graviton-x")


class _Collapse(object):
    """A fault-injector stand-in: the capacity factor a rule sets."""

    enabled = True

    def __init__(self):
        self.factor = 1.0

    def capacity_factor(self, zone_id, now):
        return self.factor


def _pair_zone(policy, naive):
    clock = SimClock()
    pools = [HostPool("xeon-2.5", hosts=6, slots_per_host=16),
             HostPool("xeon-3.0", hosts=3, slots_per_host=16),
             HostPool("amd-epyc", hosts=1, slots_per_host=16,
                      affinity=0.5)]
    zone = AvailabilityZone(
        "pair-1a", pools, clock,
        keepalive=KEEPALIVE_POLICIES[policy] or SlidingWindowKeepAlive(60.0),
        scaling=ScalingPolicy(pressure_threshold=0.5, slots_per_minute=90,
                              max_surge_slots=96),
        rng=11)
    if naive:
        for key, pool in list(zone.pools.items()):
            zone.pools[key] = naive_pool(pool, zone)
        zone._pool_order = None
        NaiveZone.adopt(zone)
    return zone, clock


class ZonePairMachine(RuleBasedStateMachine):
    """Drive a stock zone and its naive twin through the same operations.

    Batch placements, single invocations, holds, rebalances (including a
    CPU model the zone has never had and models that vanish), surge
    scaling under pressure and capacity collapses must give equal
    results; after every step both zones hold the same buckets, report
    the same capacity, and have emitted the same events.
    """

    @initialize(policy=st.sampled_from(sorted(KEEPALIVE_POLICIES)),
                bus=st.booleans())
    def setup(self, policy, bus):
        self.sides = []
        for naive in (False, True):
            zone, clock = _pair_zone(policy, naive)
            faults = zone.attach_faults(_Collapse())
            log = []
            if bus:
                events = EventBus()
                events.subscribe(lambda event, log=log: log.append(
                    (event.name, event.timestamp,
                     sorted(event.fields.items()))))
                zone.attach_bus(events)
            self.sides.append((zone, clock, faults, log))
        self.fis = []  # (stock FI, naive FI) from invoke_one

    def _both(self, call):
        outcomes = []
        for zone, clock, faults, log in self.sides:
            try:
                outcomes.append(call(zone))
            except SaturationError:
                outcomes.append("saturated")
        return outcomes

    @rule(tag=st.integers(min_value=0, max_value=3),
          n=st.integers(min_value=1, max_value=160),
          duration=st.floats(min_value=0.05, max_value=30.0),
          window=st.floats(min_value=0.0, max_value=2.0),
          force_new=st.booleans())
    def invoke_batch(self, tag, n, duration, window, force_new):
        def place(zone):
            r = zone.invoke_batch("fn-{}".format(tag), n, duration, window,
                                  force_new=force_new)
            return (r.served, r.failed, r.unique_fis,
                    list(r.new_fi_counts.items()),
                    list(r.reused_fi_counts.items()),
                    list(r.request_cpu_counts.items()), r.timestamp)
        stock, naive = self._both(place)
        assert stock == naive

    @rule(tag=st.integers(min_value=0, max_value=2),
          duration=st.floats(min_value=0.05, max_value=20.0),
          force_new=st.booleans())
    def invoke_one(self, tag, duration, force_new):
        stock, naive = self._both(lambda zone: zone.invoke_one(
            "svc-{}".format(tag), lambda cpu: duration,
            force_new=force_new))
        if stock == "saturated" or naive == "saturated":
            assert stock == naive
            return
        assert ((stock[0].instance_id, stock[0].host_id, stock[0].cpu_key,
                 stock[1])
                == (naive[0].instance_id, naive[0].host_id,
                    naive[0].cpu_key, naive[1]))
        self.fis.append((stock[0], naive[0]))

    @precondition(lambda self: self.fis)
    @rule(pick=st.integers(min_value=0, max_value=10 ** 6),
          hold=st.floats(min_value=0.01, max_value=20.0))
    def hold(self, pick, hold):
        pair = self.fis[pick % len(self.fis)]
        for (zone, _, _, _), fi in zip(self.sides, pair):
            zone.hold_instance(fi, hold)

    @rule(weights=st.lists(st.integers(min_value=0, max_value=5),
                           min_size=len(CPU_MODELS),
                           max_size=len(CPU_MODELS)),
          total_hosts=st.integers(min_value=0, max_value=14))
    def rebalance(self, weights, total_hosts):
        if not sum(weights):
            return
        shares = {cpu: w / float(sum(weights))
                  for cpu, w in zip(CPU_MODELS, weights) if w}
        for zone, _, _, _ in self.sides:
            zone.rebalance(shares, total_hosts=total_hosts)

    @rule(factor=st.sampled_from((1.0, 0.5, 0.1, 0.0)))
    def collapse(self, factor):
        for _, _, faults, _ in self.sides:
            faults.factor = factor

    @rule(dt=st.floats(min_value=0.0, max_value=150.0))
    def advance(self, dt):
        for _, clock, _, _ in self.sides:
            clock.advance(dt)

    @invariant()
    def zones_agree(self):
        if not hasattr(self, "sides"):
            return
        (stock, _, _, stock_log), (naive, _, _, naive_log) = self.sides

        def state(zone):
            pools = []
            for key, pool in zone.pools.items():
                pool.occupied(zone.clock.now)  # release what has lapsed
                pools.append((key, pool.hosts, pool.slots_per_host,
                              pool.affinity, pool._occupied, [
                                  (b.deployment, b.count, b.busy_until,
                                   b.expire_at, b._pinned, b._lease_until)
                                  for b in pool._buckets
                                  if not b._released]))
            return (pools, zone.capacity, zone.free_slots(),
                    zone._surge_slots_added, zone._last_scale_check)
        assert state(stock) == state(naive)
        assert stock_log == naive_log


ZonePairMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None)
TestZonePairMachine = ZonePairMachine.TestCase
