"""Host pools: the bare-metal capacity behind an availability zone.

A :class:`HostPool` aggregates every host of one CPU model inside an AZ.
Hosts expose a fixed number of FI *slots* (microVM capacity); slots are
consumed by live FIs (busy or warm-idle) and released when an FI's
keep-alive expires.

``affinity`` models the platform's packing preference.  Pools with high
affinity fill first; low-affinity pools (rare hardware being phased in or
out) only receive placements once the preferred pools are under pressure.
This is what makes "previously unseen hardware" appear late in a sampling
campaign — the anomaly the paper observes in EX-3.

Event-driven capacity accounting
--------------------------------
Capacity reads used to sweep every live bucket (filter expired, re-sum
counts) on *every* call, and the sampling hot path reads capacity a dozen
times per poll.  The pool now maintains:

* ``_occupied`` — a cached slot counter, updated incrementally on
  allocate / release / count mutation, so :meth:`occupied` and
  :meth:`free_slots` are O(1) reads;
* ``_heap`` — a lazily-compacted min-heap of ``(expire_at, seq, bucket)``
  entries.  :meth:`expire` pops only lapsed entries (O(log n) amortized).
  When a bucket's ``expire_at`` moves (warm reuse, forced release), a fresh
  entry is pushed and the stale one is skipped on pop by comparing against
  the bucket's current ``_heap_key``;
* ``_warm`` — a per-deployment list of buckets in admission order, so
  :meth:`idle_warm` and the zone's pinned-floor count only scan the one
  deployment's buckets instead of every tenant's.

Warm index
----------
:meth:`claim_warm` must take warm-idle buckets in admission order (the
order of the ``_warm`` list) and stop once the request is covered.  A
deployment under load holds hundreds of busy buckets and only a few idle
ones, so instead of walking its list the pool keeps two lazy heaps per
deployment in ``_index``, built on the deployment's first claim:

* ``busy`` — ``(busy_until, order, bucket)`` for buckets still executing;
* ``idle`` — ``(order, bucket)`` for buckets whose ``busy_until`` passed.

``order`` is the bucket's admission stamp (``bucket._order``).  A claim
first promotes every busy entry whose key is due (re-pushing it if the
bucket's ``busy_until`` has moved later since the push), then pops idle
entries in admission order until the request is covered: released
buckets are dropped, buckets that are no longer idle go back where they
belong, touched buckets move to ``busy`` and the parent half of a split
stays ``idle``.  Each live bucket of an indexed deployment has exactly
one entry across the two heaps, so a claim costs O(log n) per bucket it
promotes or takes, never O(buckets of the deployment).

This is exact because, outside :meth:`claim_warm`, ``busy_until`` only
ever moves *later* (``touch``, the pinned-floor refresh and the zone's
warm invoke path all serve an idle FI); a later move is caught when the
stale entry surfaces.  The one way to move it earlier, a
:meth:`FIBucket.touch` that holds a busy FI for less than its remaining
run (a short retry hold), drops the deployment's index so the next claim
rebuilds it.  The heaps are rebuilt by :meth:`expire`'s global compaction
(so they never pin released buckets past it) and dropped with the
deployment's last live bucket.

All of these structures are invisible to callers: the public API and — by
design — every seeded placement outcome are identical to the naive
sweep-everything implementation (see ``tests/test_capacity_equivalence``).
"""

import heapq

from repro.common.errors import (
    ConfigurationError,
    non_negative_count,
    positive_count,
)
from repro.cloudsim.instance import FIBucket, FunctionInstance
from repro.obs.hooks import NULL_BUS


class HostPool(object):
    """All hosts of one CPU model within an AZ."""

    def __init__(self, cpu_key, hosts, slots_per_host, affinity=1.0):
        hosts = non_negative_count("hosts", hosts)
        slots_per_host = positive_count("slots_per_host", slots_per_host)
        if not 0 < affinity < float("inf"):
            raise ConfigurationError("affinity must be positive and finite")
        self.cpu_key = cpu_key
        self.hosts = hosts
        self.slots_per_host = slots_per_host
        self.affinity = float(affinity)
        self._buckets = []
        self._heap = []
        self._seq = 0
        self._occupied = 0
        self._dead = 0
        self._warm = {}
        self._index = {}
        self.on_release = None
        self.bus = NULL_BUS
        self.zone_id = ""

    def attach_bus(self, bus, zone_id):
        """Opt in to slot-churn events (allocate / reuse / expire)."""
        self.bus = bus
        self.zone_id = zone_id
        return bus

    # -- capacity accounting -------------------------------------------------
    @property
    def capacity(self):
        """Total FI slots across the pool's hosts."""
        return self.hosts * self.slots_per_host

    def expire(self, now):
        """Release buckets whose keep-alive has lapsed (heap pop, not sweep)."""
        heap = self._heap
        if not heap or heap[0][0] > now:
            return
        released = 0
        on_release = self.on_release
        while heap and heap[0][0] <= now:
            key, _, bucket = heapq.heappop(heap)
            if bucket._released or key != bucket._heap_key:
                continue  # stale entry; a fresher one is (or was) queued
            if bucket._expire_at > now:
                # Keep-alive was refreshed after this entry was pushed
                # (lazy re-key): queue it again under the current expiry.
                self._schedule_expiry(bucket)
                continue
            bucket._released = True
            count = bucket._count
            self._occupied -= count
            self._dead += 1
            released += count
            if on_release is not None and bucket.instance_id is not None:
                on_release(bucket, now)
        if released and self.bus.enabled:
            self.bus.emit("host.expire", now, zone=self.zone_id,
                          cpu=self.cpu_key, released=released)
        buckets = self._buckets
        if self._dead >= 8 and self._dead * 2 > len(buckets):
            # Global compaction: rebuild the bucket list and the warm index
            # together.  Per-deployment admit order is preserved because
            # ``_warm`` lists are always subsequences of ``_buckets``.
            self._buckets = live = [b for b in buckets if not b._released]
            self._dead = 0
            warm = {}
            for b in live:
                lst = warm.get(b.deployment)
                if lst is None:
                    warm[b.deployment] = [b]
                else:
                    lst.append(b)
            self._warm = warm
            if self._index:
                # Rebuilt, not filtered: the heaps drop every released
                # bucket, and a deployment with none live loses its index.
                self._index = {dep: _build_index(warm[dep], now)
                               for dep in self._index if dep in warm}

    def occupied(self, now):
        """Slots held by live (busy or warm) FIs — an O(1) cached read."""
        heap = self._heap
        if heap and heap[0][0] <= now:
            self.expire(now)
        return self._occupied

    def free_slots(self, now):
        return max(0, self.capacity - self.occupied(now))

    def live_buckets(self):
        """The pool's current FI buckets (after the last expiry sweep)."""
        return [b for b in self._buckets if not b._released]

    # -- allocation ------------------------------------------------------------
    def allocate(self, deployment, count, now, duration, keepalive):
        """Create ``count`` new FIs as one bucket; returns the bucket.

        The caller is responsible for checking :meth:`free_slots`; allocating
        beyond capacity raises, because over-packing would silently corrupt
        the saturation behaviour the experiments depend on.
        """
        if count <= 0:
            raise ConfigurationError("allocation count must be positive")
        free = self.free_slots(now)
        if count > free:
            raise ConfigurationError(
                "pool {} over-allocated: {} requested, {} free".format(
                    self.cpu_key, count, free))
        return self.admit_new(deployment, count, now, duration, keepalive)

    def admit_new(self, deployment, count, now, duration, keepalive):
        """Create ``count`` new FIs as one bucket; returns the bucket.

        The zone's placement pass entry point: the zone has already
        released this pool's lapsed buckets and split the new FIs within
        the free count it read, so nothing is re-probed or re-checked
        here.  :meth:`allocate` is the checked form.
        """
        busy_until = now + duration
        bucket = FIBucket(deployment, self.cpu_key, count, busy_until,
                          busy_until + keepalive)
        # _admit, inlined: the zone admits one bucket per pool per poll.
        bucket._pool = self
        self._buckets.append(bucket)
        self._occupied += bucket._count
        key = bucket._expire_at
        bucket._heap_key = key
        self._seq = seq = self._seq + 1
        heapq.heappush(self._heap, (key, seq, bucket))
        bucket._order = seq
        warm = self._warm.get(deployment)
        if warm is None:
            self._warm[deployment] = [bucket]
        else:
            warm.append(bucket)
            index = self._index.get(deployment)
            if index is not None:
                heapq.heappush(index[0], (bucket.busy_until, seq, bucket))
        if self.bus.enabled:
            self.bus.emit("host.allocate", now, zone=self.zone_id,
                          cpu=self.cpu_key, count=count)
        return bucket

    def allocate_instance(self, instance_id, host_id, deployment, now,
                          duration, keepalive):
        """Create a single identified FI (per-request invocation path)."""
        if self.free_slots(now) < 1:
            raise ConfigurationError(
                "pool {} has no free slot".format(self.cpu_key))
        fi = FunctionInstance(instance_id, host_id, deployment, self.cpu_key,
                              created_at=now,
                              busy_until=now + duration,
                              expire_at=now + duration + keepalive)
        self._admit(fi)
        if self.bus.enabled:
            self.bus.emit("host.allocate", now, zone=self.zone_id,
                          cpu=self.cpu_key, count=1)
        return fi

    def claim_warm(self, deployment, count, now, duration, keepalive):
        """Reuse up to ``count`` warm-idle FIs of ``deployment``.

        Returns the number actually claimed.  Claimed FIs become busy for
        ``duration`` and get a refreshed keep-alive.  Buckets are taken in
        admission order and split when only part of one is needed.  The
        deployment's warm index (see the module docstring) hands out idle
        buckets directly, so the cost follows the buckets promoted and
        claimed, not the deployment's busy population.
        """
        remaining = int(count)
        if remaining <= 0:
            return 0
        index = self._index.get(deployment)
        if index is None:
            warm = self._warm.get(deployment)
            if not warm:
                return 0
            index = self._index[deployment] = _build_index(warm, now)
        busy, idle = index
        heappush = heapq.heappush
        heappop = heapq.heappop
        # Promote buckets that finished running; a bucket refreshed since
        # its entry was pushed goes back under its current busy_until.
        while busy and busy[0][0] <= now:
            _, order, bucket = heappop(busy)
            if bucket._released:
                continue
            until = bucket.busy_until
            if until > now:
                heappush(busy, (until, order, bucket))
            else:
                heappush(idle, (order, bucket))
        claimed = 0
        requeue = []
        new_buckets = []
        while remaining and idle:
            entry = heappop(idle)
            bucket = entry[1]
            if bucket._released:
                continue
            until = bucket.busy_until
            if until > now:
                # Refreshed from outside while idle-indexed: busy again.
                heappush(busy, (until, entry[0], bucket))
                continue
            if now >= bucket._expire_at:
                requeue.append(entry)  # lapsed, released by the next expire
                continue
            take = bucket._count
            if take > remaining:
                take = remaining
                bucket.count -= take
                reused = FIBucket(deployment, self.cpu_key, take,
                                  busy_until=now + duration,
                                  expire_at=now + duration + keepalive)
                if bucket._pinned:
                    # Splitting a pinned bucket conserves the pinned
                    # count: both halves keep the pin horizon.
                    reused._pinned = True
                    reused._expire_at = bucket._expire_at
                elif bucket._lease_until is not None:
                    # Split-off instances inherit the parent's lease.
                    reused._lease_until = bucket._lease_until
                    if reused._expire_at > bucket._lease_until:
                        reused._expire_at = bucket._lease_until
                new_buckets.append(reused)
                requeue.append(entry)  # the parent's remainder stays idle
            else:
                if bucket._pinned:
                    # Pinned floors never expire: refresh busyness only,
                    # leave the pin horizon untouched.
                    bucket.busy_until = now + duration
                else:
                    bucket.touch(now, duration, keepalive)
                heappush(busy, (bucket.busy_until, entry[0], bucket))
            remaining -= take
            claimed += take
        for entry in requeue:
            heappush(idle, entry)
        for bucket in new_buckets:
            self._admit(bucket)
        if claimed and self.bus.enabled:
            self.bus.emit("host.reuse", now, zone=self.zone_id,
                          cpu=self.cpu_key, count=claimed)
        return claimed

    def idle_warm(self, deployment, now):
        """Warm-idle FI count available to ``deployment`` right now."""
        warm = self._warm.get(deployment)
        if not warm:
            return 0
        return sum(b._count for b in warm
                   if not b._released and b.is_idle(now))

    # -- resizing (drift & scaling) ---------------------------------------------
    def set_hosts(self, hosts, now):
        """Resize the pool; never below currently occupied capacity.

        Returns the host count actually applied.  Drift wants to shrink
        pools, but hosts running live FIs cannot be drained instantly, so
        shrinking is floored at the occupied host count.
        """
        hosts = non_negative_count("hosts", hosts)
        occupied_hosts = -(-self.occupied(now) // self.slots_per_host)
        self.hosts = max(hosts, occupied_hosts)
        return self.hosts

    def add_hosts(self, hosts):
        self.hosts += non_negative_count("hosts", hosts)

    # -- internals ---------------------------------------------------------------
    def _admit(self, bucket):
        """Take ownership of ``bucket``: wire hooks, count its slots, index it."""
        bucket._pool = self
        self._buckets.append(bucket)
        self._occupied += bucket._count
        self._schedule_expiry(bucket)
        bucket._order = order = self._seq
        warm = self._warm.get(bucket.deployment)
        if warm is None:
            self._warm[bucket.deployment] = [bucket]
        else:
            warm.append(bucket)
            index = self._index.get(bucket.deployment)
            if index is not None:
                heapq.heappush(index[0], (bucket.busy_until, order, bucket))

    def _busy_shortened(self, bucket):
        """``bucket.busy_until`` moved earlier: its warm-index entry may now
        surface late, so drop the deployment's index (rebuilt on demand)."""
        self._index.pop(bucket.deployment, None)

    def _schedule_expiry(self, bucket):
        key = bucket._expire_at
        bucket._heap_key = key
        self._seq += 1
        heapq.heappush(self._heap, (key, self._seq, bucket))

    def __repr__(self):
        return "HostPool(cpu={}, hosts={}, slots/host={})".format(
            self.cpu_key, self.hosts, self.slots_per_host)


def _build_index(warm, now):
    """A deployment's ``(busy, idle)`` warm-index heaps from its bucket list
    (admission order), classified at ``now``."""
    busy = []
    idle = []
    for bucket in warm:
        if bucket._released:
            continue
        if bucket.busy_until > now:
            busy.append((bucket.busy_until, bucket._order, bucket))
        else:
            idle.append((bucket._order, bucket))
    heapq.heapify(busy)
    # ``idle`` is already sorted by admission order, hence a heap.
    return busy, idle
