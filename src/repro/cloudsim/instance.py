"""Function-instance records.

The simulator tracks FIs at two granularities:

* :class:`FIBucket` — an aggregate of ``count`` identical FIs created
  together (same deployment, same CPU pool, same lifecycle timestamps).
  Sampling campaigns place 1,000 requests per poll, so bucketing keeps the
  hot path allocation-free.
* :class:`FunctionInstance` — a bucket of count 1 with identity (instance
  id, host id) used by the per-request invocation path that the smart router
  drives, where retry logic needs to reason about *this specific* FI.

Lifecycle: an FI is **busy** until ``busy_until`` (it is executing a
request), then **warm-idle** until ``expire_at`` (the platform's keep-alive,
~5 minutes on AWS Lambda), after which its slot is released.

Capacity-accounting hooks
-------------------------
Host pools keep an O(1) cached ``occupied`` counter and a min-heap of bucket
expiry times instead of sweeping every bucket on every capacity read.  For
the cache to stay exact, buckets notify their owning pool whenever the two
accounting-relevant fields change out from under it:

* ``count`` — shrunk by warm-claim splits and background-load re-targets;
  the delta flows straight into the pool's occupancy counter;
* ``expire_at`` — refreshed by :meth:`touch` and force-expired by the
  background process; the pool re-keys the bucket in its expiry heap.

``busy_until`` only affects idleness (never slot accounting), so it stays a
plain attribute.  The pool's warm index relies on it only ever moving
later; :meth:`touch` reports the one exception (a hold shorter than the
remaining run) to the pool.  Buckets not yet admitted to a pool
(``_pool is None``) behave exactly like the plain records they used to be.
"""


class FIBucket(object):
    """``count`` FIs sharing a deployment, CPU, and lifecycle window."""

    __slots__ = ("deployment", "cpu_key", "busy_until",
                 "_count", "_expire_at", "_pool", "_heap_key", "_released",
                 "_lease_until", "_pinned", "_order")

    # Identity defaults: anonymous buckets answer ``instance_id is None``
    # with a plain attribute read, so release-path type checks never pay
    # for a raising ``getattr``.  :class:`FunctionInstance` shadows both
    # with real slots.
    instance_id = None
    host_id = None

    def __init__(self, deployment, cpu_key, count, busy_until, expire_at):
        self.deployment = deployment
        self.cpu_key = cpu_key
        self._pool = None
        self._heap_key = None
        self._released = False
        # Admission stamp, set by the owning pool: orders the pool's warm
        # index the way its per-deployment bucket list is ordered.
        self._order = None
        # Keep-alive-policy state (set by the zone's policy hook, never
        # on the default sliding-window path): ``_lease_until`` caps the
        # total lifetime; ``_pinned`` marks CaaS min-instance floors that
        # never expire.
        self._lease_until = None
        self._pinned = False
        self._count = int(count)
        self.busy_until = float(busy_until)
        self._expire_at = float(expire_at)

    # -- accounting-tracked fields ------------------------------------------
    @property
    def count(self):
        return self._count

    @count.setter
    def count(self, value):
        value = int(value)
        pool = self._pool
        if pool is not None and not self._released:
            pool._occupied += value - self._count
        self._count = value

    @property
    def expire_at(self):
        return self._expire_at

    @expire_at.setter
    def expire_at(self, value):
        value = float(value)
        self._expire_at = value
        pool = self._pool
        # Lazy re-key: extensions (warm reuse refreshing the keep-alive) keep
        # the old heap entry — the pool re-pushes it when it pops early.
        # Only a *shortened* expiry must be re-keyed eagerly, or the heap
        # would release the slot late.
        if (pool is not None and not self._released
                and value < self._heap_key):
            pool._schedule_expiry(self)

    # -- lifecycle ----------------------------------------------------------
    def is_expired(self, now):
        return now >= self._expire_at

    def is_idle(self, now):
        """Warm and not executing: eligible for reuse by its deployment."""
        return self.busy_until <= now < self._expire_at

    def touch(self, now, duration, keepalive):
        """Serve another request: busy for ``duration``, then fresh keep-alive.

        A fixed-lease policy caps the refresh: the keep-alive never
        extends past ``_lease_until`` (None on the default path).
        """
        busy_until = now + duration
        if busy_until < self.busy_until and self._pool is not None:
            # A hold shorter than the remaining run: the only way
            # busy_until moves earlier, which the warm index must hear.
            self._pool._busy_shortened(self)
        self.busy_until = busy_until
        expire = busy_until + keepalive
        lease = self._lease_until
        if lease is not None and expire > lease:
            expire = lease
        self.expire_at = expire

    def __repr__(self):
        return ("FIBucket({}x {} for {!r}, busy_until={:.2f}, "
                "expire_at={:.2f})".format(self._count, self.cpu_key,
                                           self.deployment, self.busy_until,
                                           self._expire_at))


class FunctionInstance(FIBucket):
    """A single FI with identity, as observed by in-function profiling."""

    __slots__ = ("instance_id", "host_id", "created_at", "invocations")

    def __init__(self, instance_id, host_id, deployment, cpu_key,
                 created_at, busy_until, expire_at):
        super(FunctionInstance, self).__init__(
            deployment, cpu_key, 1, busy_until, expire_at)
        self.instance_id = instance_id
        self.host_id = host_id
        self.created_at = float(created_at)
        self.invocations = 0

    def touch(self, now, duration, keepalive):
        super(FunctionInstance, self).touch(now, duration, keepalive)
        self.invocations += 1

    @property
    def is_cold(self):
        """True until the FI has served its first request."""
        return self.invocations == 0

    def __repr__(self):
        return "FunctionInstance({!r} on {!r}, cpu={})".format(
            self.instance_id, self.host_id, self.cpu_key)
