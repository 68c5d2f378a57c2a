"""Availability zones: placement, keep-alive, saturation, and scaling.

An :class:`AvailabilityZone` owns a set of :class:`~repro.cloudsim.host.HostPool`
objects (one per CPU model) and implements the two invocation paths:

* :meth:`invoke_batch` — vectorized placement of a poll's worth of parallel
  requests (the sampling hot path);
* :meth:`invoke_one` — a single identified request (the smart-router path),
  with warm reuse and a ``force_new`` escape hatch used by retry strategies.

Saturation behaviour
--------------------
FIs hold their slots for the keep-alive period (~5 min).  Since a sampling
campaign issues polls against *distinct* deployments back-to-back, warm FIs
pile up and free capacity shrinks poll over poll.  The platform reacts by
provisioning extra hosts, but slowly (``ScalingPolicy``), so once the pool is
exhausted the vast majority of new requests fail — for every account, since
the pool is shared.  This reproduces the paper's EX-1 findings.

Placement bias
--------------
New FIs are placed tier-by-tier in decreasing pool ``affinity``; within a
tier, placement is proportional to free capacity with **host-granular**
sampling noise (requests land on whole hosts, so a 1,000-request poll
samples only ~15 hosts, not 1,000 independent slots).  This yields the
single-poll characterization error of up to ~25 % that EX-3 reports, and
makes rare low-affinity hardware surface only late in a campaign.
"""

import math

from repro.common.errors import ConfigurationError, SaturationError
from repro.common.distributions import CategoricalDistribution
from repro.common.ids import make_id_factory
from repro.common.rng import derive_rng
from repro.common.units import MINUTES
from repro.cloudsim.adapters import ScalingPolicy, SlidingWindowKeepAlive
from repro.cloudsim.instance import FIBucket
from repro.faults.injector import NULL_INJECTOR
from repro.obs.hooks import NULL_BUS


DEFAULT_KEEPALIVE = SlidingWindowKeepAlive(5 * MINUTES)


class PlacementResult(object):
    """Outcome of placing a batch of parallel requests in a zone."""

    __slots__ = ("zone_id", "requested", "served", "failed", "unique_fis",
                 "new_fi_counts", "reused_fi_counts", "request_cpu_counts",
                 "duration", "timestamp")

    def __init__(self, zone_id, requested, served, failed, unique_fis,
                 new_fi_counts, reused_fi_counts, request_cpu_counts,
                 duration, timestamp):
        self.zone_id = zone_id
        self.requested = requested
        self.served = served
        self.failed = failed
        self.unique_fis = unique_fis
        self.new_fi_counts = new_fi_counts
        self.reused_fi_counts = reused_fi_counts
        self.request_cpu_counts = request_cpu_counts
        self.duration = duration
        self.timestamp = timestamp

    @property
    def failure_rate(self):
        if self.requested == 0:
            return 0.0
        return self.failed / float(self.requested)

    @property
    def new_fis(self):
        return sum(self.new_fi_counts.values())

    def cpu_distribution(self):
        """Distribution of CPU models over the FIs observed by this batch."""
        return CategoricalDistribution(self.request_cpu_counts)

    def __repr__(self):
        return ("PlacementResult({}: served={}/{} unique_fis={} "
                "fail={:.0%})".format(self.zone_id, self.served,
                                      self.requested, self.unique_fis,
                                      self.failure_rate))


class AvailabilityZone(object):
    """A FaaS deployment zone backed by a finite heterogeneous host pool."""

    def __init__(self, zone_id, pools, clock, keepalive=DEFAULT_KEEPALIVE,
                 scaling=None, rng=None, now=None):
        if not pools:
            raise ConfigurationError("zone needs at least one host pool")
        keys = [p.cpu_key for p in pools]
        if len(set(keys)) != len(keys):
            raise ConfigurationError("duplicate CPU pools in zone")
        self.zone_id = zone_id
        self.pools = {p.cpu_key: p for p in pools}
        self.clock = clock
        #: The keep-alive policy (:mod:`repro.cloudsim.adapters`);
        #: ``keepalive`` is its idle TTL in seconds.
        self.keepalive_policy = keepalive
        self.keepalive = keepalive.idle_ttl
        self.scaling = scaling or ScalingPolicy()
        self.rng = derive_rng(rng, "az", zone_id)
        self._new_instance_id = make_id_factory("fi-" + zone_id)
        self._fi_index = {}
        self._fi_by_id = {}
        self._fi_stale = {}
        self._pool_order = None
        for pool in pools:
            pool.on_release = self._bucket_released
        # ``now`` backdates a zone built after its install time (see
        # :func:`~repro.cloudsim.catalog.build_zone`).
        self._last_scale_check = clock.now if now is None else float(now)
        self._surge_slots_added = 0
        self._base_slots = self._slot_snapshot()
        self._drift = None
        self._background = None
        self._preempt = None
        self._bus = NULL_BUS
        self._faults = NULL_INJECTOR
        # The sliding window needs no per-allocation work, so the hot
        # paths only branch on ``_ka_dynamic`` — one cached bool.
        kind = keepalive.kind
        self._ka_lease = keepalive.lease_s if kind == "lease" else None
        self._ka_pin = keepalive if kind == "container-reuse" else None
        self._ka_dynamic = (self._ka_lease is not None
                            or self._ka_pin is not None)

    def attach_bus(self, bus):
        """Opt in to observability: placements, saturation, scaling, and
        per-pool slot churn all emit onto ``bus``."""
        self._bus = bus
        for pool in self.pools.values():
            pool.attach_bus(bus, self.zone_id)
        return bus

    def attach_faults(self, injector):
        """Opt in to fault injection: scheduled capacity collapses scale
        the free placement slots this zone reports."""
        self._faults = injector
        return injector

    def attach_drift(self, drift_process, now=None):
        """Attach a :class:`~repro.cloudsim.drift.DriftProcess`; the zone
        rebalances lazily whenever the clock crosses an hour boundary.
        The first rebalance applies at ``now`` (default: the clock)."""
        self._drift = drift_process
        drift_process.apply_if_due(self, self._now(now))

    def attach_background(self, background_load):
        """Attach a :class:`~repro.cloudsim.background.BackgroundLoad`
        modelling other tenants sharing this zone's pool."""
        self._background = background_load
        background_load.apply_if_due(self, self.clock.now)

    def attach_preemption(self, process, now=None):
        """Attach a :class:`~repro.cloudsim.adapters.PreemptionProcess`;
        seeded capacity reclaims fire lazily as the clock crosses the
        process's interval boundaries (spot-style packs).  The first
        check applies at ``now`` (default: the clock)."""
        self._preempt = process
        process.apply_if_due(self, self._now(now))

    def _apply_processes(self, now):
        if self._drift is not None:
            self._drift.apply_if_due(self, now)
        if self._background is not None:
            self._background.apply_if_due(self, now)
        if self._preempt is not None:
            self._preempt.apply_if_due(self, now)

    # -- capacity views --------------------------------------------------------
    @property
    def capacity(self):
        total = 0
        for pool in self.pools.values():
            total += pool.hosts * pool.slots_per_host
        return total

    def occupied(self, now=None):
        now = self._now(now)
        total = 0
        for pool in self.pools.values():
            total += pool.occupied(now)
        return total

    def free_slots(self, now=None):
        now = self._now(now)
        total = 0
        for pool in self.pools.values():
            total += pool.free_slots(now)
        return total

    def occupancy(self, now=None):
        if self.capacity == 0:
            return 1.0
        return self.occupied(now) / float(self.capacity)

    def cpu_slot_shares(self):
        """Ground-truth CPU distribution by provisioned slot capacity."""
        counts = {key: p.capacity for key, p in self.pools.items()
                  if p.capacity > 0}
        return CategoricalDistribution(counts)

    def cpu_keys(self):
        return sorted(self.pools)

    # -- batched placement (sampling hot path) -----------------------------------
    def invoke_batch(self, deployment, n_requests, duration, window,
                     now=None, force_new=False):
        """Place ``n_requests`` parallel requests arriving over ``window`` s.

        ``force_new=True`` skips warm reuse entirely — the batch-path
        analogue of :meth:`invoke_one`'s escape hatch, driven by
        cold-start-storm fault injection.  Skipping the warm claims
        consumes no randomness, so the placement draw sequence is
        unchanged.

        The batch invocation core is one *zone pass* (see
        :meth:`_expire_and_scale` and :meth:`_place_new_fis`): lapsed
        keep-alives are released and occupancy summed once for the
        scaling arm, warm FIs of this deployment are claimed and the
        free/weight vector built in one walk in affinity order, a single
        host-granular multinomial draw splits the new FIs, and each pool
        that receives some admits them as one bucket.  Cost scales with
        the zone's pool count, never with ``n_requests``.
        :meth:`~repro.cloudsim.Cloud.poll_batch` builds its per-request
        duration/billing/cold-start layer on top of the
        :class:`PlacementResult` this returns.

        Each request occupies an FI for ``duration`` seconds.  Peak
        concurrency — hence the number of unique FIs required — is
        ``n * min(1, duration / window)``; the remaining requests reuse FIs
        sequentially within the batch.
        """
        now = self.clock.now if now is None else float(now)
        if n_requests <= 0:
            raise ConfigurationError("n_requests must be positive")
        if duration <= 0:
            raise ConfigurationError("duration must be positive")
        self._apply_processes(now)
        self._expire_and_scale(now)

        if window <= 0 or duration >= window:
            unique_needed = n_requests  # every request holds its own FI
        else:
            unique_needed = max(
                1, int(math.ceil(n_requests * (duration / window))))
        reused_counts, new_counts = self._place_new_fis(
            deployment, unique_needed, now, duration, claim=not force_new)
        new_total = sum(new_counts.values())
        if reused_counts:
            reused_total = sum(reused_counts.values())
            fi_cpu_counts = dict(reused_counts)
            for key, count in new_counts.items():
                fi_cpu_counts[key] = fi_cpu_counts.get(key, 0) + count
        else:
            reused_total = 0
            fi_cpu_counts = new_counts  # _apportion never mutates weights
        got_fis = reused_total + new_total
        served = min(n_requests, int(round(
            got_fis * (n_requests / float(unique_needed)))))
        failed = n_requests - served
        request_cpu_counts = _apportion(served, fi_cpu_counts)

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

    # -- per-request invocation (router path) -------------------------------------
    def invoke_one(self, deployment, duration_fn, now=None, force_new=False):
        """Serve a single request; returns ``(FunctionInstance, reused)``.

        ``duration_fn(cpu_key) -> seconds`` supplies the runtime once the
        hosting CPU is known (runtime depends on which hardware the platform
        picks — the whole point of the paper).

        ``force_new=True`` skips warm reuse — the retry strategies hold a
        poorly-placed FI busy and re-issue the request so the platform must
        spin up a fresh FI elsewhere.

        Raises :class:`SaturationError` when the zone has no free capacity.
        """
        now = self._now(now)
        self._apply_processes(now)
        self._expire_and_scale(now)

        if not force_new:
            warm = self._find_warm_instance(deployment, now)
            if warm is not None:
                if warm._pinned:
                    # Pinned floors never expire; refresh busyness only.
                    warm.busy_until = now + duration_fn(warm.cpu_key)
                    warm.invocations += 1
                else:
                    warm.touch(now, duration_fn(warm.cpu_key),
                               self.keepalive)
                return warm, True

        _, new_counts = self._place_new_fis(deployment, 1, now, 0.0,
                                            claim=False, materialize=False)
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

    def find_instance(self, instance_id):
        """The live identified FI with ``instance_id``, or None.

        O(1) dict lookup; released instances are pruned by the expiry
        heap's callback, so a dead FI resolves to None instead of a
        stale object.
        """
        return self._fi_by_id.get(instance_id)

    def hold_instance(self, fi, hold_seconds, now=None):
        """Keep ``fi`` busy for ``hold_seconds`` (retry strategies do this
        so a re-issued request cannot land back on the same FI)."""
        now = self._now(now)
        fi.touch(now, hold_seconds, self.keepalive)

    # -- drift & scaling hooks ------------------------------------------------------
    def rebalance(self, target_shares, now=None, total_hosts=None):
        """Shift host counts toward ``target_shares`` (cpu_key -> share).

        Called by the drift process.  Pools running live FIs shrink only as
        far as their occupancy allows; new CPU models get fresh pools.
        ``total_hosts`` overrides the zone's host total (pool growth/shrink).
        """
        now = self._now(now)
        pools = self.pools
        if total_hosts is None:
            total_hosts = sum(p.hosts for p in pools.values())
        for cpu_key, share in target_shares.items():
            hosts = int(round(total_hosts * share))
            pool = pools.get(cpu_key)
            if pool is not None:
                pool.set_hosts(hosts, now)
            elif hosts > 0:
                from repro.cloudsim.host import HostPool
                # New models take the first pool's host shape.
                pool = HostPool(cpu_key, hosts,
                                next(iter(pools.values())).slots_per_host,
                                affinity=0.4)
                pool.on_release = self._bucket_released
                if self._bus is not NULL_BUS:
                    pool.attach_bus(self._bus, self.zone_id)
                pools[cpu_key] = pool
                self._pool_order = None
        for cpu_key, pool in pools.items():
            if cpu_key not in target_shares:
                pool.set_hosts(0, now)
        self._base_slots = self._slot_snapshot()
        # Rebalancing rebuilds the pool from the drift target, which does
        # not include surge hosts — the platform reclaims them when the
        # pressure spike has passed, replenishing the surge budget.
        self._surge_slots_added = 0

    def _expire_and_scale(self, now):
        """Zone-wide expiry sweep fused with the surge-capacity check.

        Every request path needs lapsed keep-alives released before it
        reads occupancy, so both happen in a single pass over the pools
        (the seed code swept three times per batch).  The sweep is
        unconditional; the scaling arm only engages when time advanced.
        """
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
        # Surge hosts mirror the zone's base CPU mix: the slot shares at
        # construction or at the last rebalance.
        base = CategoricalDistribution(self._base_slots)
        for cpu_key in base.categories:
            pool = self.pools.get(cpu_key)
            if pool is None:
                continue
            extra_hosts = int(round(
                add * base.share(cpu_key) / pool.slots_per_host))
            pool.add_hosts(max(0, extra_hosts))
        bus = self._bus
        if bus.enabled:
            bus.emit("az.scale", now, zone=self.zone_id, slots_added=add,
                     surge_total=self._surge_slots_added,
                     occupancy=self.occupancy(now))

    # -- internals -----------------------------------------------------------------
    def _now(self, now):
        return self.clock.now if now is None else float(now)

    def _pools_by_affinity(self):
        order = self._pool_order
        if order is None:
            order = sorted(self.pools.values(),
                           key=lambda p: (-p.affinity, p.cpu_key))
            self._pool_order = order
        return order

    def _bucket_released(self, bucket, now):
        """Expiry-heap callback: prune ``_fi_index`` as identified FIs die.

        Per-request FIs used to linger in the index until a warm lookup for
        the same deployment happened to rebuild the live list; ``force_new``
        retry storms never trigger that lookup, so the index grew without
        bound.  Releases now bump a stale counter and compact the
        deployment's list once half of it is dead — amortized O(1) per
        release.
        """
        if bucket.instance_id is None:  # anonymous FIBucket, not indexed
            return
        self._fi_by_id.pop(bucket.instance_id, None)
        deployment = bucket.deployment
        instances = self._fi_index.get(deployment)
        if not instances:
            return
        stale = self._fi_stale.get(deployment, 0) + 1
        if stale * 2 >= len(instances):
            self._fi_index[deployment] = [
                fi for fi in instances if not fi.is_expired(now)]
            stale = 0
        self._fi_stale[deployment] = stale

    def _slot_snapshot(self):
        """Provisioned slots per CPU model, the base mix surges mirror."""
        return {key: p.hosts * p.slots_per_host
                for key, p in self.pools.items()}

    def _find_warm_instance(self, deployment, now):
        # No per-call rebuild: expired entries are compacted by the expiry
        # heap's release callback, so this is a pure scan for the first
        # idle FI (idleness already implies not-expired).
        instances = self._fi_index.get(deployment)
        if not instances:
            return None
        for fi in instances:
            if fi.is_idle(now):
                return fi
        return None

    def _place_new_fis(self, deployment, count, now, duration, claim,
                       materialize=True):
        """The affinity-order half of the zone pass: warm claims, then
        ``count`` minus the claimed FIs placed new across the pools.

        Returns ``(reused, new)``, each a cpu -> count dict.
        :meth:`_expire_and_scale` has already released every lapsed
        bucket at ``now``, and neither a warm claim nor an admission
        queues an expiry at or before ``now``, so each pool's free count
        is read once, here, and trusted by :meth:`HostPool.admit_new`.

        ``claim=True`` first takes this deployment's warm-idle FIs, pool
        by pool in affinity order, until ``count`` is covered.  Placement
        weight of a pool is then ``free_slots × affinity``: low-affinity
        (rare, phased-in/out) hardware is under-represented while
        mainstream pools have room, and surfaces progressively as they
        fill — matching EX-3, where partial characterizations under-count
        rare CPUs and converge only as sampling approaches saturation.
        The split carries host-granular multinomial noise
        (:meth:`_noisy_split`).  Allocates only what fits; the caller
        treats the shortfall as failed requests.  ``materialize=False``
        (the per-request path) only picks the pools.
        """
        order = self._pool_order
        if order is None:
            order = self._pools_by_affinity()
        keepalive = self.keepalive
        reused = {}
        pools = []
        free = []
        weights = []
        slots = 0
        for pool in order:
            # A warm claim splits or refreshes buckets but never changes a
            # pool's occupancy, so claims and free counts share the walk.
            if claim and count > 0 and pool._warm.get(deployment):
                claimed = pool.claim_warm(deployment, count, now, duration,
                                          keepalive)
                if claimed:
                    reused[pool.cpu_key] = claimed
                    count -= claimed
            hosts = pool.hosts
            if hosts <= 0:  # capacity 0: slots_per_host is always > 0
                continue
            sph = pool.slots_per_host
            f = hosts * sph - pool._occupied
            if f < 0:
                f = 0
            pools.append(pool)
            free.append(f)
            weights.append(f * pool.affinity)
            slots += sph
        counts = {}
        if count <= 0:
            return reused, counts
        if self._faults.enabled:
            factor = self._faults.capacity_factor(self.zone_id, now)
            if factor < 1.0:
                free = [int(f * factor) for f in free]
                weights = [f * p.affinity for f, p in zip(free, pools)]
        total_free = sum(free)
        if total_free <= 0:
            return reused, counts
        take = count if count < total_free else total_free
        if len(pools) == 1:
            split = (take,)  # take <= total_free: nothing to draw
        else:
            split = self._noisy_split(take, free, weights,
                                      slots / float(len(pools)))
        ka_dynamic = self._ka_dynamic
        for pool, allocated in zip(pools, split):
            if allocated <= 0:
                continue
            if materialize:
                bucket = pool.admit_new(deployment, allocated, now, duration,
                                        keepalive)
                if ka_dynamic:
                    self._apply_keepalive_policy(bucket, pool, deployment,
                                                 now)
            counts[pool.cpu_key] = allocated  # cpu keys are unique per zone
        return reused, counts

    #: Expiry horizon for pinned (CaaS min-instance) buckets: they never
    #: expire, so the heap entry sorts after every real deadline.
    PINNED_HORIZON = float("inf")

    def _apply_keepalive_policy(self, bucket, pool, deployment, now):
        """Apply the zone's non-default keep-alive policy to a freshly
        allocated bucket (or identified FI)."""
        lease = self._ka_lease
        if lease is not None:
            bucket._lease_until = lease_until = now + lease
            if bucket._expire_at > lease_until:
                bucket.expire_at = lease_until  # shorter: eager re-key
            return
        policy = self._ka_pin
        deficit = policy.min_instances - self._pinned_live(deployment)
        if deficit <= 0:
            return
        if bucket._count <= deficit:
            bucket._pinned = True
            bucket.expire_at = self.PINNED_HORIZON  # extension: lazy re-key
        else:
            # Pin exactly the deficit; the remainder keeps the normal TTL.
            bucket.count -= deficit
            pinned = FIBucket(deployment, pool.cpu_key, deficit,
                              busy_until=bucket.busy_until,
                              expire_at=self.PINNED_HORIZON)
            pinned._pinned = True
            pool._admit(pinned)

    def _pinned_live(self, deployment):
        """Live pinned instances of ``deployment`` across the zone."""
        total = 0
        for pool in self.pools.values():
            warm = pool._warm.get(deployment)
            if warm:
                total += sum(b._count for b in warm
                             if b._pinned and not b._released)
        return total

    # Fraction of a host a single placement wave typically fills before the
    # scheduler spills to another host.  Sets the effective sample
    # granularity of a poll: 1,000 requests touch ~1000/(64*0.15) ≈ 104 host
    # visits, giving single-poll characterization errors in the ~5-15 % APE
    # range the paper reports (EX-3), with ~25 % in the worst zone.
    HOST_FILL_FRACTION = 0.15

    def _noisy_split(self, take, free, weights, mean_slots_per_host):
        """Split ``take`` slots across two or more pools ∝ ``weights``,
        sampling at partial-host granularity, clamped to each pool's free
        slots; ``take`` never exceeds ``sum(free)``.

        One ``rng.multinomial`` over ``HOST_FILL_FRACTION`` of a mean host
        per draw; a single-pool zone never reaches here, so it draws
        nothing.  Rounding drift and clamping shortfalls are settled
        deterministically.
        """
        total_weight = float(sum(weights))
        if total_weight <= 0:
            return [0] * len(free)
        probs = [w / total_weight for w in weights]
        granule = mean_slots_per_host * self.HOST_FILL_FRACTION
        if granule < 1.0:
            granule = 1.0
        host_draws = round(take / granule)  # round() of a float is an int
        if host_draws < 1:
            host_draws = 1
        # .tolist() converts the multinomial draw to native ints up front:
        # the per-element arithmetic below is hot, and numpy scalars make it
        # several times slower without changing a single bit of the result.
        host_counts = self.rng.multinomial(host_draws, probs).tolist()
        draws = float(host_draws)
        split = []
        deficit = take
        roomiest = most_room = -1
        for h, f in zip(host_counts, free):
            s = round(take * (h / draws))
            if s > f:
                s = f
            if f - s > most_room:  # first pool with the most room left
                most_room = f - s
                roomiest = len(split)
            split.append(s)
            deficit -= s
        # Fix rounding drift and clamping shortfalls deterministically:
        # pools with the most room first, ties in affinity order.
        if deficit > 0:
            if most_room >= deficit:
                split[roomiest] += deficit  # the roomiest pool takes it all
                deficit = 0
            else:
                room = [f - s for s, f in zip(split, free)]
                for i in sorted(range(len(free)), key=room.__getitem__,
                                reverse=True):
                    grant = min(room[i], deficit)
                    split[i] += grant
                    deficit -= grant
                    if deficit <= 0:
                        break
        while deficit < 0:
            # Rounding overshoot: shave from the largest allocation.
            i = max(range(len(split)), key=split.__getitem__)
            split[i] -= 1
            deficit += 1
        return split

    def __repr__(self):
        return "AvailabilityZone({!r}, capacity={})".format(
            self.zone_id, self.capacity)


def _apportion(total, weights):
    """Integer-apportion ``total`` across categories ∝ integer ``weights``
    (largest remainder method); returns a dict in sorted key order, without
    the categories that get nothing."""
    if total <= 0 or not weights:
        return {}
    weight_sum = sum(weights.values())
    if weight_sum == total:
        # One request per FI, as in every sampling poll: each raw share
        # below is ``total * w / total``, exactly ``w``, so nothing is
        # left to distribute.
        return {k: weights[k] for k in sorted(weights) if weights[k] > 0}
    weight_sum = float(weight_sum)
    if weight_sum <= 0:
        return {}
    keys = sorted(weights)
    result = {}
    remainders = []
    granted = 0
    for k in keys:
        raw = total * weights[k] / weight_sum
        floored = int(raw)  # raw >= 0, so truncation == floor
        result[k] = floored
        remainders.append(raw - floored)
        granted += floored
    shortfall = total - granted
    if shortfall:
        # Stable sort on remainder; ties keep key order, as before.
        order = sorted(range(len(keys)), key=remainders.__getitem__,
                       reverse=True)
        for i in order[:shortfall]:
            result[keys[i]] += 1
    for v in result.values():
        if v <= 0:
            return {k: n for k, n in result.items() if n > 0}
    return result
