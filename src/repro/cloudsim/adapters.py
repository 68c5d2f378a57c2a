"""Provider adapters: pluggable platform behavior behind ``ProviderConfig``.

Real FaaS platforms differ on cold start, keep-alive, quota and pool
scaling ("Serverless Computing: Behind the Scenes of Major Platforms"),
so each axis is a small strategy object collected on a
:class:`ProviderAdapter` — the only place a provider states them:

* **cold-start distribution** — how long a cold request's init takes.
  :class:`FixedColdStart` consumes *no* randomness (the paper's three
  platforms use it); :class:`LognormalColdStart` and
  :class:`BimodalColdStart` sample on the shared cloud RNG stream, with
  a batched :meth:`~ColdStartDistribution.sample_n` so the vectorized
  and looped ``poll_batch`` paths draw identically;
* **keep-alive policy** — sliding idle window, a fixed lease that caps
  an instance's total lifetime, or CaaS-style container reuse with a
  pinned min-instance floor;
* **quota model** — hard cap, burst-then-throttle, or a token-refill
  bucket, holding per-account state;
* **pool-scaling rule** — the surge-capacity envelope each zone's
  :class:`ScalingPolicy` is sized from;
* **preemption** — an optional ``(interval_s, fraction)`` schedule of
  seeded capacity reclaims (spot-style), applied by
  :class:`PreemptionProcess`.

Pricing stays the :class:`~repro.cloudsim.billing.BillingModel` carried
by ``ProviderConfig.billing``; scenario packs supply their own.

The zone builder (:func:`repro.cloudsim.catalog.build_zone`) reads these
objects directly.  Fixed cold starts draw nothing, the default scaling
rule gives the historical envelope, the hard cap admits ``min(n, cap)``,
and the sliding keep-alive adds zero work to the allocation path —
which keeps the core providers' seeded outputs stable.
"""

from operator import attrgetter

import numpy as np

from repro.common.errors import (
    ConfigurationError,
    non_negative_count,
    positive_count,
)
from repro.common.rng import derive_rng


# -- cold-start distributions --------------------------------------------------

class ColdStartDistribution(object):
    """How long a cold request's initialization takes, in seconds.

    ``sample``/``sample_n`` share one contract: a distribution either
    consumes **no** randomness (``is_fixed`` true — the bit-identical
    default) or consumes exactly one generator call per invocation
    (scalar path) / one batched call per CPU group (batch path), so the
    vectorized and looped ``poll_batch`` specs stay equivalent.
    """

    __slots__ = ()
    is_fixed = False

    def sample(self, rng):
        raise NotImplementedError

    def sample_n(self, rng, count):
        raise NotImplementedError


class FixedColdStart(ColdStartDistribution):
    """The seed behavior: every cold start costs exactly ``cold_start_s``.

    Consumes no randomness on either path, so the cloud RNG stream is
    the same as if cold starts were not modelled at all.
    """

    __slots__ = ("cold_start_s",)
    is_fixed = True

    def __init__(self, cold_start_s):
        if cold_start_s < 0:
            raise ConfigurationError("cold_start_s must be >= 0")
        self.cold_start_s = float(cold_start_s)

    def sample(self, rng):
        return self.cold_start_s

    def sample_n(self, rng, count):
        return np.full(count, self.cold_start_s, dtype=np.float64)

    def __repr__(self):
        return "FixedColdStart({:g}s)".format(self.cold_start_s)


class LognormalColdStart(ColdStartDistribution):
    """Lognormal cold starts: ``median_s * exp(N(0, sigma))``.

    The shape most platform measurement studies report — a tight body
    with a heavy right tail (image pulls, placement retries).
    """

    __slots__ = ("median_s", "sigma")

    def __init__(self, median_s, sigma=0.35):
        if median_s <= 0 or sigma < 0:
            raise ConfigurationError(
                "lognormal cold start needs median_s > 0 and sigma >= 0")
        self.median_s = float(median_s)
        self.sigma = float(sigma)

    def sample(self, rng):
        # np.exp, not math.exp: the two differ by an ulp on some inputs,
        # and scalar draws must match sample_n bit-for-bit.
        return self.median_s * float(np.exp(rng.normal(0.0, self.sigma)))

    def sample_n(self, rng, count):
        return self.median_s * np.exp(
            rng.normal(0.0, self.sigma, size=count))

    def __repr__(self):
        return "LognormalColdStart(median={:g}s, sigma={:g})".format(
            self.median_s, self.sigma)


class BimodalColdStart(ColdStartDistribution):
    """Two-mode cold starts: a fast common path and a rare slow one.

    Azure-style behavior — most cold starts reuse a pre-provisioned
    worker quickly, a ``slow_share`` minority pays full VM/worker
    provisioning.
    """

    __slots__ = ("fast_s", "slow_s", "slow_share")

    def __init__(self, fast_s, slow_s, slow_share=0.1):
        if fast_s < 0 or slow_s < fast_s:
            raise ConfigurationError(
                "bimodal cold start needs 0 <= fast_s <= slow_s")
        if not 0.0 <= slow_share <= 1.0:
            raise ConfigurationError("slow_share must be in [0, 1]")
        self.fast_s = float(fast_s)
        self.slow_s = float(slow_s)
        self.slow_share = float(slow_share)

    def sample(self, rng):
        return (self.slow_s if rng.random() < self.slow_share
                else self.fast_s)

    def sample_n(self, rng, count):
        draws = rng.random(size=count)
        return np.where(draws < self.slow_share, self.slow_s, self.fast_s)

    def __repr__(self):
        return "BimodalColdStart({:g}s/{:g}s @ {:.0%})".format(
            self.fast_s, self.slow_s, self.slow_share)


# -- keep-alive policies -------------------------------------------------------

class SlidingWindowKeepAlive(object):
    """The seed behavior: every request refreshes a fixed idle TTL."""

    __slots__ = ("idle_ttl",)
    kind = "sliding"

    def __init__(self, idle_ttl):
        if not idle_ttl > 0:  # NaN fails too
            raise ConfigurationError(
                "idle_ttl must be positive, got {!r}".format(idle_ttl))
        self.idle_ttl = float(idle_ttl)

    def __repr__(self):
        return "SlidingWindowKeepAlive({:g}s)".format(self.idle_ttl)


class FixedLeaseKeepAlive(object):
    """Instances live at most ``lease_s`` from creation, reuse or not.

    Models platforms that recycle sandboxes on a fixed schedule: warm
    reuse still refreshes the idle window, but never past the lease.
    """

    __slots__ = ("idle_ttl", "lease_s")
    kind = "lease"

    def __init__(self, idle_ttl, lease_s):
        if not (idle_ttl > 0 and lease_s > 0):
            raise ConfigurationError(
                "idle_ttl and lease_s must be positive")
        self.idle_ttl = float(idle_ttl)
        self.lease_s = float(lease_s)

    def __repr__(self):
        return "FixedLeaseKeepAlive(idle={:g}s, lease={:g}s)".format(
            self.idle_ttl, self.lease_s)


class ContainerReuseKeepAlive(object):
    """CaaS-style container reuse with a pinned min-instance floor.

    The first ``min_instances`` instances of each deployment are pinned:
    they never expire, so repeat traffic after an arbitrarily long idle
    gap still lands warm — the Code Engine ``minScale`` semantics.
    Instances beyond the floor behave like the sliding window.
    """

    __slots__ = ("idle_ttl", "min_instances")
    kind = "container-reuse"

    def __init__(self, idle_ttl, min_instances):
        if not idle_ttl > 0:  # NaN fails too
            raise ConfigurationError(
                "idle_ttl must be positive, got {!r}".format(idle_ttl))
        self.idle_ttl = float(idle_ttl)
        self.min_instances = positive_count("min_instances", min_instances)

    def __repr__(self):
        return "ContainerReuseKeepAlive(idle={:g}s, min={})".format(
            self.idle_ttl, self.min_instances)


# -- quota models --------------------------------------------------------------

class QuotaModel(object):
    """Per-account admission control for parallel bursts.

    ``new_state()`` creates the per-account mutable state (None for
    stateless models); ``admit(state, n, now)`` returns how many of the
    ``n`` simultaneous requests pass.  ``ceiling`` is the most a fresh
    account admits in one burst — the quota an account reports.  Models
    never consume randomness.
    """

    __slots__ = ()

    @property
    def ceiling(self):
        raise NotImplementedError

    def new_state(self):
        return None

    def admit(self, state, n_requests, now):
        raise NotImplementedError


class HardCapQuota(QuotaModel):
    """The seed behavior: ``min(n, cap)`` — stateless, history-free."""

    __slots__ = ("cap",)
    ceiling = property(attrgetter("cap"))

    def __init__(self, cap):
        self.cap = positive_count("quota cap", cap)

    def admit(self, state, n_requests, now):
        cap = self.cap
        return n_requests if n_requests <= cap else cap

    def __repr__(self):
        return "HardCapQuota({})".format(self.cap)


class BurstThenThrottleQuota(QuotaModel):
    """A burst allowance per window, then a lower sustained cap.

    Within each ``window_s``, the first ``burst`` admissions pass at
    full concurrency; once consumed, batches are throttled to
    ``sustained`` until the window rolls over.
    """

    __slots__ = ("burst", "sustained", "window_s")
    ceiling = property(attrgetter("burst"))

    def __init__(self, burst, sustained, window_s=60.0):
        if burst <= 0 or sustained <= 0 or window_s <= 0:
            raise ConfigurationError(
                "burst, sustained, and window_s must be positive")
        self.burst = positive_count("burst", burst)
        self.sustained = positive_count("sustained", sustained)
        self.window_s = float(window_s)

    def new_state(self):
        # [window_start, used_in_window]
        return [None, 0]

    def admit(self, state, n_requests, now):
        start = state[0]
        if start is None or now - start >= self.window_s:
            state[0] = now
            state[1] = 0
        headroom = self.burst - state[1]
        allowance = headroom if headroom > 0 else self.sustained
        admitted = n_requests if n_requests <= allowance else allowance
        state[1] += admitted
        return admitted

    def __repr__(self):
        return "BurstThenThrottleQuota(burst={}, sustained={})".format(
            self.burst, self.sustained)


class TokenRefillQuota(QuotaModel):
    """A token bucket refilled in sim time.

    ``capacity`` tokens at rest; each admitted request consumes one;
    tokens refill at ``refill_per_s``.  Sustained pressure converges on
    the refill rate — the GCP-style behavior where quota recovers
    continuously rather than per window.
    """

    __slots__ = ("capacity", "refill_per_s")
    ceiling = property(attrgetter("capacity"))

    def __init__(self, capacity, refill_per_s):
        if capacity <= 0 or refill_per_s <= 0:
            raise ConfigurationError(
                "capacity and refill_per_s must be positive")
        self.capacity = positive_count("capacity", capacity)
        self.refill_per_s = float(refill_per_s)

    def new_state(self):
        # [tokens, last_refill_at]
        return [float(self.capacity), None]

    def admit(self, state, n_requests, now):
        last = state[1]
        if last is not None and now > last:
            state[0] = min(float(self.capacity),
                           state[0] + (now - last) * self.refill_per_s)
        state[1] = now
        available = int(state[0])
        admitted = n_requests if n_requests <= available else available
        state[0] -= admitted
        return admitted

    def __repr__(self):
        return "TokenRefillQuota(capacity={}, refill={:g}/s)".format(
            self.capacity, self.refill_per_s)


def sampling_poll_size(provider):
    """Requests per sampling poll on ``provider``: the paper's 1,000
    (§3.1), or fewer when a fresh account's quota ceiling admits fewer
    (IBM, DO)."""
    return min(1000, provider.adapter.quota.ceiling)


# -- pool scaling --------------------------------------------------------------

def _scaling_rates(pressure_threshold, slots_per_minute):
    """Checked ``(pressure_threshold, slots_per_minute)`` as floats."""
    if not 0 < pressure_threshold <= 1:
        raise ConfigurationError("pressure_threshold must be in (0, 1]")
    if not 0 <= slots_per_minute < float("inf"):
        raise ConfigurationError(
            "slots_per_minute must be non-negative and finite, got "
            "{!r}".format(slots_per_minute))
    return float(pressure_threshold), float(slots_per_minute)


class ScalingPolicy(object):
    """How fast a zone adds capacity under sustained pressure."""

    __slots__ = ("pressure_threshold", "slots_per_minute", "max_surge_slots")

    def __init__(self, pressure_threshold=0.85, slots_per_minute=8,
                 max_surge_slots=2048):
        self.pressure_threshold, self.slots_per_minute = _scaling_rates(
            pressure_threshold, slots_per_minute)
        self.max_surge_slots = non_negative_count("max_surge_slots",
                                                  max_surge_slots)


class PoolScalingRule(object):
    """A provider's surge-scaling envelope, sized per zone by
    :meth:`policy`.

    The default rule gives a zone of ``slots`` provisioned slots the
    seed envelope ``ScalingPolicy(0.85, 8, max(256, slots // 12))``.
    """

    __slots__ = ("pressure_threshold", "slots_per_minute", "surge_floor",
                 "surge_divisor")

    def __init__(self, pressure_threshold=0.85, slots_per_minute=8,
                 surge_floor=256, surge_divisor=12):
        self.pressure_threshold, self.slots_per_minute = _scaling_rates(
            pressure_threshold, slots_per_minute)
        self.surge_floor = non_negative_count("surge_floor", surge_floor)
        self.surge_divisor = positive_count("surge_divisor", surge_divisor)

    def policy(self, slots):
        """The :class:`ScalingPolicy` of a zone with ``slots`` slots."""
        return ScalingPolicy(self.pressure_threshold, self.slots_per_minute,
                             max(self.surge_floor,
                                 slots // self.surge_divisor))

    def __repr__(self):
        return ("PoolScalingRule(threshold={:g}, per_minute={:g}, "
                "floor={}, divisor={})".format(
                    self.pressure_threshold, self.slots_per_minute,
                    self.surge_floor, self.surge_divisor))


# -- the adapter ---------------------------------------------------------------

class ProviderAdapter(object):
    """One platform's pluggable behavior bundle.

    ``preemption`` is ``None`` or an ``(interval_s, fraction)`` tuple;
    :func:`~repro.cloudsim.catalog.build_zone` attaches a seeded
    :class:`PreemptionProcess` per zone from it.  Pricing lives on the
    owning ``ProviderConfig.billing`` — packs ship their own billing
    models.
    """

    __slots__ = ("cold_start", "keepalive", "quota", "scaling", "preemption")

    def __init__(self, cold_start, keepalive, quota, scaling=None,
                 preemption=None):
        self.cold_start = cold_start
        self.keepalive = keepalive
        self.quota = quota
        self.scaling = scaling if scaling is not None else PoolScalingRule()
        if preemption is not None:
            interval_s, fraction = preemption
            if interval_s <= 0 or not 0.0 < fraction <= 1.0:
                raise ConfigurationError(
                    "preemption needs interval_s > 0 and fraction in "
                    "(0, 1]")
            preemption = (float(interval_s), float(fraction))
        self.preemption = preemption

    def __repr__(self):
        return "ProviderAdapter(cold={!r}, keepalive={!r}, quota={!r})".format(
            self.cold_start, self.keepalive, self.quota)


# -- spot-style preemption -----------------------------------------------------

class PreemptionProcess(object):
    """Seeded capacity reclaims on a fixed interval (spot semantics).

    At every crossed ``interval_s`` boundary, each live non-pinned FI
    bucket in the zone is independently reclaimed with probability
    ``fraction``.  Draws come from a dedicated per-zone stream
    (``derive_rng(seed, "preempt", zone_id)``), so attaching the process
    never perturbs placement or runtime draws, and the strike sequence
    is a pure function of the seed and the request history — the same
    lazy ``apply_if_due`` contract as
    :class:`~repro.cloudsim.drift.DriftProcess`.
    """

    __slots__ = ("zone_id", "interval_s", "fraction", "rng",
                 "_next_strike", "preempted")

    def __init__(self, zone_id, interval_s, fraction, seed=0):
        if interval_s <= 0:
            raise ConfigurationError("interval_s must be positive")
        if not 0.0 < fraction <= 1.0:
            raise ConfigurationError("fraction must be in (0, 1]")
        self.zone_id = zone_id
        self.interval_s = float(interval_s)
        self.fraction = float(fraction)
        self.rng = derive_rng(seed, "preempt", zone_id)
        self._next_strike = None
        self.preempted = 0

    def apply_if_due(self, zone, now):
        nxt = self._next_strike
        if nxt is None:
            # Catch up from t=0, not from the first call: every crossed
            # boundary strikes, keeping the timeline a pure function of
            # the seed and history even when the first poll comes late.
            nxt = self.interval_s
        while nxt <= now:
            self._strike(zone, nxt)
            nxt += self.interval_s
        self._next_strike = nxt

    def _strike(self, zone, at):
        rng = self.rng
        fraction = self.fraction
        reclaimed = 0
        # Pools in sorted key order, buckets in admit order: the draw
        # sequence is deterministic given the allocation history.
        for cpu_key in sorted(zone.pools):
            pool = zone.pools[cpu_key]
            victims = 0
            for bucket in pool._buckets:
                if (bucket._released or bucket._pinned
                        or bucket.is_expired(at)):
                    continue
                if rng.random() < fraction:
                    # Shortening the expiry re-keys the bucket eagerly in
                    # the pool's heap; the sweep below releases it.
                    bucket.expire_at = at
                    victims += bucket._count
            if victims:
                pool.expire(at)
                reclaimed += victims
        if reclaimed:
            self.preempted += reclaimed
            if zone._bus.enabled:
                zone._bus.emit("az.preempt", at, zone=zone.zone_id,
                               reclaimed=reclaimed)

    def __repr__(self):
        return "PreemptionProcess({!r}, every {:g}s @ {:.0%})".format(
            self.zone_id, self.interval_s, self.fraction)

