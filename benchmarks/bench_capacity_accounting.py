"""Capacity-accounting microbenchmarks: the primitives under the hot paths.

``bench_simulator_throughput`` times whole request paths; this file isolates
the :class:`~repro.cloudsim.host.HostPool` accounting primitives those paths
lean on, at growing bucket populations, to pin their complexity class:

* ``occupied`` reads are O(1) — a cached counter behind a heap guard — so
  the read cost must *not* grow with the number of live buckets;
* ``expire`` is heap-driven: cost follows the number of buckets actually
  lapsing, not the number alive;
* ``claim_warm`` consults only the claiming deployment's warm index, so a
  crowd of other tenants' buckets must not slow it down — and within the
  deployment it visits the buckets it promotes or claims, so thousands of
  busy buckets of the *same* tenant must not either.

Run with ``--benchmark-only`` for timings; the plain test run doubles as a
correctness smoke (allocations balance, claims land).
"""

import heapq

import pytest

from repro.cloudsim import host
from repro.cloudsim.host import HostPool

KEEPALIVE = 300.0


def _populated_pool(buckets, deployments=25):
    """A pool holding ``buckets`` live single-slot buckets, spread over
    ``deployments`` tenants, none expiring before t=1e9."""
    pool = HostPool("bench-cpu", hosts=max(1, buckets // 8),
                    slots_per_host=16)
    for i in range(buckets):
        pool.allocate("fn-{}".format(i % deployments), 1, now=float(i),
                      duration=0.5, keepalive=1e9)
    return pool


@pytest.mark.parametrize("buckets", [100, 1000, 10000])
def test_bench_occupied_read(benchmark, buckets):
    """O(1) occupancy: read cost flat across a 100× population spread."""
    pool = _populated_pool(buckets)
    now = float(buckets + 1)
    occupied = benchmark(pool.occupied, now)
    assert occupied == buckets


@pytest.mark.parametrize("buckets", [100, 1000, 10000])
def test_bench_free_slots_read(benchmark, buckets):
    pool = _populated_pool(buckets)
    now = float(buckets + 1)
    free = benchmark(pool.free_slots, now)
    assert free == pool.capacity - buckets


def test_bench_expire_turnover(benchmark):
    """Steady-state churn: one bucket allocated and one lapsing per step —
    the per-poll pattern of a saturation campaign."""
    pool = HostPool("bench-cpu", hosts=64, slots_per_host=16)
    state = {"now": 0.0}

    def step():
        now = state["now"]
        pool.allocate("fn-churn", 4, now, duration=0.5, keepalive=KEEPALIVE)
        state["now"] = now + 400.0  # next step expires this bucket
        return pool.occupied(state["now"])

    benchmark(step)
    assert pool.occupied(state["now"] + 1000.0) == 0


@pytest.mark.parametrize("tenants", [10, 100, 1000])
def test_bench_claim_warm_crowded(benchmark, tenants):
    """Warm claims scan one deployment's index, not the whole zoo: claim
    cost must stay flat as unrelated tenants multiply."""
    pool = HostPool("bench-cpu", hosts=tenants, slots_per_host=16)
    for i in range(tenants):
        pool.allocate("fn-{}".format(i), 1, now=0.0, duration=0.5,
                      keepalive=1e9)
    state = {"now": 1.0}

    def claim():
        now = state["now"]
        state["now"] = now + 1.0
        # Claim and immediately leave it idle again for the next round.
        return pool.claim_warm("fn-0", 1, now, duration=0.5,
                               keepalive=1e9)

    claimed = benchmark(claim)
    assert claimed == 1


def test_bench_expiry_heap_rekey(benchmark):
    """Keep-alive refreshes re-key lazily; forced expiry re-keys eagerly.
    Times the mixed pattern the background process produces."""
    pool = HostPool("bench-cpu", hosts=8, slots_per_host=16)
    state = {"now": 0.0}

    def rekey():
        now = state["now"]
        bucket = pool.allocate("fn-bg", 2, now, duration=0.5,
                               keepalive=KEEPALIVE)
        bucket.expire_at = now + 900.0   # extension: lazy re-key
        bucket.expire_at = now           # forced release: eager re-key
        state["now"] = now + 1.0
        return pool.occupied(state["now"])

    occupied = benchmark(rekey)
    assert occupied == 0


class _CountingHeapq(object):
    """``heapq`` with a pop counter: every bucket a warm claim visits
    leaves the deployment's index through one ``heappop``."""

    def __init__(self):
        self.pops = 0
        self.heappush = heapq.heappush
        self.heapify = heapq.heapify

    def heappop(self, heap):
        self.pops += 1
        return heapq.heappop(heap)


def _busy_crowd_pool(busy):
    """One deployment with ``busy`` long-running single-FI buckets and four
    idle ones (admitted last, so an admission-order walk meets every busy
    bucket before the first idle one)."""
    pool = HostPool("bench-cpu", hosts=busy // 16 + 2, slots_per_host=16)
    for _ in range(busy):
        pool.allocate("fn-hot", 1, now=0.0, duration=1e8, keepalive=1e9)
    for _ in range(4):
        pool.allocate("fn-hot", 1, now=0.0, duration=0.5, keepalive=1e9)
    return pool


@pytest.mark.parametrize("busy", [50, 5000])
def test_claim_warm_visits_scale_with_claims(monkeypatch, busy):
    """Claim-at-scale: buckets visited per claim follow the FIs claimed
    (plus the buckets whose run just ended), not the 5,000 busy buckets
    of the claiming deployment.  Counts visits, not time."""
    pool = _busy_crowd_pool(busy)
    pool.claim_warm("fn-hot", 1, 1.0, duration=0.5, keepalive=1e9)  # index
    counter = _CountingHeapq()
    monkeypatch.setattr(host, "heapq", counter)
    visits = []
    for step in range(20):
        want = 1 + step % 3
        before = counter.pops
        claimed = pool.claim_warm("fn-hot", want, 2.0 + step, duration=0.5,
                                  keepalive=1e9)
        assert claimed == want
        visits.append(counter.pops - before)
    # Each claim pops the buckets it takes plus the ones it took last
    # step (now done running): at most 2 × (FIs wanted + 1), whatever the
    # busy population.
    assert all(v <= 2 * (1 + step % 3) + 2 for step, v in enumerate(visits))


@pytest.mark.parametrize("busy", [500, 5000])
def test_bench_claim_warm_busy_crowd(benchmark, busy):
    """Timed twin of the visit count: claim cost stays flat as the same
    deployment's busy population grows tenfold."""
    pool = _busy_crowd_pool(busy)
    state = {"now": 1.0}

    def claim():
        now = state["now"]
        state["now"] = now + 1.0
        return pool.claim_warm("fn-hot", 2, now, duration=0.5,
                               keepalive=1e9)

    claimed = benchmark(claim)
    assert claimed == 2
