"""Observability overhead: the disabled bus must be ~free.

The event bus is opt-in per Cloud/SkyController; when it is absent (the
``NULL_BUS`` default) or attached-but-paused, every emission site pays a
single attribute check.  This bench pins that contract: a routed burst
(one routing decision, ``route`` per request) with the bus disabled must
run within 5 % of the uninstrumented baseline.

With the bus live, the cost that matters is per event and per folded
value: the catalog bridge per ``az.placement`` / ``serve.batch`` event,
and ``Histogram.observe_many`` in ns per value at a flush (300 values)
and at a serve fold (16,384 values), each checked equal to its spec.
Run with ``pytest benchmarks/bench_obs_overhead.py --benchmark-only`` for
the timed variants, or plainly for the assertions (``-s`` prints the
live-bus costs).
"""

import copy
import time

import numpy as np
import pytest

from repro import Observability, SkyMesh, build_sky
from repro.core import BaselinePolicy, CharacterizationStore, SmartRouter
from repro.dynfunc import UniversalDynamicFunctionHandler
from repro.obs import Histogram
from repro.sampling import CharacterizationBuilder
from repro.workloads import resolve_runtime_model, workload_by_name

ZONE = "eu-central-1a"
BURST = 300


def make_router(obs=None):
    cloud = build_sky(seed=421, aws_only=True)
    if obs is not None:
        obs.install(cloud)
    account = cloud.create_account("bench", "aws")
    mesh = SkyMesh(cloud)
    mesh.register(cloud.deploy(
        account, ZONE, "dynamic", 2048,
        handler=UniversalDynamicFunctionHandler(resolve_runtime_model)))
    store = CharacterizationStore()
    builder = CharacterizationBuilder(ZONE)
    builder.add_poll({"xeon-2.5": 600, "xeon-2.9": 300, "xeon-3.0": 100})
    store.put(builder.snapshot())
    return cloud, SmartRouter(cloud, mesh, store, BaselinePolicy(ZONE),
                              workload_by_name("sha1_hash"), [ZONE],
                              obs=obs)


def run_burst(cloud, router):
    decision = router.decide()
    requests = [router.route(decision) for _ in range(BURST)]
    cloud.clock.advance(900.0)  # let the burst's FIs expire between rounds
    return requests


def test_routed_burst_baseline(benchmark):
    """No observability anywhere (the NULL_BUS default)."""
    cloud, router = make_router()
    requests = benchmark(lambda: run_burst(cloud, router))
    assert len(requests) == BURST


def test_routed_burst_bus_disabled(benchmark):
    """Bus attached through every zone and pool, but paused."""
    obs = Observability()
    obs.disable()
    cloud, router = make_router(obs)
    requests = benchmark(lambda: run_burst(cloud, router))
    assert len(requests) == BURST
    assert len(obs.recorder) == 0


def test_routed_burst_bus_enabled(benchmark):
    """Full collection: events, metrics bridge, and per-request traces."""
    obs = Observability()
    cloud, router = make_router(obs)
    requests = benchmark(lambda: run_burst(cloud, router))
    assert len(requests) == BURST
    assert obs.registry.get("invocations_total", zone=ZONE,
                            cpu=requests[0].cpu_key) is not None


def _best_of(fn, rounds, warmup=2):
    for _ in range(warmup):
        fn()
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_disabled_bus_overhead_under_5pct():
    """The acceptance gate: disabled-bus routed burst within 5 % of
    baseline (best-of-rounds to squeeze out scheduler noise)."""
    cloud_base, router_base = make_router()
    obs = Observability()
    obs.disable()
    cloud_off, router_off = make_router(obs)

    baseline = _best_of(lambda: run_burst(cloud_base, router_base),
                        rounds=7)
    disabled = _best_of(lambda: run_burst(cloud_off, router_off), rounds=7)

    overhead = disabled / baseline - 1.0
    assert overhead < 0.05, (
        "disabled-bus overhead {:.1%} exceeds 5% "
        "(baseline {:.4f}s, disabled {:.4f}s)".format(
            overhead, baseline, disabled))


# -- live bus: the catalog bridge and the latency fold -------------------------

PLACEMENT = dict(zone=ZONE, requested=300, served=200, failed=100,
                 occupancy=0.9)
BATCH = dict(zone=ZONE, mode="coalesced", size=300, served=200, failed=100,
             cold_starts=3, cost_usd=0.25)
EVENTS = 2000
#: A served-latency histogram past its first 2**17 observations, where
#: the reservoir replay draws 18-bit slots.
WARM_COUNT = 2 ** 17


def bridge_us(name, fields, rounds=5):
    """(obs, best µs per bridged event) once the event's rows are bound."""
    obs = Observability()
    event = obs.bus.emit(name, 0.0, **fields)
    bridge = obs._bridge

    def burst():
        for _ in range(EVENTS):
            bridge(event)

    return obs, _best_of(burst, rounds=rounds) / EVENTS * 1e6


def test_bridge_cost_per_event():
    """The catalog bridge per event, its series equal to the spec
    (one emit plus the warm-up and timed bursts, each row applied once
    per event)."""
    events = 1 + (2 + 5) * EVENTS
    obs, placement_us = bridge_us("az.placement", PLACEMENT)
    registry = obs.registry
    assert registry.get("placements_total", zone=ZONE).value == events
    assert registry.get("placement_served_total",
                        zone=ZONE).value == 200 * events
    assert registry.get("zone_occupancy", zone=ZONE).value == 0.9
    obs, batch_us = bridge_us("serve.batch", BATCH)
    registry = obs.registry
    assert registry.get("serve_requests_total",
                        outcome="failed").value == 100 * events
    assert registry.get("serve_batch_size",
                        mode="coalesced").count == events
    assert registry.get("serve_cost_usd_total").value == pytest.approx(
        0.25 * events)
    print("bridge: az.placement {:.2f} us/event, serve.batch {:.2f} "
          "us/event".format(placement_us, batch_us))


def _warm_histogram():
    histogram = Histogram()
    rng = np.random.default_rng(17)
    for chunk in np.array_split(rng.lognormal(-3.0, 1.0, WARM_COUNT), 8):
        histogram.observe_many(chunk)
    return histogram


def fold_ns_per_value(base, size, rounds=7):
    """Best ns per value of one ``observe_many`` of ``size`` values on a
    copy of ``base``, after checking the fold against per-element
    ``observe``."""
    values = np.random.default_rng(size).lognormal(-3.0, 1.0, size)
    spec, fast = copy.deepcopy(base), copy.deepcopy(base)
    for value in values.tolist():
        spec.observe(value)
    fast.observe_many(values)
    assert (fast.count, fast.bucket_counts, fast.min, fast.max,
            fast._reservoir, fast._rng.getstate()) == (
        spec.count, spec.bucket_counts, spec.min, spec.max,
        spec._reservoir, spec._rng.getstate())
    assert fast.sum == base.sum + float(values.sum())
    best = float("inf")
    for _ in range(rounds):
        histogram = copy.deepcopy(base)
        start = time.perf_counter()
        histogram.observe_many(values)
        best = min(best, time.perf_counter() - start)
    return best / size * 1e9


def test_fold_cost_per_value():
    """A report-window fold must cost well under a flush-sized call per
    value: that is what folding buys (the replay runs columnar)."""
    base = _warm_histogram()
    flush_ns = fold_ns_per_value(base, 300)
    fold_ns = fold_ns_per_value(base, 16384)
    print("observe_many: 300 values {:.0f} ns/value, 16384 values {:.0f} "
          "ns/value".format(flush_ns, fold_ns))
    assert fold_ns < flush_ns / 2.0, (
        "16384-value fold {:.0f} ns/value is not under half the "
        "300-value cost {:.0f} ns/value".format(fold_ns, flush_ns))


if __name__ == "__main__":
    cloud, router = make_router()
    print("routed burst baseline: {:.4f}s".format(
        _best_of(lambda: run_burst(cloud, router), rounds=5)))
    obs = Observability()
    obs.disable()
    cloud, router = make_router(obs)
    print("routed burst bus disabled: {:.4f}s".format(
        _best_of(lambda: run_burst(cloud, router), rounds=5)))
    obs = Observability()
    cloud, router = make_router(obs)
    print("routed burst bus enabled: {:.4f}s".format(
        _best_of(lambda: run_burst(cloud, router), rounds=5)))
    test_bridge_cost_per_event()
    test_fold_cost_per_value()
