"""Observability overhead: the disabled bus must be ~free.

The event bus is opt-in per Cloud/SkyController; when it is absent (the
``NULL_BUS`` default) or attached-but-paused, every emission site pays a
single attribute check.  This bench pins that contract: a routed burst
(one routing decision, ``route`` per request) with the bus disabled must
run within 5 % of the uninstrumented baseline.
Run with ``pytest benchmarks/bench_obs_overhead.py --benchmark-only`` for
the timed variants, or plainly for the overhead assertion.
"""

import time

import pytest

from repro import Observability, SkyMesh, build_sky
from repro.core import BaselinePolicy, CharacterizationStore, SmartRouter
from repro.dynfunc import UniversalDynamicFunctionHandler
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
