"""Simulator throughput: how fast the substrate itself runs.

Unlike the figure benches (single-shot experiments), these are genuine
multi-round microbenchmarks of the simulator's hot paths — the numbers
that determine how large an experiment the library can host.
"""

import pytest

from repro import SkyMesh, build_sky
from repro.cloudsim.handlers import SleepHandler
from repro.dynfunc import UniversalDynamicFunctionHandler
from repro.workloads import resolve_runtime_model, workload_by_name


@pytest.fixture
def throughput_rig():
    cloud = build_sky(seed=191, aws_only=True)
    account = cloud.create_account("bench", "aws")
    mesh = SkyMesh(cloud)
    sleeper = cloud.deploy(account, "eu-central-1a", "sleeper", 2048,
                           handler=SleepHandler(0.25))
    dynamic = cloud.deploy(
        account, "eu-central-1a", "dynamic", 2048,
        handler=UniversalDynamicFunctionHandler(resolve_runtime_model))
    return cloud, sleeper, dynamic


def test_throughput_poll_1000(benchmark, throughput_rig):
    """A full 1,000-request poll (the sampling hot path)."""
    cloud, sleeper, _ = throughput_rig

    def poll():
        duration = sleeper.handler.duration_on(None, cloud.rng)
        result, _ = cloud.place_batch(sleeper, 1000, duration)
        cloud.clock.advance(400.0)  # let the FIs expire between rounds
        return result

    result = benchmark(poll)
    assert result.served == 1000


def test_throughput_invoke_one(benchmark, throughput_rig):
    """A single routed invocation (the per-request path)."""
    cloud, _, dynamic = throughput_rig
    payload = workload_by_name("sha1_hash").payload()

    def invoke():
        invocation = cloud.invoke(dynamic, payload=payload)
        cloud.clock.advance(5.0)  # warm reuse on the next round
        return invocation

    invocation = benchmark(invoke)
    assert invocation.runtime_s > 0


def test_throughput_build_catalog(benchmark):
    """Constructing the full 41-region sky."""
    cloud = benchmark(lambda: build_sky(seed=7))
    assert len(cloud.regions) == 41


def test_throughput_batched_burst(benchmark, throughput_rig):
    """A 1,000-invocation batched workload burst (the EX-5 path)."""
    from repro.core import WorkloadRunner
    cloud, _, dynamic = throughput_rig
    runner = WorkloadRunner(cloud)
    workload = workload_by_name("zipper")

    def burst():
        result = runner.run_batched_burst(dynamic, workload, 1000)
        cloud.clock.advance(900.0)
        return result

    result = benchmark(burst)
    assert result.executed == 1000
