"""The fault-injection subsystem: determinism, models, and wiring.

The contract under test: fault timelines are a pure function of
``(seed, schedule, per-zone request order)``; models scope to their zones
and windows; the simulator only pays for injection when an injector is
actually installed; and downstream layers (poller, obs) see faults the
way they document.
"""

import pytest

from repro.common.units import Money
from repro.common.errors import (
    ConfigurationError,
    QuotaExceededError,
    SaturationError,
    TransientFaultError,
)
from repro.faults import (
    Brownout,
    ColdStartStorm,
    FaultInjector,
    FaultSchedule,
    LatencySpike,
    NetworkPartition,
    ThrottlingBurst,
    TransientFaults,
    ZoneOutage,
    build_preset,
)
from repro.faults.injector import NULL_INJECTOR
from repro.faults.schedule import PRESET_NAMES
from repro.obs import Observability
from repro.sampling import Poller
from repro.skymesh import SkyMesh
from tests.helpers import make_cloud


def make_rig(schedule=None, seed=7, fault_seed=5):
    """A one-region cloud with a deployment per zone, optionally faulted."""
    cloud = make_cloud(seed=seed)
    account = cloud.create_account("chaos", "aws")
    deployments = {
        zone: cloud.deploy(account, zone, "fn", 2048)
        for zone in ("test-1a", "test-1b")
    }
    injector = None
    if schedule is not None:
        injector = FaultInjector(schedule, seed=fault_seed).install(cloud)
    return cloud, account, deployments, injector


class TestWiring(object):
    def test_clouds_default_to_the_null_injector(self):
        cloud = make_cloud()
        assert cloud.faults is NULL_INJECTOR
        assert not cloud.faults.enabled

    def test_install_enables_and_returns_self(self):
        cloud = make_cloud()
        injector = FaultInjector([TransientFaults(rate=1.0)])
        assert injector.install(cloud) is injector
        assert cloud.faults is injector
        assert cloud.faults.enabled

    def test_plain_list_is_wrapped_into_a_schedule(self):
        injector = FaultInjector([TransientFaults(rate=0.5)])
        assert isinstance(injector.schedule, FaultSchedule)
        assert len(injector.schedule) == 1


class TestModels(object):
    def test_transient_faults_raise_at_rate_one(self):
        cloud, _, deployments, injector = make_rig(
            [TransientFaults(rate=1.0, zones=["test-1a"])])
        for _ in range(3):
            with pytest.raises(TransientFaultError):
                cloud.invoke(deployments["test-1a"])
        assert len(injector.timeline) == 3
        assert injector.fault_counts() == {("transient", "test-1a"): 3}

    def test_faults_respect_zone_scoping(self):
        cloud, _, deployments, _ = make_rig(
            [TransientFaults(rate=1.0, zones=["test-1a"])])
        # The other zone is untouched.
        invocation = cloud.invoke(deployments["test-1b"])
        assert invocation.latency_s > 0

    def test_faults_respect_their_window(self):
        cloud, _, deployments, _ = make_rig(
            [ThrottlingBurst(rate=1.0, zones=["test-1a"],
                             start=100.0, end=200.0)])
        cloud.invoke(deployments["test-1a"])  # t=0: before the window
        cloud.clock.advance_to(150.0)
        with pytest.raises(QuotaExceededError):
            cloud.invoke(deployments["test-1a"])
        cloud.clock.advance_to(250.0)
        cloud.invoke(deployments["test-1a"])  # after the window

    def test_zone_outage_fails_every_invocation(self):
        cloud, _, deployments, _ = make_rig(
            [ZoneOutage(zones=["test-1a"])])
        for _ in range(5):
            with pytest.raises(SaturationError):
                cloud.invoke(deployments["test-1a"])

    def test_latency_spike_adds_exactly_extra_s(self):
        # Two identically-seeded clouds; the spike must be the only
        # difference between their observed latencies.
        clean, _, clean_deps, _ = make_rig()
        faulty, _, faulty_deps, _ = make_rig(
            [LatencySpike(extra_s=0.5, zones=["test-1a"])])
        base = clean.invoke(clean_deps["test-1a"])
        spiked = faulty.invoke(faulty_deps["test-1a"])
        assert spiked.latency_s == pytest.approx(base.latency_s + 0.5)

    def test_cold_start_storm_forces_and_inflates_cold_starts(self):
        cloud, _, deployments, _ = make_rig(
            [ColdStartStorm(multiplier=4.0, zones=["test-1a"])])
        provider_cold = \
            deployments["test-1a"].provider.adapter.cold_start.cold_start_s
        first = cloud.invoke(deployments["test-1a"])
        # Immediately after, a warm FI exists — the storm must bypass it.
        second = cloud.invoke(deployments["test-1a"])
        assert not second.reused
        assert first.cold_start_s == pytest.approx(4.0 * provider_cold)
        assert second.cold_start_s == pytest.approx(4.0 * provider_cold)

    def test_partition_blocks_batched_placement(self):
        cloud, _, deployments, _ = make_rig(
            [NetworkPartition(zones=["test-1a"])])
        with pytest.raises(TransientFaultError):
            cloud.place_batch(deployments["test-1a"], 10, 0.25)

    def test_brownout_collapses_placement_capacity(self):
        cloud, _, _, _ = make_rig(
            [Brownout(failure_rate=0.0, capacity_factor=0.25,
                      zones=["test-1a"])])
        intact = make_rig()[0]
        zone, intact_zone = cloud.zone("test-1a"), intact.zone("test-1a")
        result = zone.place_batch("fill", 2000, duration=60.0, window=0.0)
        baseline = intact_zone.place_batch("fill", 2000, duration=60.0,
                                           window=0.0)
        assert 0 < result.served < baseline.served

    def test_model_validation(self):
        with pytest.raises(ConfigurationError):
            TransientFaults(rate=1.5)
        with pytest.raises(ConfigurationError):
            Brownout(failure_rate=-0.1)
        with pytest.raises(ConfigurationError):
            ColdStartStorm(multiplier=0.5)
        with pytest.raises(ConfigurationError):
            LatencySpike(extra_s=-1.0)
        with pytest.raises(ConfigurationError):
            TransientFaults(start=10.0, end=10.0)


class TestDeterminism(object):
    SCHEDULE = [TransientFaults(rate=0.3, zones=["test-1a"]),
                ThrottlingBurst(rate=0.2, zones=["test-1a"],
                                start=10.0, end=40.0)]

    def drive(self, requests=60):
        cloud, _, deployments, injector = make_rig(self.SCHEDULE)
        observed = []
        for _ in range(requests):
            try:
                invocation = cloud.invoke(deployments["test-1a"])
            except Exception as error:
                observed.append(type(error).__name__)
            else:
                observed.append(round(invocation.latency_s, 9))
            cloud.clock.advance(1.0)
        timeline = [(f.kind, f.zone_id, f.timestamp, f.reason)
                    for f in injector.timeline]
        return observed, timeline

    def test_identical_seed_and_schedule_replay_identically(self):
        first_run, first_timeline = self.drive()
        second_run, second_timeline = self.drive()
        assert first_timeline == second_timeline
        assert first_run == second_run
        assert first_timeline  # the run actually injected something

    def test_different_injector_seed_diverges(self):
        _, timeline = self.drive()
        cloud, _, deployments, injector = make_rig(self.SCHEDULE,
                                                   fault_seed=99)
        for _ in range(60):
            try:
                cloud.invoke(deployments["test-1a"])
            except Exception:
                pass
            cloud.clock.advance(1.0)
        other = [(f.kind, f.zone_id, f.timestamp, f.reason)
                 for f in injector.timeline]
        assert other != timeline

    def test_per_zone_streams_are_independent(self):
        """Traffic in one zone must not perturb another zone's faults."""
        _, quiet_timeline = self.drive()
        cloud, _, deployments, injector = make_rig(self.SCHEDULE)
        for i in range(60):
            if i % 2 == 0:  # interleave unrelated test-1b traffic
                cloud.invoke(deployments["test-1b"])
            try:
                cloud.invoke(deployments["test-1a"])
            except Exception:
                pass
            cloud.clock.advance(1.0)
        noisy_timeline = [(f.kind, f.zone_id, f.timestamp, f.reason)
                          for f in injector.timeline]
        assert noisy_timeline == quiet_timeline


class TestPresets(object):
    def test_every_named_preset_builds(self):
        for name in PRESET_NAMES:
            schedule = build_preset(name, ["test-1a", "test-1b"])
            assert len(schedule) >= 1

    def test_unknown_preset_is_rejected(self):
        with pytest.raises(ConfigurationError):
            build_preset("meteor-strike", ["test-1a"])

    def test_preset_targets_the_first_zone(self):
        schedule = build_preset("outage", ["test-1a", "test-1b"])
        for model in schedule:
            assert model.applies("test-1a", model.start)
            assert not model.applies("test-1b", model.start)


class TestDownstream(object):
    def test_poller_survives_persistent_partition(self):
        cloud, account, _, _ = make_rig(
            [NetworkPartition(zones=["test-1a"])])
        mesh = SkyMesh(cloud)
        endpoints = mesh.deploy_sampling_endpoints(account, "test-1a",
                                                   count=3)
        poller = Poller(cloud, endpoints, n_requests=50)
        observation = poller.poll()
        # The poll is recorded as all-failed, not raised.
        assert observation.served == 0
        assert observation.failed == 50
        assert observation.failure_rate == 1.0
        assert observation.cost == Money(0)

    def test_poller_retries_through_a_brief_partition(self):
        cloud, account, _, injector = make_rig(
            [NetworkPartition(zones=["test-1a"])])
        mesh = SkyMesh(cloud)
        endpoints = mesh.deploy_sampling_endpoints(account, "test-1a",
                                                   count=3)
        # Each attempt consults the schedule afresh; both first retries
        # hit the partition, so two injected faults land on the timeline
        # before the synthetic failure is recorded.
        poller = Poller(cloud, endpoints, n_requests=20,
                        transient_retries=1)
        poller.poll()
        assert len(injector.timeline) == 2

    def test_fault_events_reach_the_metrics_registry(self):
        cloud = make_cloud(seed=7)
        obs = Observability()
        obs.install(cloud)
        account = cloud.create_account("chaos", "aws")
        deployment = cloud.deploy(account, "test-1a", "fn", 2048)
        FaultInjector([TransientFaults(rate=1.0, zones=["test-1a"])],
                      seed=5).install(cloud)
        for _ in range(4):
            with pytest.raises(TransientFaultError):
                cloud.invoke(deployment)
        counter = obs.registry.get("faults_injected_total",
                                   zone="test-1a", kind="transient")
        assert counter is not None
        assert counter.value == 4.0
        assert len(obs.recorder.events("fault.injected")) == 4
