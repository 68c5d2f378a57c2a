"""Observability wired through the stack: cloudsim, sampling, routing."""

import pytest

from repro.common.errors import SaturationError
from repro.core import (
    BaselinePolicy,
    CharacterizationStore,
    RetryRoutingPolicy,
    SkyController,
    SmartRouter,
)
from repro.core.telemetry import RoutingTelemetry
from repro.dynfunc import UniversalDynamicFunctionHandler
from repro.obs import NULL_BUS, Observability
from repro.sampling import CharacterizationBuilder, SamplingCampaign
from repro.skymesh import SkyMesh
from repro.workloads import resolve_runtime_model, workload_by_name
from tests.helpers import drain_zone, make_cloud


def make_routed_rig(obs=None, policy=None, zone="test-1a", seed=77):
    cloud = make_cloud(seed=seed)
    if obs is not None:
        obs.install(cloud)
    account = cloud.create_account("obs", "aws")
    mesh = SkyMesh(cloud)
    mesh.register(cloud.deploy(
        account, zone, "dynamic", 2048,
        handler=UniversalDynamicFunctionHandler(resolve_runtime_model)))
    store = CharacterizationStore()
    builder = CharacterizationBuilder(zone)
    builder.add_poll({"xeon-2.5": 10, "xeon-2.9": 6})
    store.put(builder.snapshot())
    router = SmartRouter(cloud, mesh, store,
                         policy or BaselinePolicy(zone),
                         workload_by_name("sha1_hash"), [zone], obs=obs)
    return cloud, account, mesh, router


class TestCloudsimHooks(object):
    def test_invoke_emits_and_bridges_to_metrics(self):
        obs = Observability()
        cloud, _, _, router = make_routed_rig(obs)
        for _ in range(10):
            router.route()
        assert obs.recorder.count("cloud.invoke") == 10
        assert obs.recorder.count("host.allocate") >= 1
        invoked = sum(
            obs.registry.get("invocations_total", **labels).value
            for labels in obs.registry.labels_of("invocations_total"))
        assert invoked == 10
        summary = obs.zone_latency_summary()
        assert summary["test-1a"]["requests"] == 10
        assert summary["test-1a"]["p95_latency_s"] > 0

    def test_placement_and_saturation_events(self):
        obs = Observability()
        cloud = make_cloud(seed=3)
        obs.install(cloud)
        zone = cloud.zone("test-1a")
        drain_zone(zone, fraction=1.0)
        result = zone.invoke_batch("overflow", 200, duration=1.0, window=0.0)
        assert result.failed > 0
        assert obs.recorder.count("az.placement") >= 2
        assert obs.recorder.count("az.saturation") == 1
        saturation = obs.recorder.events("az.saturation")[0]
        assert saturation.fields["zone"] == "test-1a"
        assert saturation.fields["failed"] == result.failed
        assert obs.registry.get("saturation_events_total",
                                zone="test-1a").value == 1.0

    def test_invoke_one_saturation_emits(self):
        obs = Observability()
        cloud = make_cloud(seed=5)
        obs.install(cloud)
        zone = cloud.zone("test-1a")
        drain_zone(zone, fraction=1.0)
        with pytest.raises(SaturationError):
            zone.invoke_one("nobody", lambda cpu: 1.0)
        events = obs.recorder.events("az.saturation")
        assert events and events[-1].fields["kind"] == "invoke"

    def test_slot_expiry_emits_churn(self):
        obs = Observability()
        cloud = make_cloud(seed=9)
        obs.install(cloud)
        zone = cloud.zone("test-1a")
        zone.invoke_batch("dep", 50, duration=1.0, window=0.0)
        cloud.clock.advance(3600.0)
        assert zone.occupied() == 0
        expired = obs.recorder.events("host.expire")
        assert sum(event.fields["released"] for event in expired) == 50

    def test_zones_added_after_attach_inherit_bus(self):
        obs = Observability()
        cloud = make_cloud(seed=11)
        obs.install(cloud)
        # Both preexisting zones got the bus.
        for zone_id in ("test-1a", "test-1b"):
            assert cloud.zone(zone_id)._bus is obs.bus


class TestSamplingHooks(object):
    def test_campaign_emits_polls_and_summary(self):
        obs = Observability()
        cloud = make_cloud(seed=21)
        obs.install(cloud)
        account = cloud.create_account("sampler", "aws")
        mesh = SkyMesh(cloud)
        endpoints = mesh.deploy_sampling_endpoints(account, "test-1a",
                                                   count=3)
        campaign = SamplingCampaign(cloud, endpoints, n_requests=200,
                                    max_polls=3)
        result = campaign.run()
        assert obs.recorder.count("sampling.poll") == result.polls_run
        assert obs.recorder.count("sampling.campaign") == 1
        summary = obs.recorder.events("sampling.campaign")[0]
        assert summary.fields["cost_usd"] == pytest.approx(
            float(result.total_cost))
        assert obs.registry.get("polls_total", zone="test-1a").value \
            == result.polls_run


class TestRoutingHooks(object):
    def test_route_produces_complete_multi_span_trace(self):
        obs = Observability()
        cloud, _, _, router = make_routed_rig(obs)
        router.route()
        trace = obs.tracer.last_trace()
        assert trace is not None and trace.complete
        names = [span.name for span in trace.spans]
        assert names[0] == "request"
        assert "decide" in names and "dispatch" in names
        assert "billing" in names
        assert len(trace.spans) >= 4
        # Spans carry sim-clock timestamps, not wall time.
        assert trace.root.start == pytest.approx(cloud.clock.now)

    def test_retry_attempts_traced_and_counted(self):
        obs = Observability()
        cloud, _, _, router = make_routed_rig(
            obs, policy=RetryRoutingPolicy("test-1a", "focus_fastest"),
            seed=101)
        routed = [router.route() for _ in range(25)]
        retries = sum(request.retries for request in routed)
        assert retries > 0  # focus_fastest on a mixed zone must retry
        assert obs.recorder.count("retry.attempt") == retries
        trace_names = [span.name
                       for trace in obs.tracer.traces()
                       for span in trace.spans]
        assert "placement" in trace_names

    def test_telemetry_recorded_via_router(self):
        telemetry = RoutingTelemetry()
        cloud = make_cloud(seed=31)
        account = cloud.create_account("obs", "aws")
        mesh = SkyMesh(cloud)
        mesh.register(cloud.deploy(
            account, "test-1a", "dynamic", 2048,
            handler=UniversalDynamicFunctionHandler(resolve_runtime_model)))
        store = CharacterizationStore()
        builder = CharacterizationBuilder("test-1a")
        builder.add_poll({"xeon-2.5": 10})
        store.put(builder.snapshot())
        router = SmartRouter(cloud, mesh, store, BaselinePolicy("test-1a"),
                             workload_by_name("sha1_hash"), ["test-1a"],
                             telemetry=telemetry)
        cloud.clock.advance(123.0)
        router.route()
        assert len(telemetry) == 1
        record = telemetry.records()[0]
        assert record.timestamp == pytest.approx(123.0)
        assert record.workload == "sha1_hash"
        assert record.policy == "baseline"


class TestControllerIntegration(object):
    def test_controller_opt_in_wires_everything(self):
        obs = Observability()
        cloud = make_cloud(seed=55)
        account = cloud.create_account("ctrl", "aws")
        controller = SkyController(
            cloud, account, ["test-1a", "test-1b"], polls_per_refresh=2,
            poll_requests=150, sampling_count=2, obs=obs)
        workload = workload_by_name("sha1_hash")
        for _ in range(5):
            controller.submit(workload)
        assert cloud.bus is obs.bus
        assert obs.recorder.count("controller.refresh") == 2
        assert obs.recorder.count("controller.staleness") >= 1
        assert obs.recorder.count("sampling.poll") >= 2
        # Telemetry rides along with real sim-clock timestamps.
        assert len(controller.telemetry) == 5
        assert all(record.timestamp > 0
                   for record in controller.telemetry.records())
        stats = controller.telemetry.by_zone()
        assert all("p95_latency_s" in bucket for bucket in stats.values())

    def test_refresh_event_carries_cost_and_stability(self):
        obs = Observability()
        cloud = make_cloud(seed=56)
        account = cloud.create_account("ctrl", "aws")
        controller = SkyController(
            cloud, account, ["test-1a"], polls_per_refresh=2,
            poll_requests=150, sampling_count=2, obs=obs)
        controller.refresh_due_zones(force=True)
        event = obs.recorder.events("controller.refresh")[-1]
        assert event.fields["zone"] == "test-1a"
        assert event.fields["cost_usd"] > 0
        assert event.fields["stability"] in ("stable", "volatile",
                                             "unknown")


class TestDisabledNoOp(object):
    def test_default_cloud_has_null_bus_and_records_nothing(self):
        cloud, _, _, router = make_routed_rig(obs=None)
        assert cloud.bus is NULL_BUS
        for _ in range(5):
            router.route()
        # No bus, no telemetry, no tracer: route() behaves as before.
        assert router.telemetry is None
        assert router.obs is None

    def test_paused_observability_collects_nothing(self):
        obs = Observability()
        obs.disable()
        cloud, _, _, router = make_routed_rig(obs)
        campaign_zone = cloud.zone("test-1a")
        router.route()
        campaign_zone.invoke_batch("dep", 10, duration=1.0, window=0.0)
        assert len(obs.recorder) == 0
        assert len(obs.registry) == 0
        assert len(obs.tracer) == 0
        obs.enable()
        router.route()
        assert obs.recorder.count("cloud.invoke") == 1
        assert len(obs.tracer) == 1

    def test_results_identical_with_and_without_obs(self):
        """Observability must never perturb the simulation itself."""
        plain_cloud, _, _, plain_router = make_routed_rig(obs=None,
                                                          seed=303)
        obs = Observability()
        obs_cloud, _, _, obs_router = make_routed_rig(obs, seed=303)
        plain = [plain_router.route() for _ in range(20)]
        observed = [obs_router.route() for _ in range(20)]
        assert [r.cpu_key for r in plain] == [r.cpu_key for r in observed]
        assert [float(r.cost) for r in plain] == \
            [float(r.cost) for r in observed]
