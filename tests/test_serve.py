"""The serving plane: arrivals, admission, and the coalescing gateway.

The headline contracts: seeded arrival processes are reproducible
draw-for-draw; admission conserves every request (granted + shed == n);
and a full gateway run is byte-deterministic — two rigs built from the
same seed produce identical :meth:`GatewayReport.aggregate_key`.
"""

import asyncio

import pytest

from repro import Observability, SkyController, build_sky, workload_by_name
from repro.common.errors import ConfigurationError
from repro.core.slo import default_slo_s
from repro.obs import metrics as obs_metrics
from repro.obs.metrics import Histogram
from repro.sampling import CharacterizationBuilder
from repro.serve import gateway as gateway_module
from repro.serve import (
    AdmissionController,
    DiurnalArrivals,
    GatewayConfig,
    PoissonArrivals,
    ServeGateway,
    TokenBucket,
    build_arrivals,
)
from tests.helpers import make_cloud

ZONES = ("test-1a", "test-1b")


def make_gateway(seed=7, rate_rps=2000.0, config=None, arrivals=None,
                 workload="sha1_hash"):
    """A small two-zone serving rig with pre-seeded characterizations."""
    cloud = make_cloud(seed=seed)
    obs = Observability()
    account = cloud.create_account("serve", "aws")
    controller = SkyController(cloud, account, list(ZONES), obs=obs,
                               sampling_count=2)
    for zone_id in ZONES:
        builder = CharacterizationBuilder(zone_id)
        builder.add_poll({key: pool.capacity
                          for key, pool in cloud.zone(zone_id).pools.items()
                          if pool.capacity > 0})
        profile = builder.snapshot()
        controller.store.put(profile)
        controller.tracker.observe(profile)
    if arrivals is None:
        arrivals = PoissonArrivals(rate_rps, seed=seed)
    return ServeGateway(controller, workload_by_name(workload), arrivals,
                        config or GatewayConfig())


def assert_conservation(report):
    """Every offered request ends in exactly one outcome bucket."""
    assert report.offered == report.admitted + report.shed
    assert report.admitted == report.served + report.failed


# -- arrivals -----------------------------------------------------------------

class TestArrivals(object):
    def test_poisson_seeded_and_reproducible(self):
        a = PoissonArrivals(500.0, seed=3)
        b = PoissonArrivals(500.0, seed=3)
        draws = [(a.draw(t * 0.001, 0.001), b.draw(t * 0.001, 0.001))
                 for t in range(200)]
        assert all(x == y for x, y in draws)
        assert sum(x for x, _ in draws) > 0

    def test_different_seeds_differ(self):
        a = [PoissonArrivals(500.0, seed=1).draw(0.0, 1.0)
             for _ in range(1)]
        b = [PoissonArrivals(500.0, seed=2).draw(0.0, 1.0)
             for _ in range(1)]
        # One draw each at mean 500; a collision is astronomically
        # unlikely but possible — compare a short series instead.
        one = PoissonArrivals(500.0, seed=1)
        two = PoissonArrivals(500.0, seed=2)
        assert [one.draw(t, 0.01) for t in range(20)] != \
            [two.draw(t, 0.01) for t in range(20)]

    def test_zero_rate_draws_nothing(self):
        assert PoissonArrivals(0.0, seed=0).draw(0.0, 10.0) == 0

    def test_negative_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            PoissonArrivals(-1.0)

    def test_diurnal_rate_shape(self):
        diurnal = DiurnalArrivals(100.0, 500.0, period_s=86400.0, seed=0)
        assert diurnal.rate_at(0.0) == pytest.approx(100.0)
        assert diurnal.rate_at(43200.0) == pytest.approx(500.0)
        assert diurnal.rate_at(86400.0) == pytest.approx(100.0)
        mid = diurnal.rate_at(21600.0)
        assert 100.0 < mid < 500.0

    def test_diurnal_phase_shift(self):
        shifted = DiurnalArrivals(100.0, 500.0, period_s=86400.0,
                                  phase_s=43200.0, seed=0)
        assert shifted.rate_at(0.0) == pytest.approx(500.0)

    def test_diurnal_validation(self):
        with pytest.raises(ConfigurationError):
            DiurnalArrivals(500.0, 100.0)
        with pytest.raises(ConfigurationError):
            DiurnalArrivals(1.0, 2.0, period_s=0.0)

    def test_build_arrivals_factory(self):
        assert isinstance(build_arrivals("poisson", 100.0),
                          PoissonArrivals)
        diurnal = build_arrivals("diurnal", 100.0, seed=1)
        assert isinstance(diurnal, DiurnalArrivals)
        assert diurnal.peak_rps == pytest.approx(400.0)
        with pytest.raises(ConfigurationError):
            build_arrivals("bursty", 100.0)


# -- admission ----------------------------------------------------------------

class TestAdmission(object):
    def test_disabled_bucket_grants_everything(self):
        bucket = TokenBucket(rate_rps=None)
        assert bucket.grant(10 ** 6, 0.001) == 10 ** 6

    def test_bucket_caps_sustained_rate(self):
        bucket = TokenBucket(rate_rps=100.0, burst=100.0)
        granted = sum(bucket.grant(50, 0.1) for _ in range(100))
        # 100 burst tokens + 100 rps over 10 simulated seconds.
        assert granted <= 100 + 100 * 10
        assert granted >= 100 * 10 * 0.9

    def test_burst_defaults_to_one_second(self):
        assert TokenBucket(rate_rps=250.0).burst == pytest.approx(250.0)

    def test_admit_conserves_requests(self):
        admission = AdmissionController(rate_limit_rps=100.0, burst=10.0,
                                        max_queue_depth=5)
        for queue_depth in (0, 3, 5, 50):
            granted, shed_tokens, shed_queue = admission.admit(
                40, queue_depth, 0.01)
            assert granted + shed_tokens + shed_queue == 40
            assert granted >= 0 and shed_tokens >= 0 and shed_queue >= 0

    def test_queue_full_sheds_without_token_refund(self):
        admission = AdmissionController(rate_limit_rps=100.0, burst=10.0,
                                        max_queue_depth=1)
        granted, shed_tokens, shed_queue = admission.admit(10, 1, 0.0)
        assert granted == 0
        assert shed_queue == 10 - shed_tokens
        # The queue-shed requests consumed their tokens: nothing left.
        assert admission.bucket.tokens < 1.0

    def test_nothing_to_admit(self):
        admission = AdmissionController()
        assert admission.admit(0, 0, 0.001) == (0, 0, 0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TokenBucket(rate_rps=0.0)
        with pytest.raises(ConfigurationError):
            AdmissionController(max_queue_depth=0)


# -- SLO helper ---------------------------------------------------------------

class TestDefaultSlo(object):
    def test_scales_with_workload(self):
        workload = workload_by_name("sha1_hash")
        assert default_slo_s(workload) == pytest.approx(
            3.0 * workload.base_seconds)

    def test_floor_for_fast_workloads(self):
        workload = workload_by_name("sha1_hash")
        assert default_slo_s(workload, multiplier=1e-9) == 0.25

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            default_slo_s(workload_by_name("sha1_hash"), multiplier=0.0)


# -- the gateway --------------------------------------------------------------

class TestGateway(object):
    def test_smoke_serves_and_conserves(self):
        gateway = make_gateway(seed=7, rate_rps=2000.0)
        report = gateway.run_sync(2.0)
        assert report.served > 1000
        assert report.batches_coalesced > 0
        assert report.sim_seconds == pytest.approx(2.0, rel=0.01)
        assert report.goodput_rps > 500
        assert_conservation(report)

    def test_seeded_runs_are_byte_identical(self):
        first = make_gateway(seed=11, rate_rps=1500.0).run_sync(2.0)
        second = make_gateway(seed=11, rate_rps=1500.0).run_sync(2.0)
        assert first.aggregate_key() == second.aggregate_key()

    def test_different_seeds_diverge(self):
        first = make_gateway(seed=11, rate_rps=1500.0).run_sync(1.0)
        second = make_gateway(seed=12, rate_rps=1500.0).run_sync(1.0)
        assert first.aggregate_key() != second.aggregate_key()

    def test_low_rate_falls_back_to_scalar_path(self):
        config = GatewayConfig(batch_floor=16)
        gateway = make_gateway(seed=5, rate_rps=200.0, config=config)
        report = gateway.run_sync(2.0)
        assert report.batches_scalar > 0
        assert report.batches_coalesced == 0
        assert report.served > 0
        assert_conservation(report)

    def test_rate_limit_sheds_and_reports(self):
        config = GatewayConfig(rate_limit_rps=500.0, burst=50.0)
        gateway = make_gateway(seed=9, rate_rps=2000.0, config=config)
        report = gateway.run_sync(2.0)
        assert report.shed_tokens > 0
        assert 0.0 < report.shed_rate < 1.0
        # Admitted rate honors the limit (burst allowance on top).
        assert report.admitted <= 500.0 * 2.0 + 50.0 + 1
        assert_conservation(report)
        shed_events = gateway.obs.recorder.events("serve.shed")
        assert shed_events
        assert all(e.fields["reason"] == "rate_limit" for e in shed_events)

    def test_latency_quantiles_and_slo(self):
        gateway = make_gateway(seed=7, rate_rps=1000.0)
        report = gateway.run_sync(2.0)
        p50, p99 = report.quantile_ms(0.50), report.quantile_ms(0.99)
        assert 0.0 < p50 <= p99
        assert 0.0 <= report.slo_attainment <= 1.0
        payload = report.to_dict()
        for key in ("offered", "served", "goodput_rps", "shed_rate",
                    "slo_attainment", "p50_ms", "p95_ms", "p99_ms"):
            assert key in payload

    def test_serve_metrics_reach_the_registry(self):
        gateway = make_gateway(seed=7, rate_rps=1500.0)
        report = gateway.run_sync(2.0)
        registry = gateway.obs.registry
        batches = registry.counter("serve_batches_total", mode="coalesced")
        assert batches.value == report.batches_coalesced
        served = registry.counter("serve_requests_total", outcome="served")
        assert served.value == report.served
        assert registry.histogram("serve_latency_s").count == report.served
        assert registry.counter("serve_drains_total").value == 1
        assert registry.counter("serve_offered_total").value == \
            report.offered

    def test_drain_flushes_buffered_requests(self):
        # A huge batch size and a long deadline keep arrivals buffered;
        # the drain must dispatch them rather than drop them.
        config = GatewayConfig(batch_size=10 ** 6, flush_deadline_s=10.0)
        gateway = make_gateway(seed=7, rate_rps=2000.0, config=config)

        async def scenario():
            run = asyncio.ensure_future(gateway.run(60.0))
            while gateway.report.offered < 500:
                await asyncio.sleep(0)
            gateway.request_drain()
            return await run

        report = asyncio.run(scenario())
        assert report.drained > 0
        assert report.sim_seconds < 60.0
        assert_conservation(report)
        drains = gateway.obs.recorder.events("serve.drain")
        assert len(drains) == 1
        assert drains[0].fields["requested"] is True
        assert drains[0].fields["drained"] == report.drained

    @pytest.mark.parametrize("wall_pace, fewest, most", [
        # One yield per 10-ms decision interval, plus a few from the
        # run's start and drain.
        (0.0, 20, 25),
        # A paced loop sleeps on every 1-ms tick (the watcher may spin
        # more than once while a sleep's timer runs).
        (1e-6, 200, None),
    ])
    def test_yields_once_per_decision_interval(self, wall_pace, fewest,
                                               most):
        # The tick loop's yields are what a coroutine sharing the event
        # loop gets to run on; an idle unpaced loop gives one per
        # decide_every_s of sim time, not one per tick.
        config = GatewayConfig(wall_pace=wall_pace)
        gateway = make_gateway(seed=7, rate_rps=2000.0, config=config)
        wakeups = []

        async def scenario():
            run = asyncio.ensure_future(gateway.run(0.2))
            while not run.done():
                wakeups.append(gateway.cloud.clock.now)
                await asyncio.sleep(0)
            return await run

        report = asyncio.run(scenario())
        assert report.recharacterizations == 0
        assert len(wakeups) >= fewest
        assert most is None or len(wakeups) <= most

    def test_diurnal_arrivals_track_the_curve(self):
        arrivals = DiurnalArrivals(200.0, 4000.0, period_s=4.0, seed=3)
        gateway = make_gateway(seed=3, arrivals=arrivals)
        report = gateway.run_sync(4.0)
        assert report.served > 0
        assert_conservation(report)
        # Offered volume must reflect the mean rate, not the trough.
        mean_rate = (200.0 + 4000.0) / 2.0
        assert report.offered > 4.0 * 200.0 * 2
        assert report.offered < 4.0 * mean_rate * 2

    def test_run_validation(self):
        gateway = make_gateway()
        with pytest.raises(ConfigurationError):
            gateway.run_sync(0.0)
        with pytest.raises(ConfigurationError):
            GatewayConfig(batch_size=0)
        with pytest.raises(ConfigurationError):
            GatewayConfig(tick_s=0.0)
        with pytest.raises(ConfigurationError):
            ServeGateway(gateway.controller, gateway.workload,
                         arrivals="not-a-process")

    def test_wall_pace_changes_wall_time_not_results(self):
        flat = make_gateway(seed=21, rate_rps=800.0).run_sync(0.5)
        config = GatewayConfig(wall_pace=0.01)
        paced = make_gateway(seed=21, rate_rps=800.0,
                             config=config).run_sync(0.5)
        assert flat.aggregate_key() == paced.aggregate_key()


# -- latency folds -------------------------------------------------------------
SKY_ZONES = ("us-west-1a", "us-west-1b")


def make_sky_gateway(seed=3, rate_rps=50000.0, config=None):
    """A rig on two catalog zones, big enough that a report window
    folds more latencies than the columnar reservoir replay needs."""
    cloud = build_sky(seed=seed, aws_only=True)
    account = cloud.create_account("serve", "aws")
    controller = SkyController(cloud, account, list(SKY_ZONES),
                               obs=Observability(), sampling_count=2)
    for zone_id in SKY_ZONES:
        builder = CharacterizationBuilder(zone_id)
        builder.add_poll({key: pool.capacity
                          for key, pool in cloud.zone(zone_id).pools.items()
                          if pool.capacity > 0})
        profile = builder.snapshot()
        controller.store.put(profile)
        controller.tracker.observe(profile)
    return ServeGateway(controller, workload_by_name("sha1_hash"),
                        PoissonArrivals(rate_rps, seed=seed),
                        config or GatewayConfig())


def record_flushes(gateway):
    """Copies of every flush's served latencies, in flush order."""
    flushes = []
    observe = gateway._observe_latencies

    def spy(latencies):
        flushes.append(latencies.copy())
        observe(latencies)

    gateway._observe_latencies = spy
    return flushes


def histogram_state(histogram):
    return (histogram.count, list(histogram.bucket_counts),
            histogram.sum.hex(), histogram.min, histogram.max,
            list(histogram._reservoir), histogram._rng.getstate())


def spec_state(flushes):
    """Each flush observed element by element as it happened; ``sum``
    adds each flush's numpy sum, as per-flush ``observe_many`` did."""
    spec = Histogram()
    total = 0.0
    for latencies in flushes:
        for value in latencies.tolist():
            spec.observe(value)
        total += float(latencies.sum())
    state = histogram_state(spec)
    return state[:2] + (total.hex(),) + state[3:]


@pytest.fixture
def replays(monkeypatch):
    """Sizes of the columnar reservoir replays a test triggers."""
    sizes = []
    replay = obs_metrics._replay_slots

    def spy(rng, count, n):
        sizes.append(n)
        return replay(rng, count, n)

    monkeypatch.setattr(obs_metrics, "_replay_slots", spy)
    return sizes


class TestLatencyFold(object):
    """The gateway buffers served latencies and folds them at report
    boundaries, at ``FOLD_VALUES``, and when a run ends; its latency
    histogram must end exactly where per-flush observation would."""

    @staticmethod
    def assert_folded(gateway, flushes):
        expected = spec_state(flushes)
        report = gateway.report
        assert histogram_state(report.histogram) == expected
        registry = gateway.obs.registry.get("serve_latency_s")
        assert histogram_state(registry) == expected
        assert report.histogram.count == report.served
        assert report.histogram.sum.hex() == \
            float(report.latency_sum_s).hex()

    def test_report_window_folds_match_the_spec(self, replays):
        gateway = make_sky_gateway()
        flushes = record_flushes(gateway)
        report = gateway.run_sync(1.5)
        assert report.served > 2 * obs_metrics._COLUMNAR_MIN
        assert replays  # the window fold ran columnar
        self.assert_folded(gateway, flushes)

    def test_threshold_folds_match_the_spec(self, monkeypatch, replays):
        monkeypatch.setattr(gateway_module, "FOLD_VALUES", 5000)
        config = GatewayConfig(report_every_s=100.0)
        gateway = make_sky_gateway(seed=4, config=config)
        flushes = record_flushes(gateway)
        gateway.run_sync(1.5)
        assert len(replays) >= 2
        self.assert_folded(gateway, flushes)

    def test_report_histogram_is_the_registry_series(self):
        gateway = make_gateway()
        assert gateway.report.histogram is \
            gateway.obs.registry.histogram("serve_latency_s")

    def test_second_gateway_on_a_used_facade_raises(self):
        gateway = make_gateway(rate_rps=1500.0)
        gateway.run_sync(0.5)
        assert gateway.report.served
        with pytest.raises(ConfigurationError, match="serve_latency_s"):
            ServeGateway(gateway.controller, gateway.workload,
                         PoissonArrivals(1500.0, seed=7))

    def test_drained_run_accounts_every_latency(self):
        config = GatewayConfig(report_every_s=100.0)
        gateway = make_sky_gateway(seed=5, config=config)
        flushes = record_flushes(gateway)
        tick = gateway._tick

        def tick_then_drain(now):
            tick(now)
            if gateway.report.served > 3000:
                gateway.request_drain()

        gateway._tick = tick_then_drain
        report = gateway.run_sync(60.0)
        assert report.sim_seconds < 60.0
        self.assert_folded(gateway, flushes)

    def test_aborted_run_accounts_every_latency(self):
        config = GatewayConfig(report_every_s=100.0)
        gateway = make_sky_gateway(seed=6, config=config)
        flushes = record_flushes(gateway)
        dispatch = gateway.router.dispatch_batch
        calls = []

        def failing_dispatch(*args, **kwargs):
            calls.append(1)
            if len(calls) > 40:
                raise RuntimeError("flush failed")
            return dispatch(*args, **kwargs)

        gateway.router.dispatch_batch = failing_dispatch
        with pytest.raises(RuntimeError):
            gateway.run_sync(5.0)
        assert gateway.report.served > 0
        self.assert_folded(gateway, flushes)
