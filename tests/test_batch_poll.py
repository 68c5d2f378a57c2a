"""The vectorized batch-poll core (``Cloud.poll_batch``).

The load-bearing contract: the vectorized fast path and the looped
executable spec consume the cloud RNG identically and produce
**bit-identical** aggregates — same counts, same integer billing ticks,
same float totals to the last bit (``aggregate_key`` compares ``.hex()``
renderings).  A hypothesis property drives both paths across deployment
shapes, burst sizes, and multi-poll warm/cold mixes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloudsim import BatchPollResult, Cloud
from repro.cloudsim.billing import (
    AWS_LAMBDA_BILLING,
    IBM_CODE_ENGINE_BILLING,
    duration_ticks,
)
from repro.cloudsim.handlers import (
    Handler,
    ModeledWorkloadHandler,
    ScaledWorkloadHandler,
    SleepHandler,
)
from repro.common.distributions import CategoricalDistribution
from repro.common.errors import CharacterizationError
from repro.common.rng import derive_rng
from repro.faults.injector import FaultInjector
from repro.faults.models import ColdStartStorm, LatencySpike
from repro.obs import Observability
from tests.helpers import make_cloud


def _sleeper():
    return SleepHandler(0.25)


def _modeled():
    return ModeledWorkloadHandler("wl", 0.3, {}, noise_sigma=0.05,
                                  default_factor=1.0)


def _scaled():
    return ScaledWorkloadHandler(_modeled(), 1.7)


HANDLERS = {"sleep": _sleeper, "modeled": _modeled, "scaled": _scaled}


def _fault_injector(seed):
    """A storm + spike schedule active over the whole poll window.

    ``jitter_sigma`` > 0 makes the latency spike draw from the injector's
    own per-zone stream, proving fault randomness never leaks into (or
    reorders) the cloud RNG consumed by the two poll paths.
    """
    return FaultInjector([
        ColdStartStorm(multiplier=6.0),
        LatencySpike(extra_s=0.35, jitter_sigma=0.2),
    ], seed=seed)


def _poll_keys(vectorize, seed, handler_key, bursts, advance_s,
               memory_mb=1024, faulted=False):
    """Aggregate keys from a fresh seeded cloud polled ``bursts`` times."""
    cloud = make_cloud(seed=seed)
    if faulted:
        _fault_injector(seed).install(cloud)
    account = cloud.create_account("acct", "aws")
    deployment = cloud.deploy(account, "test-1a", "fn", memory_mb,
                              handler=HANDLERS[handler_key]())
    keys = []
    for n_requests in bursts:
        result = cloud.poll_batch(deployment, n_requests,
                                  vectorize=vectorize)
        keys.append(result.aggregate_key())
        cloud.clock.advance(advance_s)
    return keys


class TestBatchLoopEquivalence(object):
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        handler_key=st.sampled_from(sorted(HANDLERS)),
        bursts=st.lists(st.integers(min_value=1, max_value=700),
                        min_size=1, max_size=4),
        advance_s=st.sampled_from([5.0, 120.0, 400.0]),
    )
    def test_aggregates_bit_identical(self, seed, handler_key, bursts,
                                      advance_s):
        vectorized = _poll_keys(True, seed, handler_key, bursts, advance_s)
        looped = _poll_keys(False, seed, handler_key, bursts, advance_s)
        assert vectorized == looped

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        handler_key=st.sampled_from(sorted(HANDLERS)),
        bursts=st.lists(st.integers(min_value=1, max_value=700),
                        min_size=1, max_size=4),
        advance_s=st.sampled_from([5.0, 120.0, 400.0]),
    )
    def test_aggregates_bit_identical_under_faults(self, seed, handler_key,
                                                   bursts, advance_s):
        # Cold-start storm + jittered latency spike active on every poll:
        # both paths must consult the hooks identically (once per batch)
        # and still agree to the last bit.
        vectorized = _poll_keys(True, seed, handler_key, bursts, advance_s,
                                faulted=True)
        looped = _poll_keys(False, seed, handler_key, bursts, advance_s,
                            faulted=True)
        assert vectorized == looped

    def test_faults_actually_engage_both_paths(self):
        # Two polls 30s apart: without faults the second poll reuses warm
        # FIs; the storm's forces_cold must defeat that in BOTH paths, and
        # the spike must lift latency totals above the clean run's.
        for vectorize in (True, False):
            clean = _poll_keys(vectorize, 42, "modeled", [400, 400], 30.0)
            faulted = _poll_keys(vectorize, 42, "modeled", [400, 400], 30.0,
                                 faulted=True)
            # aggregate_key: (requested, served, failed, cold, ...) with
            # latency_total_s at index 8 as a float hex string.
            for key in faulted:
                assert key[3] == key[1]  # every served request cold-started
            assert clean[1][3] < clean[1][1]  # sanity: clean run mixed
            for clean_key, fault_key in zip(clean, faulted):
                assert float.fromhex(fault_key[8]) > \
                    float.fromhex(clean_key[8])

    def test_warm_cold_mix_stays_identical(self):
        # Two polls 30s apart: the second reuses warm FIs and places new
        # ones, exercising the mixed cold/warm multinomial split.
        vec = _poll_keys(True, 42, "modeled", [400, 600], 30.0)
        loop = _poll_keys(False, 42, "modeled", [400, 600], 30.0)
        assert vec == loop
        # The second poll did mix: some cold starts, fewer than served.
        cold = vec[1][3]
        served = vec[1][1]
        assert 0 < cold < served

    def test_account_ledgers_match(self):
        clouds = []
        for vectorize in (True, False):
            cloud = make_cloud(seed=9)
            account = cloud.create_account("acct", "aws")
            deployment = cloud.deploy(account, "test-1a", "fn", 2048,
                                      handler=_modeled())
            cloud.poll_batch(deployment, 500, vectorize=vectorize)
            clouds.append(account)
        assert float(clouds[0].total_spend()) == \
            float(clouds[1].total_spend())


class TestBatchPollResult(object):
    def test_aggregates_are_consistent(self):
        cloud = make_cloud(seed=3)
        account = cloud.create_account("acct", "aws")
        deployment = cloud.deploy(account, "test-1a", "fn", 1024,
                                  handler=_sleeper())
        result = cloud.poll_batch(deployment, 600)
        assert isinstance(result, BatchPollResult)
        assert result.requested == 600
        assert result.served == sum(result.request_cpu_counts.values())
        assert result.failed == result.requested - result.served
        assert result.cold_starts == sum(result.cold_cpu_counts.values())
        assert result.records is None  # vectorized: no per-request objects
        assert result.bill.requests == result.served
        assert result.mean_runtime_s == pytest.approx(
            result.runtime_total_s / result.served)
        assert result.cpu_distribution().total == result.served

    def test_spec_path_records_back_the_aggregates(self):
        cloud = make_cloud(seed=3)
        account = cloud.create_account("acct", "aws")
        deployment = cloud.deploy(account, "test-1a", "fn", 1024,
                                  handler=_modeled())
        result = cloud.poll_batch(deployment, 300, vectorize=False)
        records = result.records
        assert len(records) == result.served
        assert sum(r.billed_ticks for r in records) == result.billed_ticks
        assert sum(1 for r in records if r.is_cold) == result.cold_starts
        by_cpu = {}
        for record in records:
            by_cpu[record.cpu_key] = by_cpu.get(record.cpu_key, 0) + 1
        assert by_cpu == result.request_cpu_counts
        assert float(np.sum(np.asarray(
            [r.runtime_s for r in records]))) == result.runtime_total_s

    def test_emits_one_event_and_bridges_metrics(self):
        cloud = make_cloud(seed=3)
        obs = Observability().install(cloud)
        account = cloud.create_account("acct", "aws")
        deployment = cloud.deploy(account, "test-1a", "fn", 1024,
                                  handler=_sleeper())
        result = cloud.poll_batch(deployment, 500)
        events = obs.recorder.events("cloud.poll_batch")
        assert len(events) == 1
        assert events[0].fields["served"] == result.served
        zone = deployment.zone_id
        registry = obs.registry
        assert registry.get("poll_batches_total", zone=zone).value == 1
        assert registry.get("poll_batch_served_total",
                            zone=zone).value == result.served
        assert registry.get("poll_batch_cold_starts_total",
                            zone=zone).value == result.cold_starts
        # Second batch reuses the pre-bound handles.
        cloud.poll_batch(deployment, 100)
        assert registry.get("poll_batches_total", zone=zone).value == 2


class TestDurationsOnContract(object):
    """Vectorized overrides vs the base class's sequential spec."""

    @pytest.mark.parametrize("factory", [_sleeper, _modeled, _scaled])
    def test_stream_position_matches_scalar_loop(self, factory):
        handler = factory()
        vec_rng = derive_rng(7, "h")
        loop_rng = derive_rng(7, "h")
        batch = handler.durations_on("xeon-2.5", vec_rng, 50)
        scalars = [handler.duration_on("xeon-2.5", loop_rng)
                   for _ in range(50)]
        assert batch.shape == (50,)
        # Same stream consumption: the *next* draw must agree bit-for-bit.
        assert vec_rng.standard_normal() == loop_rng.standard_normal()
        # Values agree (exactly for deterministic handlers; np.exp vs
        # math.exp may differ in the last ulp for the modeled ones).
        np.testing.assert_allclose(batch, scalars, rtol=1e-12)

    def test_base_class_loop_is_the_spec(self):
        class TwoPoint(Handler):
            def duration_on(self, cpu_key, rng, payload=None):
                return 0.1 if rng.random() < 0.5 else 0.2

        handler = TwoPoint()
        a, b = derive_rng(1, "x"), derive_rng(1, "x")
        batch = handler.durations_on(None, a, 20)
        scalars = [handler.duration_on(None, b) for _ in range(20)]
        assert batch.tolist() == scalars

    def test_zero_count_consumes_nothing(self):
        handler = _modeled()
        rng = derive_rng(2, "z")
        reference = derive_rng(2, "z")
        assert handler.durations_on("cpu", rng, 0).shape == (0,)
        assert rng.standard_normal() == reference.standard_normal()


class TestSampleCounts(object):
    def test_single_category_is_deterministic_and_free(self):
        rng = derive_rng(0, "s")
        reference = derive_rng(0, "s")
        counts = CategoricalDistribution({"only": 3}).sample_counts(rng, 17)
        assert counts == {"only": 17}
        assert rng.standard_normal() == reference.standard_normal()

    def test_multinomial_matches_draw_totals(self):
        dist = CategoricalDistribution({"cold": 2, "warm": 6})
        counts = dist.sample_counts(derive_rng(1, "s"), 1000)
        assert sum(counts.values()) == 1000
        assert set(counts) <= {"cold", "warm"}
        # Heavily warm-weighted split should lean warm.
        assert counts["warm"] > counts["cold"]

    def test_empty_and_negative_raise(self):
        with pytest.raises(CharacterizationError):
            CategoricalDistribution({}).sample_counts(derive_rng(0, "s"), 1)
        with pytest.raises(CharacterizationError):
            CategoricalDistribution({"a": 1}).sample_counts(
                derive_rng(0, "s"), -1)


class TestTickBilling(object):
    def test_duration_ticks_scalar_equals_vector(self):
        rng = derive_rng(5, "t")
        durations = rng.uniform(1e-4, 3.0, size=2000)
        for model in (AWS_LAMBDA_BILLING, IBM_CODE_ENGINE_BILLING):
            vector = duration_ticks(durations, model.granularity,
                                    model.min_billed_duration)
            scalars = [int(duration_ticks(d, model.granularity,
                                          model.min_billed_duration))
                       for d in durations]
            assert vector.tolist() == scalars

    def test_ticks_match_billed_duration_quantization(self):
        model = AWS_LAMBDA_BILLING
        for duration in (1e-4, 0.001, 0.0015, 0.25, 0.9999999, 1.0):
            ticks = int(duration_ticks(duration, model.granularity,
                                       model.min_billed_duration))
            assert ticks * model.granularity == pytest.approx(
                model.billed_duration(duration))

    def test_bill_ticks_equals_summed_scalar_bills(self):
        model = AWS_LAMBDA_BILLING
        durations = [0.1, 0.25, 0.0009, 1.7]
        ticks = int(duration_ticks(np.asarray(durations),
                                   model.granularity).sum())
        aggregate = model.bill_ticks(1024, ticks, requests=len(durations))
        singles = [model.bill(1024, d, requests=1) for d in durations]
        total = singles[0]
        for bill in singles[1:]:
            total = total + bill
        assert float(aggregate.total) == pytest.approx(float(total.total))
        assert aggregate.requests == total.requests


class TestFindInstance(object):
    def test_lookup_matches_linear_scan(self):
        cloud = make_cloud(seed=1)
        account = cloud.create_account("acct", "aws")
        deployment = cloud.deploy(account, "test-1a", "fn", 1024)
        zone = cloud.zone(deployment.zone_id)
        invocations = [cloud.invoke(deployment) for _ in range(5)]
        for invocation in invocations:
            via_dict = zone.find_instance(invocation.instance_id)
            via_scan = next(
                (fi for fi in zone._fi_index[deployment.deployment_id]
                 if fi.instance_id == invocation.instance_id), None)
            assert via_dict is via_scan is not None

    def test_released_instance_resolves_to_none(self):
        cloud = make_cloud(seed=1)
        account = cloud.create_account("acct", "aws")
        deployment = cloud.deploy(account, "test-1a", "fn", 1024)
        zone = cloud.zone(deployment.zone_id)
        invocation = cloud.invoke(deployment)
        assert zone.find_instance(invocation.instance_id) is not None
        # Jump past runtime + keepalive; the next operation expires it.
        cloud.clock.advance(
            deployment.provider.adapter.keepalive.idle_ttl + 3600.0)
        cloud.invoke(deployment)
        assert zone.find_instance(invocation.instance_id) is None

    def test_hold_via_find_fi_still_works(self):
        cloud = make_cloud(seed=1)
        account = cloud.create_account("acct", "aws")
        deployment = cloud.deploy(account, "test-1a", "fn", 1024)
        invocation = cloud.invoke(deployment)
        bill = cloud.hold(deployment, invocation, 5.0)
        assert float(bill.total) > 0.0
