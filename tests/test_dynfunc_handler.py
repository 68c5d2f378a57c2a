"""Simulator-side dynamic-function handlers."""

import numpy as np
import pytest

from repro.common.errors import ConfigurationError, PayloadError
from repro.common.rng import derive_rng
from repro.cloudsim.handlers import (
    ModeledWorkloadHandler,
    ScaledWorkloadHandler,
)
from repro.dynfunc import (
    CPU_CHECK_SECONDS,
    DynamicFunctionHandler,
    UniversalDynamicFunctionHandler,
    build_payload,
)
from repro.dynfunc.handler import CACHE_HIT_SECONDS

SOURCE = "def handler(event, context):\n    return 1\n"


def model(name="wl", base=10.0):
    return ModeledWorkloadHandler(name, base, {"fast": 0.9, "slow": 1.3},
                                  noise_sigma=0.0)


class TestDynamicFunctionHandler(object):
    def test_requires_model(self):
        with pytest.raises(ConfigurationError):
            DynamicFunctionHandler(None)

    def test_duration_without_payload_is_pure_workload(self):
        handler = DynamicFunctionHandler(model())
        assert handler.duration_on("fast", None) == pytest.approx(9.0)

    def test_first_payload_pays_decode_overhead(self):
        handler = DynamicFunctionHandler(model())
        payload = build_payload(SOURCE)
        with_payload = handler.duration_on("fast", None, payload)
        assert with_payload > 9.0

    def test_cached_payload_is_nearly_free(self):
        handler = DynamicFunctionHandler(model())
        payload = build_payload(SOURCE)
        first = handler.duration_on("fast", None, payload)
        second = handler.duration_on("fast", None, payload)
        assert second < first
        assert second == pytest.approx(9.0, abs=1e-3)

    def test_banned_cpu_returns_check_only(self):
        handler = DynamicFunctionHandler(model())
        payload = build_payload(SOURCE).with_banned_cpus(["slow"])
        handler.duration_on("slow", None, payload)  # decode round
        duration = handler.duration_on("slow", None, payload)
        assert duration == pytest.approx(
            CPU_CHECK_SECONDS, abs=1e-3)

    def test_allowed_cpu_runs_workload(self):
        handler = DynamicFunctionHandler(model())
        payload = build_payload(SOURCE).with_banned_cpus(["slow"])
        handler.duration_on("fast", None, payload)
        assert handler.duration_on(
            "fast", None, payload) == pytest.approx(9.0, abs=1e-3)

    def test_respond_reports_declined(self):
        handler = DynamicFunctionHandler(model())
        payload = build_payload(SOURCE).with_banned_cpus(["slow"])
        assert handler.respond("slow", payload)["executed"] is False
        assert handler.respond("fast", payload)["executed"] is True

    def test_default_payload_used(self):
        payload = build_payload(SOURCE)
        handler = DynamicFunctionHandler(model(), default_payload=payload)
        first = handler.duration_on("fast", None)
        assert first > 9.0

    def test_mean_duration_skips_overhead(self):
        handler = DynamicFunctionHandler(model())
        assert handler.mean_duration_on("slow") == pytest.approx(13.0)


class TestUniversalHandler(object):
    def test_resolves_model_from_payload(self):
        models = {"alpha": model("alpha", 5.0), "beta": model("beta", 20.0)}
        handler = UniversalDynamicFunctionHandler(
            lambda payload: models[payload.args["workload"]])
        alpha = build_payload(SOURCE, args={"workload": "alpha"})
        beta = build_payload(SOURCE, args={"workload": "beta"})
        handler.duration_on("fast", None, alpha)
        handler.duration_on("fast", None, beta)
        assert handler.duration_on("fast", None,
                                   alpha) == pytest.approx(4.5, abs=1e-3)
        assert handler.duration_on("fast", None,
                                   beta) == pytest.approx(18.0, abs=1e-3)

    def test_requires_payload(self):
        handler = UniversalDynamicFunctionHandler(lambda payload: model())
        with pytest.raises(PayloadError):
            handler.duration_on("fast", None, None)

    def test_requires_resolver(self):
        with pytest.raises(ConfigurationError):
            UniversalDynamicFunctionHandler(None)

    def test_registry_resolver_for_real_workloads(self):
        from repro.workloads import resolve_runtime_model, workload_by_name
        handler = UniversalDynamicFunctionHandler(resolve_runtime_model)
        workload = workload_by_name("zipper")
        payload = workload.payload()
        handler.duration_on("xeon-2.5", None, payload)
        duration = handler.duration_on("xeon-2.5", None, payload)
        assert duration == pytest.approx(workload.base_seconds, rel=0.2)

    def test_registry_resolver_rejects_anonymous_payload(self):
        from repro.workloads import resolve_runtime_model
        handler = UniversalDynamicFunctionHandler(resolve_runtime_model)
        payload = build_payload(SOURCE)  # no workload arg
        with pytest.raises(PayloadError):
            handler.duration_on("xeon-2.5", None, payload)


def _reference_durations_on(handler, cpu_key, rng, count, payload=None):
    """The per-request overheads-array form of ``durations_on``: decode
    overhead on the first request, cache hits after, the CPU check
    short-circuiting banned CPUs."""
    payload = handler._payload_of(payload)
    overheads = None
    if payload is not None:
        overheads = np.full(count, CACHE_HIT_SECONDS, dtype=np.float64)
        if count:
            overheads[0] = handler._decode_overhead(payload)
        if cpu_key is not None and cpu_key in payload.banned_cpus:
            return overheads + CPU_CHECK_SECONDS
    runtimes = handler._model_for(payload).durations_on(cpu_key, rng, count)
    if overheads is not None:
        runtimes = overheads + runtimes
    return runtimes


def _noisy_model():
    return ScaledWorkloadHandler(ModeledWorkloadHandler(
        "wl", 10.0, {"fast": 0.9, "slow": 1.3}, noise_sigma=0.05), 1.5)


class TestDurationsOnMatchesOverheadsArray(object):
    """The scalar cache-hit add must reproduce the overheads array's
    bytes and RNG consumption on every branch."""

    @pytest.mark.parametrize("cpu_key", ["fast", "slow"])
    @pytest.mark.parametrize("count", [0, 1, 257])
    @pytest.mark.parametrize("with_payload", [True, False])
    @pytest.mark.parametrize("repeat", [False, True])
    def test_bytes_and_stream(self, cpu_key, count, with_payload, repeat):
        payload = (build_payload(SOURCE).with_banned_cpus(["slow"])
                   if with_payload else None)
        fast = DynamicFunctionHandler(_noisy_model())
        spec = DynamicFunctionHandler(_noisy_model())
        fast_rng, spec_rng = derive_rng(3, "d"), derive_rng(3, "d")
        for _ in range(2 if repeat else 1):  # the second call is cached
            got = fast.durations_on(cpu_key, fast_rng, count, payload)
            want = _reference_durations_on(spec, cpu_key, spec_rng, count,
                                           payload)
            assert got.dtype == want.dtype == np.float64
            assert got.tobytes() == want.tobytes()
            assert fast._seen_hashes == spec._seen_hashes
        assert fast_rng.bit_generator.state == spec_rng.bit_generator.state


class TestOccupancyDraw(object):
    """``duration_on(None, ...)`` — the batch poll's occupancy estimate —
    answers a CPU-keyed model with its reference-CPU mean, drawing no RNG
    and raising nothing on the way."""

    def test_reference_mean_without_raising(self, monkeypatch):
        handler = DynamicFunctionHandler(_noisy_model())

        def refuse(*args, **kwargs):
            raise AssertionError("the model must not be asked for None")

        monkeypatch.setattr(handler.workload_model, "duration_on", refuse)
        rng, reference = derive_rng(4, "o"), derive_rng(4, "o")
        payload = build_payload(SOURCE)
        first = handler.duration_on(None, rng, payload)
        again = handler.duration_on(None, rng, payload)
        assert again == CACHE_HIT_SECONDS + 1.5 * 10.0
        assert first > again  # the first call paid the decode
        assert rng.bit_generator.state == reference.bit_generator.state

    def test_model_with_a_default_factor_still_draws(self):
        model = ModeledWorkloadHandler("wl", 2.0, {}, noise_sigma=0.05,
                                       default_factor=1.2)
        handler = DynamicFunctionHandler(model)
        rng, reference = derive_rng(5, "o"), derive_rng(5, "o")
        assert handler.duration_on(None, rng) == model.duration_on(
            None, reference)
        assert rng.bit_generator.state == reference.bit_generator.state
