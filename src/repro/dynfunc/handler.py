"""Simulator-side handlers for dynamic functions.

Inside the simulator we do not execute workload source per request (EX-5
profiles each workload 10,000 times per zone); instead these handlers
combine:

* the workload's calibrated per-CPU runtime model (Figure 9 factors);
* payload decode overhead, skipped when the FI has the payload cached;
* the in-function **CPU check** used by the retry strategies: if the FI's
  CPU is on the payload's banned list, the function returns immediately
  (a few milliseconds) instead of running the workload.

Two flavours:

* :class:`DynamicFunctionHandler` — bound to one workload model (a mesh
  deployment dedicated to a single function);
* :class:`UniversalDynamicFunctionHandler` — the true dynamic function: a
  generic endpoint that resolves the workload model *from the payload*, so
  one deployment can run anything
  (:func:`repro.workloads.registry.resolve_runtime_model` is the standard
  resolver).
"""

import numpy as np

from repro.common.errors import ConfigurationError, PayloadError
from repro.cloudsim.handlers import Handler, ScaledWorkloadHandler
from repro.dynfunc.payload import DynamicPayload, payload_decode_seconds

# Cost of reading /proc/cpuinfo and comparing against the banned list.
CPU_CHECK_SECONDS = 5e-3

# Cost of a payload-hash comparison when the FI already has the data cached.
CACHE_HIT_SECONDS = 1e-4


class _DynamicOverheadBase(Handler):
    """Shared payload bookkeeping: decode overhead, cache, CPU check."""

    def __init__(self, default_payload=None):
        self.default_payload = default_payload
        self._seen_hashes = set()

    def _payload_of(self, payload):
        if payload is None:
            return self.default_payload
        if isinstance(payload, dict):
            return DynamicPayload.from_dict(payload)
        return payload

    def _decode_overhead(self, payload):
        if payload.sha256 in self._seen_hashes:
            return CACHE_HIT_SECONDS
        self._seen_hashes.add(payload.sha256)
        return payload_decode_seconds(payload)

    def _model_for(self, payload):
        raise NotImplementedError

    def duration_on(self, cpu_key, rng, payload=None):
        payload = self._payload_of(payload)
        overhead = 0.0
        if payload is not None:
            overhead = self._decode_overhead(payload)
            if cpu_key is not None and cpu_key in payload.banned_cpus:
                # CPU-based decision logic: refuse to run the workload.
                return overhead + CPU_CHECK_SECONDS
        model = self._model_for(payload)
        if cpu_key is None:
            # Occupancy estimate (batch polls pass cpu_key=None before
            # placement picks real CPUs).  Models keyed strictly by CPU
            # have no factor for None; they answer with the reference-CPU
            # mean, consuming no RNG — both batch-poll paths make this
            # call identically, so the stream contract holds.
            reference = self._reference_duration(model)
            if reference is not None:
                return overhead + reference
        return overhead + model.duration_on(cpu_key, rng)

    @staticmethod
    def _reference_duration(model):
        """Reference-CPU mean of a model with no runtime factor for
        ``None`` (where its ``duration_on(None, ...)`` would raise), else
        None.  Checked up front: the occupancy draw runs once per batch
        poll, and raising and catching costs more than the draw."""
        scale = 1.0
        while isinstance(model, ScaledWorkloadHandler):
            scale *= model.scale
            model = model.inner
        factors = getattr(model, "cpu_factors", None)
        if factors is None or factors.get(None, model.default_factor) \
                is not None:
            return None
        return scale * model.base_seconds

    def durations_on(self, cpu_key, rng, count, payload=None):
        """Vectorized batch draw, loop-equivalent to ``duration_on``.

        Only the first request of a batch can pay the full decode
        overhead (it marks the hash seen for the rest); every later one
        is a cache hit.  A banned CPU short-circuits before the model,
        consuming no RNG — exactly like ``count`` scalar calls — so the
        batch-poll RNG stream contract holds for dynamic deployments.
        """
        payload = self._payload_of(payload)
        if payload is None:
            return self._model_for(payload).durations_on(cpu_key, rng, count)
        # The first request's overhead, then a scalar add of the cache-hit
        # overhead to the rest: elementwise the same sums as adding a
        # per-request overheads array.
        first = self._decode_overhead(payload) if count else None
        if cpu_key is not None and cpu_key in payload.banned_cpus:
            runtimes = np.full(count, CACHE_HIT_SECONDS + CPU_CHECK_SECONDS)
            if count:
                runtimes[0] = first + CPU_CHECK_SECONDS
            return runtimes
        runtimes = self._model_for(payload).durations_on(cpu_key, rng, count)
        if not count:
            return runtimes + CACHE_HIT_SECONDS
        head = first + runtimes[0]
        runtimes = runtimes + CACHE_HIT_SECONDS
        runtimes[0] = head
        return runtimes

    def respond(self, cpu_key, payload=None):
        payload = self._payload_of(payload)
        declined = (payload is not None and cpu_key is not None
                    and cpu_key in payload.banned_cpus)
        model = self._model_for(payload)
        return {
            "workload": model.name,
            "cpu": cpu_key,
            "executed": not declined,
        }


class DynamicFunctionHandler(_DynamicOverheadBase):
    """A dynamic function bound to one workload model."""

    def __init__(self, workload_model, default_payload=None):
        if workload_model is None:
            raise ConfigurationError("workload_model is required")
        super(DynamicFunctionHandler, self).__init__(default_payload)
        self.workload_model = workload_model

    def _model_for(self, payload):
        return self.workload_model

    def mean_duration_on(self, cpu_key):
        """Noise-free workload runtime (no payload overhead)."""
        return self.workload_model.mean_duration_on(cpu_key)

    @property
    def name(self):
        return self.workload_model.name


class UniversalDynamicFunctionHandler(_DynamicOverheadBase):
    """The generic sky-mesh endpoint: any workload, chosen by payload.

    ``model_resolver(payload)`` maps a payload to a runtime model
    (:class:`~repro.cloudsim.handlers.ModeledWorkloadHandler`).
    """

    name = "dynamic"

    def __init__(self, model_resolver, default_payload=None):
        if model_resolver is None:
            raise ConfigurationError("model_resolver is required")
        super(UniversalDynamicFunctionHandler, self).__init__(
            default_payload)
        self._resolver = model_resolver

    def _model_for(self, payload):
        if payload is None:
            raise PayloadError(
                "a universal dynamic function needs a payload to know "
                "what to run")
        return self._resolver(payload)
