"""FaaS billing models.

Serverless platforms bill **GB-seconds of allocated memory** (duration
rounded up to a granularity, usually 1 ms) plus a small per-request fee.
Crucially for the paper's regional routing strategy: *network latency is not
billed* — only time spent inside the FI — so routing to a distant zone with
faster CPUs lowers cost even though round-trip time grows.

Rates are the providers' published on-demand prices (2024/2025 era):

* AWS Lambda: $1.66667e-5 / GB-s (x86_64), $1.33334e-5 / GB-s (arm64),
  $0.20 per million requests;
* IBM Code Engine: memory $3.56e-6 / GB-s plus vCPU $3.431e-5 / vCPU-s
  (vCPU scales with the memory setting), folded into an effective GB-s rate;
* Digital Ocean Functions: $1.85e-5 / GB-s, no per-request fee.
"""

import math

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.units import Money


def duration_ticks(durations_s, granularity, min_billed_duration=0.0):
    """Billed granularity ticks per duration, as exact integers.

    Vectorized form of the ``ceil(round(d / g, 9))`` quantization inside
    :meth:`BillingModel.bill`.  Works elementwise on arrays *and* scalars
    through the same numpy ufuncs, so a per-request loop calling this on
    scalars produces bit-identical ticks to one call on the full array —
    the contract that lets the batch poll path aggregate billing as an
    integer tick total (exact summation, no float ordering effects)
    while the looped executable spec quantizes request by request.
    """
    d = np.asarray(durations_s, dtype=np.float64)
    if min_billed_duration > 0.0:
        d = np.maximum(d, min_billed_duration)
    return np.ceil(np.round(d / granularity, 9)).astype(np.int64)


class InvocationBill(object):
    """Cost breakdown for one or more invocations."""

    __slots__ = ("compute", "request", "billed_duration", "requests")

    def __init__(self, compute, request, billed_duration, requests):
        self.compute = compute
        self.request = request
        self.billed_duration = billed_duration
        self.requests = requests

    @property
    def total(self):
        # Money + Money, without the operator's type dispatch.
        return Money(self.compute.usd + self.request.usd)

    def __add__(self, other):
        return InvocationBill(
            self.compute + other.compute,
            self.request + other.request,
            self.billed_duration + other.billed_duration,
            self.requests + other.requests,
        )

    def __repr__(self):
        return "InvocationBill(total={}, requests={})".format(
            self.total, self.requests)

    @classmethod
    def zero(cls):
        return cls(Money(0), Money(0), 0.0, 0)


class BillingModel(object):
    """Per-provider pricing: GB-second rates by architecture plus request fee."""

    __slots__ = ("gb_second_rates", "per_request", "granularity",
                 "min_billed_duration")

    def __init__(self, gb_second_rates, per_request=0.0, granularity=1e-3,
                 min_billed_duration=0.0):
        if not gb_second_rates:
            raise ConfigurationError("need at least one GB-second rate")
        self.gb_second_rates = dict(gb_second_rates)
        self.per_request = float(per_request)
        self.granularity = float(granularity)
        self.min_billed_duration = float(min_billed_duration)

    def billed_duration(self, duration_s):
        """Round a raw duration up to the billing granularity."""
        duration_s = max(duration_s, self.min_billed_duration)
        ticks = math.ceil(round(duration_s / self.granularity, 9))
        return ticks * self.granularity

    def rate_for(self, arch):
        try:
            return self.gb_second_rates[arch]
        except KeyError:
            raise ConfigurationError(
                "no billing rate for architecture {!r}".format(arch))

    def bill(self, memory_mb, duration_s, arch="x86_64", requests=1):
        """Bill ``requests`` invocations of ``duration_s`` each."""
        if requests < 0:
            raise ConfigurationError("requests must be non-negative")
        # billed_duration / rate_for / gb_seconds, inlined with the same
        # operation order: this runs once per invocation and per poll.
        granularity = self.granularity
        if duration_s < self.min_billed_duration:
            duration_s = self.min_billed_duration
        billed = math.ceil(round(duration_s / granularity, 9)) * granularity
        try:
            rate = self.gb_second_rates[arch]
        except KeyError:
            raise ConfigurationError(
                "no billing rate for architecture {!r}".format(arch))
        compute = Money(rate * (memory_mb / 1024.0 * billed) * requests)
        request_fee = Money(self.per_request * requests)
        return InvocationBill(compute, request_fee, billed * requests,
                              requests)

    def bill_ticks(self, memory_mb, ticks, arch="x86_64", requests=1):
        """Bill an aggregate of ``ticks`` granularity ticks over
        ``requests`` invocations (see :func:`duration_ticks`).

        The batch poll path sums per-request integer ticks — an exact
        sum regardless of order — and converts to money once, so its
        total is bit-identical whether the ticks were accumulated by a
        vectorized reduction or a per-request loop.
        """
        if requests < 0 or ticks < 0:
            raise ConfigurationError(
                "ticks and requests must be non-negative")
        billed = int(ticks) * self.granularity
        try:
            rate = self.gb_second_rates[arch]
        except KeyError:
            raise ConfigurationError(
                "no billing rate for architecture {!r}".format(arch))
        compute = Money(rate * (memory_mb / 1024.0 * billed))
        request_fee = Money(self.per_request * requests)
        return InvocationBill(compute, request_fee, billed, requests)


AWS_LAMBDA_BILLING = BillingModel(
    gb_second_rates={"x86_64": 1.66667e-5, "arm64": 1.33334e-5},
    per_request=2e-7,
    granularity=1e-3,
)

# IBM Code Engine couples vCPU to memory (0.5 vCPU per GB in its standard
# profiles); effective rate per GB-s = mem + 0.5 * vcpu rate.
IBM_CODE_ENGINE_BILLING = BillingModel(
    gb_second_rates={"x86_64": 3.56e-6 + 0.5 * 3.431e-5},
    per_request=0.0,
    granularity=0.1,
)

DIGITAL_OCEAN_BILLING = BillingModel(
    gb_second_rates={"x86_64": 1.85e-5},
    per_request=0.0,
    granularity=1e-3,
    min_billed_duration=0.0,
)
