"""Provider configurations: AWS Lambda, IBM Code Engine, Digital Ocean.

A :class:`ProviderConfig` captures everything that differs between FaaS
platforms from the perspective of the experiments: the deployable memory
ladder, supported architectures, billing, the adapter holding quota,
keep-alive and cold-start behaviour, and the client fan-out *arrival
window* model used by the unique-FI analysis (Figure 3).
"""

from repro.common.errors import ConfigurationError
from repro.common.units import MILLIS, MINUTES
from repro.cloudsim.adapters import (
    FixedColdStart,
    HardCapQuota,
    ProviderAdapter,
    SlidingWindowKeepAlive,
)
from repro.cloudsim.billing import (
    AWS_LAMBDA_BILLING,
    DIGITAL_OCEAN_BILLING,
    IBM_CODE_ENGINE_BILLING,
)


class ProviderConfig(object):
    """Static description of one FaaS platform.

    ``adapter`` bundles the platform's pluggable behavior — cold-start
    distribution, keep-alive policy, quota model, pool scaling,
    preemption (:mod:`repro.cloudsim.adapters`) — and is the only place
    those are stated.
    """

    __slots__ = ("name", "memory_options_mb", "archs", "billing", "adapter",
                 "slots_per_host", "base_arrival_window",
                 "reference_memory_mb", "window_exponent",
                 "function_timeout")

    def __init__(self, name, memory_options_mb, archs, billing, adapter,
                 slots_per_host=64, base_arrival_window=0.25,
                 reference_memory_mb=2048, window_exponent=0.5,
                 function_timeout=900.0):
        if not memory_options_mb:
            raise ConfigurationError("provider needs memory options")
        self.name = name
        self.memory_options_mb = tuple(sorted(memory_options_mb))
        self.archs = tuple(archs)
        self.billing = billing
        self.adapter = adapter
        self.slots_per_host = int(slots_per_host)
        self.base_arrival_window = float(base_arrival_window)
        self.reference_memory_mb = int(reference_memory_mb)
        self.window_exponent = float(window_exponent)
        self.function_timeout = float(function_timeout)

    def validate_memory(self, memory_mb):
        """Memory settings need not be on the ladder (AWS allows any MB in
        range) but must lie within the provider's envelope and be an
        integral MB count — 512.7 MB is a caller bug, not 512 MB."""
        low, high = self.memory_options_mb[0], self.memory_options_mb[-1]
        if not low <= memory_mb <= high:
            raise ConfigurationError(
                "{}: memory {} MB outside [{}, {}]".format(
                    self.name, memory_mb, low, high))
        value = int(memory_mb)
        if value != memory_mb:
            raise ConfigurationError(
                "{}: memory {!r} MB is not an integral MB count".format(
                    self.name, memory_mb))
        return value

    def validate_arch(self, arch):
        if arch not in self.archs:
            raise ConfigurationError(
                "{} does not offer architecture {!r}".format(self.name, arch))
        return arch

    def arrival_window(self, memory_mb):
        """Client fan-out spread for a 1,000-request poll at ``memory_mb``.

        Lower-memory functions initialise and schedule more slowly, widening
        the window over which requests land — which is why the paper needed
        longer sleeps at low memory to force unique FIs (Figure 3).
        """
        ratio = self.reference_memory_mb / float(memory_mb)
        window = self.base_arrival_window * ratio ** self.window_exponent
        return min(max(window, 0.05), 3.0)

    def __repr__(self):
        return "ProviderConfig({!r})".format(self.name)


AWS_LAMBDA = ProviderConfig(
    name="aws",
    # 128 MB .. 10,240 MB; the sky mesh ladder uses the paper's settings.
    memory_options_mb=(128, 256, 512, 1024, 2048, 4096, 6144, 8192, 10240),
    archs=("x86_64", "arm64"),
    billing=AWS_LAMBDA_BILLING,
    slots_per_host=64,
    base_arrival_window=0.25,
    adapter=ProviderAdapter(
        cold_start=FixedColdStart(0.18),
        keepalive=SlidingWindowKeepAlive(5 * MINUTES),
        quota=HardCapQuota(1000),
    ),
)

IBM_CODE_ENGINE = ProviderConfig(
    name="ibm",
    memory_options_mb=(1024, 2048, 4096),
    archs=("x86_64",),
    billing=IBM_CODE_ENGINE_BILLING,
    slots_per_host=48,
    base_arrival_window=0.45,
    adapter=ProviderAdapter(
        cold_start=FixedColdStart(0.55),
        keepalive=SlidingWindowKeepAlive(10 * MINUTES),
        quota=HardCapQuota(250),
    ),
)

DIGITAL_OCEAN = ProviderConfig(
    name="do",
    memory_options_mb=(128, 256, 512, 1024),
    archs=("x86_64",),
    billing=DIGITAL_OCEAN_BILLING,
    slots_per_host=32,
    base_arrival_window=0.50,
    adapter=ProviderAdapter(
        cold_start=FixedColdStart(0.40),
        keepalive=SlidingWindowKeepAlive(10 * MINUTES),
        quota=HardCapQuota(120),
    ),
)

PROVIDERS = {
    "aws": AWS_LAMBDA,
    "ibm": IBM_CODE_ENGINE,
    "do": DIGITAL_OCEAN,
}

#: The providers the paper's sky mesh measures directly; scenario packs
#: register additional named providers on top of these.
CORE_PROVIDERS = ("aws", "ibm", "do")


def register_provider(config):
    """Register ``config`` so it resolves by name everywhere a provider
    name is accepted (catalog install, ``CloudSpec``, CLI ``--provider``).
    A name registers once.
    """
    if config.name in PROVIDERS:
        raise ConfigurationError(
            "provider {!r} already registered".format(config.name))
    PROVIDERS[config.name] = config
    return config


def provider_by_name(name):
    try:
        return PROVIDERS[name]
    except KeyError:
        pass
    # Scenario packs register lazily on first lookup, so merely importing
    # the simulator never drags the pack tables in.
    from repro.cloudsim import packs  # noqa: F401 (import registers packs)
    try:
        return PROVIDERS[name]
    except KeyError:
        raise ConfigurationError("unknown provider {!r}".format(name))


# The paper's sampling functions sleep 250 ms; cold start adds ~180 ms of
# unbilled init.  Exposed as a constant so sampling and billing agree.
SAMPLING_OVERHEAD = 1 * MILLIS
