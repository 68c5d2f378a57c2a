"""Scenario packs: named providers with genuinely different semantics.

The paper's sky mesh spans AWS Lambda, IBM Code Engine, and Digital
Ocean; Lithops-style adapter registries target a dozen FaaS *and* CaaS
backends beyond those.  Each pack here is a full
:class:`~repro.cloudsim.provider.ProviderConfig` with its own
:class:`~repro.cloudsim.adapters.ProviderAdapter` and billing model,
registered by name so it works everywhere a provider name is accepted
today — catalog install (each pack owns a synthetic region in
``PACK_REGION_SPECS``), ``CloudSpec.for_zones``, ``repro sweep``,
``repro serve``, and the CLI ``--provider`` filter:

* ``gcp`` — lognormal cold starts, token-refill quota, 100 ms billing;
* ``azure`` — bimodal cold starts (fast worker reuse vs rare slow
  provisioning), burst-then-throttle quota, 100 ms minimum bill;
* ``openwhisk`` — lognormal cold starts and a fixed one-hour container
  lease capping warm reuse;
* ``ce-caas`` — Code-Engine-style CaaS: slow container cold starts,
  container reuse with a pinned min-instance floor, per-second billing;
* ``spot`` — Lambda-like semantics at a steep discount with seeded
  interval preemption reclaiming warm capacity.

Numbers are representative of published measurement studies, not
quotes; they exist to exercise the adapter axes, not to price real
bills.  Importing this module registers every pack (idempotently);
:func:`~repro.cloudsim.provider.provider_by_name` imports it lazily on
the first unknown-name lookup.
"""

from repro.cloudsim.adapters import (
    BimodalColdStart,
    BurstThenThrottleQuota,
    ContainerReuseKeepAlive,
    FixedColdStart,
    FixedLeaseKeepAlive,
    HardCapQuota,
    LognormalColdStart,
    PoolScalingRule,
    ProviderAdapter,
    SlidingWindowKeepAlive,
    TokenRefillQuota,
)
from repro.cloudsim.billing import BillingModel
from repro.cloudsim.provider import PROVIDERS, ProviderConfig

# -- pack billing models -------------------------------------------------------

# GCP-style: memory + folded vCPU rate, billed at 100 ms granularity.
GCP_BILLING = BillingModel(
    gb_second_rates={"x86_64": 1.65e-5},
    per_request=4e-7,
    granularity=0.1,
)

# Azure-consumption-style: 1 ms granularity but a 100 ms minimum bill.
AZURE_BILLING = BillingModel(
    gb_second_rates={"x86_64": 1.6e-5},
    per_request=2e-7,
    granularity=1e-3,
    min_billed_duration=0.1,
)

# OpenWhisk-style (IBM Cloud Functions pricing): flat GB-s, 100 ms ticks.
OPENWHISK_BILLING = BillingModel(
    gb_second_rates={"x86_64": 1.7e-5},
    per_request=0.0,
    granularity=0.1,
)

# CaaS: allocated container-seconds (memory + coupled vCPU), per-second.
CE_CAAS_BILLING = BillingModel(
    gb_second_rates={"x86_64": 3.56e-6 + 0.5 * 3.431e-5},
    per_request=0.0,
    granularity=1.0,
)

# Spot: Lambda-shaped pricing at a deep discount — the whole point.
SPOT_BILLING = BillingModel(
    gb_second_rates={"x86_64": 1.66667e-5 * 0.35,
                     "arm64": 1.33334e-5 * 0.35},
    per_request=2e-7,
    granularity=1e-3,
)

# -- pack providers ------------------------------------------------------------

GCP_FUNCTIONS = ProviderConfig(
    name="gcp",
    memory_options_mb=(128, 256, 512, 1024, 2048, 4096, 8192),
    archs=("x86_64",),
    billing=GCP_BILLING,
    slots_per_host=64,
    base_arrival_window=0.30,
    function_timeout=540.0,
    adapter=ProviderAdapter(
        cold_start=LognormalColdStart(median_s=0.45, sigma=0.35),
        keepalive=SlidingWindowKeepAlive(900.0),
        quota=TokenRefillQuota(capacity=1000, refill_per_s=250.0),
        scaling=PoolScalingRule(slots_per_minute=12),
    ),
)

AZURE_FUNCTIONS = ProviderConfig(
    name="azure",
    memory_options_mb=(128, 256, 512, 1024, 1536),
    archs=("x86_64",),
    billing=AZURE_BILLING,
    slots_per_host=48,
    base_arrival_window=0.40,
    function_timeout=600.0,
    adapter=ProviderAdapter(
        cold_start=BimodalColdStart(fast_s=0.25, slow_s=2.5,
                                    slow_share=0.15),
        keepalive=SlidingWindowKeepAlive(1200.0),
        quota=BurstThenThrottleQuota(burst=600, sustained=200,
                                     window_s=60.0),
    ),
)

OPENWHISK = ProviderConfig(
    name="openwhisk",
    memory_options_mb=(128, 256, 512, 1024, 2048),
    archs=("x86_64",),
    billing=OPENWHISK_BILLING,
    slots_per_host=32,
    base_arrival_window=0.45,
    function_timeout=300.0,
    adapter=ProviderAdapter(
        cold_start=LognormalColdStart(median_s=0.30, sigma=0.5),
        keepalive=FixedLeaseKeepAlive(idle_ttl=600.0, lease_s=3600.0),
        quota=HardCapQuota(300),
        scaling=PoolScalingRule(slots_per_minute=4, surge_floor=128),
    ),
)

CODE_ENGINE_CAAS = ProviderConfig(
    name="ce-caas",
    memory_options_mb=(1024, 2048, 4096, 8192),
    archs=("x86_64",),
    billing=CE_CAAS_BILLING,
    slots_per_host=48,
    base_arrival_window=0.45,
    function_timeout=600.0,
    adapter=ProviderAdapter(
        cold_start=LognormalColdStart(median_s=2.2, sigma=0.3),
        keepalive=ContainerReuseKeepAlive(idle_ttl=600.0,
                                          min_instances=96),
        quota=HardCapQuota(250),
    ),
)

SPOT_LAMBDA = ProviderConfig(
    name="spot",
    memory_options_mb=(128, 256, 512, 1024, 2048, 4096, 6144, 8192,
                       10240),
    archs=("x86_64", "arm64"),
    billing=SPOT_BILLING,
    slots_per_host=64,
    base_arrival_window=0.25,
    adapter=ProviderAdapter(
        cold_start=FixedColdStart(0.18),
        keepalive=SlidingWindowKeepAlive(300.0),
        quota=HardCapQuota(1000),
        preemption=(300.0, 0.25),
    ),
)

#: Pack name -> ProviderConfig, in registration order.
PACK_PROVIDERS = {
    "gcp": GCP_FUNCTIONS,
    "azure": AZURE_FUNCTIONS,
    "openwhisk": OPENWHISK,
    "ce-caas": CODE_ENGINE_CAAS,
    "spot": SPOT_LAMBDA,
}

for _config in PACK_PROVIDERS.values():
    # Idempotent: re-importing (or a user re-registering the same pack)
    # must not raise, so register directly rather than via
    # register_provider's duplicate check.
    PROVIDERS.setdefault(_config.name, _config)
del _config
