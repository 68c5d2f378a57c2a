"""repro — serverless sky computing: infrastructure assessment and
performance-aware routing.

A full reproduction of *"Sky Computing for Serverless: Infrastructure
Assessment to Support Performance Enhancement"* (Cordingly, Chen, Hung,
Lloyd) on a simulated multi-provider FaaS substrate.  See DESIGN.md for the
system inventory and EXPERIMENTS.md for paper-vs-measured results.

Quick start::

    from repro import build_sky, SamplingCampaign, SkyMesh

    cloud = build_sky(seed=42)
    account = cloud.create_account("research", "aws")
    mesh = SkyMesh(cloud)
    endpoints = mesh.deploy_sampling_endpoints(account, "us-west-1b")
    campaign = SamplingCampaign(cloud, endpoints)
    profile = campaign.run().ground_truth()
    print(profile.shares())
"""

from repro.cloudsim import (
    Cloud,
    CloudAccount,
    CPU_CATALOG,
    build_global_catalog,
)
from repro.cloudsim.catalog import EX3_ZONES, EX4_ZONES
from repro.core import (
    BaselinePolicy,
    CharacterizationStore,
    CircuitBreaker,
    ExponentialBackoff,
    HedgePolicy,
    HybridPolicy,
    RegionalPolicy,
    ResilienceConfig,
    RetryEngine,
    RetryPolicy,
    RetryRoutingPolicy,
    SkyController,
    SmartRouter,
    WorkloadRunner,
    ZoneHealthTracker,
    ZoneRanker,
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
from repro.dynfunc import (
    DynamicFunctionRuntime,
    UniversalDynamicFunctionHandler,
    build_payload,
)
from repro.engine import (
    CampaignTask,
    CloudSpec,
    Grid,
    ProgressiveTask,
    StudyTask,
    SweepEngine,
    TemporalTask,
    run_sweep,
)
from repro.obs import EventBus, MetricsRegistry, Observability, Tracer
from repro.saaf import Inspector, report_from_invocation
from repro.sampling import (
    CPUCharacterization,
    DailyCampaignSeries,
    HourlySeries,
    Poller,
    ProgressiveAnalysis,
    SamplingCampaign,
)
from repro.skymesh import ExperimentRunner, SkyMesh
from repro.workloads import all_workloads, workload_by_name

from repro.common.lazy_exports import lazy_getattr

__version__ = "1.0.0"

#: Offline-study and sweep-progress names load on first access
#: (:mod:`repro.common.lazy_exports`); a serving or sweep run never
#: touches them.
__getattr__ = lazy_getattr(globals(), {
    "RoutingStudy": "repro.core.study",
    "SweepProgress": "repro.engine.progress",
})

# ``build_sky`` is the friendlier name for the catalog builder.
build_sky = build_global_catalog

__all__ = [
    "__version__",
    "build_sky",
    "build_global_catalog",
    "Cloud",
    "CloudAccount",
    "CPU_CATALOG",
    "EX3_ZONES",
    "EX4_ZONES",
    "BaselinePolicy",
    "Brownout",
    "CharacterizationStore",
    "CircuitBreaker",
    "ColdStartStorm",
    "ExponentialBackoff",
    "FaultInjector",
    "FaultSchedule",
    "HedgePolicy",
    "HybridPolicy",
    "LatencySpike",
    "NetworkPartition",
    "RegionalPolicy",
    "ResilienceConfig",
    "RetryEngine",
    "RetryPolicy",
    "RetryRoutingPolicy",
    "RoutingStudy",
    "SkyController",
    "SmartRouter",
    "ThrottlingBurst",
    "TransientFaults",
    "WorkloadRunner",
    "ZoneHealthTracker",
    "ZoneOutage",
    "ZoneRanker",
    "build_preset",
    "DynamicFunctionRuntime",
    "UniversalDynamicFunctionHandler",
    "build_payload",
    "CampaignTask",
    "CloudSpec",
    "Grid",
    "ProgressiveTask",
    "StudyTask",
    "SweepEngine",
    "SweepProgress",
    "TemporalTask",
    "run_sweep",
    "EventBus",
    "MetricsRegistry",
    "Observability",
    "Tracer",
    "Inspector",
    "report_from_invocation",
    "CPUCharacterization",
    "DailyCampaignSeries",
    "HourlySeries",
    "Poller",
    "ProgressiveAnalysis",
    "SamplingCampaign",
    "ExperimentRunner",
    "SkyMesh",
    "all_workloads",
    "workload_by_name",
]
