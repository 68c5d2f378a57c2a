"""repro — serverless sky computing: infrastructure assessment and
performance-aware routing.

A full reproduction of *"Sky Computing for Serverless: Infrastructure
Assessment to Support Performance Enhancement"* (Cordingly, Chen, Hung,
Lloyd) on a simulated multi-provider FaaS substrate.  See DESIGN.md for the
system inventory and EXPERIMENTS.md for paper-vs-measured results.

Quick start::

    from repro import CloudSpec, SamplingCampaign, SkyMesh

    cloud = CloudSpec.for_zones(["us-west-1b"], seed=42).build()
    account = cloud.create_account("research", "aws")
    mesh = SkyMesh(cloud)
    endpoints = mesh.deploy_sampling_endpoints(account, "us-west-1b")
    campaign = SamplingCampaign(cloud, endpoints)
    profile = campaign.run().ground_truth()
    print(profile.shares())

A sky is built one way, from a :class:`CloudSpec`: ``for_zones`` builds
only the regions hosting the named zones, and ``build_sky(seed,
aws_only)`` is ``CloudSpec(seed, aws_only).build()``, the whole catalog.
"""

from repro.cloudsim import Cloud, CloudAccount, CPU_CATALOG
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
)
from repro.engine.spec import build_sky
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

__all__ = [
    "__version__",
    "build_sky",
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
