"""The serverless sky computing core: characterization-driven smart routing.

This package implements the paper's contribution on top of the substrates:

* :mod:`characterization_store` — zone CPU profiles with staleness tracking
  and passive (polling-free) refinement;
* :mod:`retry` — the in-function CPU check + hold + re-issue retry engine,
  with the paper's *retry slow* and *focus fastest* variants;
* :mod:`policies` — routing policies: Baseline, Regional, Retry, and the
  Hybrid region-hopping policy;
* :mod:`optimizer` — expected-runtime ranking of zones for a workload;
* :mod:`router` — the SmartRouter tying policy, mesh, and retry together;
* :mod:`runner` — burst execution with a cost/latency ledger;
* :mod:`study` — multi-day routing studies (the EX-5 evaluation harness);
* :mod:`metrics` — savings summaries versus a baseline.
"""

from repro.core.characterization_store import CharacterizationStore
from repro.core.health import ZoneHealthTracker
from repro.core.resilience import (
    BreakerOpenError,
    CircuitBreaker,
    ExponentialBackoff,
    HedgePolicy,
    ResilienceConfig,
    ResilientOutcome,
)
from repro.core.retry import RetryPolicy, RetryEngine, RetriedInvocation
from repro.core.slo import SLOSelector, StrategyForecast
from repro.core.optimizer import ZoneRanker
from repro.core.policies import (
    RoutingDecision,
    RoutingPolicy,
    BaselinePolicy,
    CheapestCostPolicy,
    RegionalPolicy,
    RetryRoutingPolicy,
    HybridPolicy,
)
from repro.core.controller import SkyController
from repro.core.dispatcher import BurstDispatcher, LatencyDistribution
from repro.core.memory_advisor import MemoryAdvisor, MemoryRecommendation
from repro.core.telemetry import RoutingTelemetry
from repro.core.green import CarbonAwarePolicy, MultiObjectivePolicy
from repro.core.router import SmartRouter, RoutedRequest
from repro.core.runner import (
    BatchedBurstResult,
    BurstResult,
    CPURuntimeProfile,
    WorkloadRunner,
)
from repro.core.metrics import (
    cost_savings_pct,
    cumulative_savings_pct,
    daily_savings_pct,
    summarize_savings,
)
from repro.common.lazy_exports import lazy_getattr

__all__ = [
    "BreakerOpenError",
    "CharacterizationStore",
    "CircuitBreaker",
    "ExponentialBackoff",
    "HedgePolicy",
    "ResilienceConfig",
    "ResilientOutcome",
    "ZoneHealthTracker",
    "RetryPolicy",
    "RetryEngine",
    "RetriedInvocation",
    "SLOSelector",
    "StrategyForecast",
    "ZoneRanker",
    "RoutingDecision",
    "RoutingPolicy",
    "BaselinePolicy",
    "CheapestCostPolicy",
    "RegionalPolicy",
    "RetryRoutingPolicy",
    "HybridPolicy",
    "SkyController",
    "BurstDispatcher",
    "LatencyDistribution",
    "MemoryAdvisor",
    "MemoryRecommendation",
    "RoutingTelemetry",
    "CarbonAwarePolicy",
    "MultiObjectivePolicy",
    "SmartRouter",
    "RoutedRequest",
    "BatchedBurstResult",
    "BurstResult",
    "CPURuntimeProfile",
    "WorkloadRunner",
    "RoutingStudy",
    "StudyResult",
    "cost_savings_pct",
    "cumulative_savings_pct",
    "daily_savings_pct",
    "summarize_savings",
]

#: The multi-day study harness serves offline evaluations only; it loads
#: on first access (:mod:`repro.common.lazy_exports`).
__getattr__ = lazy_getattr(globals(), {
    "RoutingStudy": "repro.core.study",
    "StudyResult": "repro.core.study",
})
