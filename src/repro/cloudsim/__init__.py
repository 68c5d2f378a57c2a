"""A discrete-event simulator of commercial FaaS platforms.

This package is the substrate that stands in for live AWS Lambda, IBM Code
Engine, and Digital Ocean Functions accounts (see DESIGN.md §2).  It models
the mechanisms the paper's methodology depends on:

* **heterogeneous host pools** — each availability zone is backed by a finite
  set of bare-metal hosts with differing CPU models (`cpu`, `host`);
* **function-instance lifecycle** — cold starts, ~5 minute keep-alive, warm
  reuse, and placement of new instances onto hosts (`instance`, `az`);
* **quotas and saturation** — per-account concurrency limits plus zone-wide
  capacity exhaustion with slow scaling (`account`, `az`);
* **temporal drift** — daily churn, diurnal load, and hardware introduction
  events that change a zone's CPU mix over time (`drift`);
* **billing and latency** — GB-second billing per provider and a
  geo-distance network latency model (`billing`, `network`);
* **a 41-region catalog** mirroring the paper's global deployment
  (`catalog`).

The top-level entry point is :class:`repro.cloudsim.cloud.Cloud`.
"""

from repro.cloudsim.cpu import CPU_CATALOG, CPUModel, cpu_by_key
from repro.cloudsim.host import HostPool
from repro.cloudsim.instance import FunctionInstance
from repro.cloudsim.az import AvailabilityZone, PlacementResult
from repro.cloudsim.region import Region
from repro.cloudsim.provider import ProviderConfig, PROVIDERS
from repro.cloudsim.billing import BillingModel, InvocationBill
from repro.cloudsim.background import BackgroundLoad, BackgroundProfile
from repro.cloudsim.drift import DriftProfile
from repro.cloudsim.network import NetworkModel, GeoPoint
from repro.cloudsim.account import CloudAccount
from repro.cloudsim.cloud import (
    BatchInvocation,
    BatchPollResult,
    Cloud,
    Invocation,
)
from repro.cloudsim.catalog import (
    catalog_region_names,
    zone_spec,
)

__all__ = [
    "CPU_CATALOG",
    "CPUModel",
    "cpu_by_key",
    "HostPool",
    "FunctionInstance",
    "AvailabilityZone",
    "PlacementResult",
    "Region",
    "ProviderConfig",
    "PROVIDERS",
    "BillingModel",
    "InvocationBill",
    "BackgroundLoad",
    "BackgroundProfile",
    "DriftProfile",
    "NetworkModel",
    "GeoPoint",
    "CloudAccount",
    "Cloud",
    "Invocation",
    "BatchInvocation",
    "BatchPollResult",
    "catalog_region_names",
    "zone_spec",
]
