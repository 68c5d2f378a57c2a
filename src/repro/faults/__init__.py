"""Deterministic fault injection for the simulated sky.

Public surface::

    from repro.faults import (
        FaultInjector, NULL_INJECTOR, FaultSchedule, build_preset,
        TransientFaults, ZoneOutage, Brownout, ThrottlingBurst,
        LatencySpike, NetworkPartition, ColdStartStorm,
        FleetChaos, FleetEvent, CoordinatorCrash,
    )

Cloud-level models perturb the *simulated* platform inside a task;
:class:`~repro.faults.fleet.FleetChaos` perturbs the *real* fleet
running the tasks (worker kills, netsplits, coordinator crashes) on a
seeded, progress-keyed schedule.

The chaos-experiment harness lives in :mod:`repro.faults.harness` and is
*not* re-exported here: it imports :mod:`repro.core`, which imports
:mod:`repro.cloudsim`, which imports this package — importing it here
would close the cycle.  Use ``from repro.faults.harness import
ChaosExperiment`` directly.
"""

from repro.faults.injector import (
    FaultInjector,
    InjectedFault,
    NULL_INJECTOR,
    NullInjector,
)
from repro.faults.models import (
    Brownout,
    ColdStartStorm,
    FaultModel,
    LatencySpike,
    NetworkPartition,
    ThrottlingBurst,
    TransientFaults,
    ZoneOutage,
)
from repro.faults.schedule import FaultSchedule, PRESET_NAMES, build_preset
from repro.common.lazy_exports import lazy_getattr

__all__ = [
    "Brownout",
    "ColdStartStorm",
    "CoordinatorCrash",
    "FaultInjector",
    "FaultModel",
    "FaultSchedule",
    "FleetChaos",
    "FleetEvent",
    "FLEET_EVENTS",
    "InjectedFault",
    "LatencySpike",
    "NetworkPartition",
    "NULL_INJECTOR",
    "NullInjector",
    "PRESET_NAMES",
    "ThrottlingBurst",
    "TransientFaults",
    "ZoneOutage",
    "build_preset",
]

#: Fleet chaos perturbs a real worker fleet, which only remote sweeps
#: run; it loads on first access (:mod:`repro.common.lazy_exports`).
__getattr__ = lazy_getattr(globals(), {
    "CoordinatorCrash": "repro.faults.fleet",
    "FleetChaos": "repro.faults.fleet",
    "FleetEvent": "repro.faults.fleet",
    "FLEET_EVENTS": "repro.faults.fleet",
})
