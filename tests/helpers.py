"""Shared construction helpers for the test suite."""

from repro.cloudsim.adapters import SlidingWindowKeepAlive
from repro.cloudsim.az import AvailabilityZone, ScalingPolicy
from repro.cloudsim.cloud import Cloud
from repro.cloudsim.host import HostPool
from repro.cloudsim.network import GeoPoint
from repro.cloudsim.provider import provider_by_name
from repro.cloudsim.region import Region
from repro.simclock import SimClock

#: One representative zone per scenario pack; 1,024 MB is on every pack's
#: memory ladder.
PACK_ZONES = {
    "gcp": "gcp-us-central1a",
    "azure": "azure-eastusa",
    "openwhisk": "ow-onprem-1a",
    "ce-caas": "ce-caas-1a",
    "spot": "spot-us-1a",
}


def make_zone(zone_id="test-1a", clock=None, pools=None, seed=0,
              keepalive=300.0, scaling=None):
    """A small standalone zone: 2 CPU pools, 1,024 slots total."""
    clock = clock or SimClock()
    if pools is None:
        pools = [
            HostPool("xeon-2.5", hosts=12, slots_per_host=64),
            HostPool("xeon-3.0", hosts=4, slots_per_host=64),
        ]
    scaling = scaling or ScalingPolicy(max_surge_slots=128)
    return AvailabilityZone(zone_id, pools, clock,
                            keepalive=SlidingWindowKeepAlive(keepalive),
                            scaling=scaling, rng=seed)


def make_cloud(seed=0, zones=None, region_name="test-1", provider="aws",
               geo=(47.6, -122.3)):
    """A one-region cloud with deterministic (drift-free) zones.

    ``zones`` maps zone_id -> list of HostPool (defaults: two zones with
    contrasting CPU mixes, handy for routing tests).
    """
    cloud = Cloud(seed=seed)
    provider_config = provider_by_name(provider)
    region = Region(region_name, provider_config, GeoPoint(*geo))
    if zones is None:
        zones = {
            region_name + "a": [
                HostPool("xeon-2.5", hosts=10, slots_per_host=64),
                HostPool("xeon-2.9", hosts=6, slots_per_host=64),
            ],
            region_name + "b": [
                HostPool("xeon-2.5", hosts=6, slots_per_host=64),
                HostPool("xeon-3.0", hosts=10, slots_per_host=64),
            ],
        }
    for zone_id, pools in sorted(zones.items()):
        region.add_zone(AvailabilityZone(
            zone_id, pools, cloud.clock,
            keepalive=provider_config.adapter.keepalive,
            scaling=ScalingPolicy(max_surge_slots=128), rng=seed))
    cloud.add_region(region)
    return cloud


def drain_zone(zone, deployment="filler", fraction=1.0, duration=1.0):
    """Fill ``fraction`` of a zone's free capacity with busy FIs."""
    target = int(zone.free_slots() * fraction)
    if target <= 0:
        return 0
    result = zone.invoke_batch(deployment, target, duration=duration,
                               window=0.0)
    return result.unique_fis


def sleep_poll(cloud, deployment, n_requests=1000):
    """One sampling poll of a sleep function: draw its duration from the
    cloud RNG, then place the burst with :meth:`Cloud.place_batch`."""
    duration = deployment.handler.duration_on(None, cloud.rng)
    return cloud.place_batch(deployment, n_requests, duration)


def accepted_records(coordinator, chunks):
    """Run ``chunks`` through ``coordinator.run_chunks`` (chunk ids in
    enumeration order); yield each accepted record in arrival order."""
    for _, _, _, records in coordinator.run_chunks(enumerate(chunks)):
        yield from records
