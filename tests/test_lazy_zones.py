"""Zones built on first use, differential-tested against eager builds.

``install_catalog`` registers each zone and builds it the first time
anything asks for it, *as of its install time*.  The reference here is a
cloud whose every zone is built right after install, then left untouched
until the same first use: both must hold the same state at that first
use, then produce the same placements, polls, invocations and events —
with an :class:`Observability` facade and a fault preset installed
before install, after install, or after the first use.
"""

import functools

import pytest

from repro.cloudsim import Cloud
from repro.cloudsim.catalog import (
    PACK_REGION_SPECS,
    catalog_region_names,
    install_catalog,
    provider_name_of_zone,
)
from repro.cloudsim.handlers import SleepHandler
from repro.cloudsim.region import Region
from repro.common.errors import (
    ConfigurationError,
    ReproError,
    UnknownZoneError,
)
from repro.common.units import DAYS, HOURS
from repro.faults import FaultInjector, build_preset
from repro.obs import Observability
from tests.helpers import PACK_ZONES, make_zone

#: Every catalog region plus every scenario-pack region.
ALL_REGIONS = tuple(catalog_region_names()) + tuple(sorted(
    name for specs in PACK_REGION_SPECS.values() for name in specs))

SEEDS = (0, 4, 9001)

#: First-use times: install time, either side of the first drift hour,
#: a few hours and two days in, and past the spot packs' first 300-s
#: preemption boundary.
FIRST_USE_S = (0.0, 3599.0, 3600.0, 3 * HOURS + 5, 2 * DAYS + 5, 305.0)

#: One zone per drift class and provider, and the packs whose adapters
#: change placement: ce-caas pins warm floors, spot preempts.
TRANSCRIPT_ZONES = ("us-west-1b", "sa-east-1a", "us-east-2b", "us-south",
                    "nyc1", PACK_ZONES["ce-caas"], PACK_ZONES["spot"])


def _sky(seed, eager):
    cloud = install_catalog(Cloud(seed=seed), regions=ALL_REGIONS)
    if eager:
        for zone_id in cloud.zone_ids():
            cloud.zone(zone_id)
    return cloud


def fingerprint(zone):
    """The state a zone's first use depends on."""
    drift = zone._drift
    preempt = zone._preempt
    return (
        [(key, pool.hosts, pool.slots_per_host, pool.affinity)
         for key, pool in zone.pools.items()],
        dict(zone._base_slots),
        zone._last_scale_check,
        zone._surge_slots_added,
        drift._last_applied,
        drift._next_due,
        preempt._next_strike if preempt is not None else None,
        preempt.rng.bit_generator.state if preempt is not None else None,
        zone.rng.bit_generator.state,
    )


class TestRegistration(object):
    def test_install_builds_nothing(self):
        cloud = install_catalog(Cloud(seed=1), regions=ALL_REGIONS)
        assert len(cloud.zone_ids()) == 54
        assert cloud._zones == {}
        for region in cloud.regions.values():
            assert region.zones.built() == []
            assert len(region.zones) == len(list(region.zones))
            assert all(zone_id in region.zones for zone_id in region.zones)
        assert cloud._zones == {}

    def test_lookups_build_only_what_they_return(self):
        cloud = install_catalog(Cloud(seed=1), aws_only=True)
        region = cloud.region("us-east-2")
        assert region.first_zone().zone_id == "us-east-2a"
        assert [z.zone_id for z in region.zones.built()] == ["us-east-2a"]
        assert region.zone("us-east-2c") is cloud.zone("us-east-2c")
        assert sorted(cloud._zones) == ["us-east-2a", "us-east-2c"]
        assert [zone_id for zone_id, _ in region.zones.items()] == \
            ["us-east-2a", "us-east-2b", "us-east-2c"]
        assert len(region.zones.built()) == 3
        assert sorted(cloud._zones) == region.zone_ids()

    def test_unknown_zone_raises(self):
        cloud = install_catalog(Cloud(seed=1), aws_only=True)
        with pytest.raises(UnknownZoneError):
            cloud.zone("nope-1a")
        with pytest.raises(UnknownZoneError):
            cloud.region("us-west-1").zone("us-east-2a")

    def test_built_zones_added_to_a_region_are_adopted(self):
        cloud = install_catalog(Cloud(seed=1), regions=("us-west-1",))
        obs = Observability().install(cloud)
        region = Region("test-1", cloud.region("us-west-1").provider,
                        cloud.region("us-west-1").geo)
        zone = region.add_zone(make_zone("test-1a", clock=cloud.clock))
        cloud.add_region(region)
        assert cloud.zone("test-1a") is zone
        assert zone._bus is obs.bus
        assert cloud.zone("us-west-1a")._bus is obs.bus

    def test_zones_added_to_a_joined_region_are_indexed(self):
        cloud = install_catalog(Cloud(seed=1),
                                regions=("us-west-1", "us-east-2"))
        obs = Observability().install(cloud)
        region = cloud.region("us-west-1")
        zone = region.add_zone(make_zone("us-west-1z", clock=cloud.clock))
        assert cloud.zone("us-west-1z") is zone
        assert cloud.region_of_zone("us-west-1z") is region
        assert zone._bus is obs.bus
        region.register_zone("us-west-1y", functools.partial(
            make_zone, "us-west-1y", clock=cloud.clock))
        assert "us-west-1y" not in cloud._zones
        assert cloud.zone("us-west-1y")._bus is obs.bus
        # An id that another region already holds is refused, and the
        # region is left as it was.
        with pytest.raises(ConfigurationError, match="duplicate zone"):
            region.add_zone(make_zone("us-east-2a", clock=cloud.clock))
        with pytest.raises(ConfigurationError, match="duplicate zone"):
            region.register_zone("us-east-2b", lambda: None)
        assert "us-east-2a" not in region.zones
        assert cloud.region_of_zone("us-east-2a").name == "us-east-2"


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("first_use", FIRST_USE_S)
def test_first_use_state_matches_eager_build(seed, first_use):
    eager = _sky(seed, eager=True)
    lazy = _sky(seed, eager=False)
    for cloud in (eager, lazy):
        cloud.clock.advance(first_use)
    for zone_id in eager.zone_ids():
        assert fingerprint(lazy.zone(zone_id)) == \
            fingerprint(eager.zone(zone_id)), zone_id
        # The first request applies the zone's processes at the current
        # time, exactly as it does on the eager zone.
        for cloud in (eager, lazy):
            cloud.zone(zone_id)._apply_processes(cloud.clock.now)
        assert fingerprint(lazy.zone(zone_id)) == \
            fingerprint(eager.zone(zone_id)), zone_id


def _wire(cloud, zone_id, first_use, record):
    """Install an Observability facade and a chaos preset on ``cloud``."""
    obs = Observability().install(cloud)
    obs.bus.subscribe(lambda event: record.append(
        (event.name, event.timestamp, sorted(event.fields.items()))))
    FaultInjector(build_preset("chaos", [zone_id], start=first_use + 200.0,
                               duration=300.0), seed=5).install(cloud)


def _transcript(seed, zone_id, first_use, eager, wire_at):
    """Drive ``zone_id`` from its first use at ``first_use``, with the
    bus and faults wired at ``wire_at``; returns (lines, events)."""
    events = []
    cloud = Cloud(seed=seed)
    if wire_at == "before-install":
        _wire(cloud, zone_id, first_use, events)
    install_catalog(cloud, regions=ALL_REGIONS)
    if eager:
        for other in cloud.zone_ids():
            cloud.zone(other)
    if wire_at == "after-install":
        _wire(cloud, zone_id, first_use, events)
    cloud.clock.advance(first_use)
    provider = provider_name_of_zone(zone_id)
    account = cloud.create_account("lazy", provider)
    endpoints = [cloud.deploy(account, zone_id, "ep-{}".format(i), 1024,
                              handler=SleepHandler(20.0))
                 for i in range(4)]
    service = cloud.deploy(account, zone_id, "svc", 1024,
                           handler=SleepHandler(0.4))
    lines = [fingerprint(cloud.zone(zone_id))]
    if wire_at == "after-first-use":
        _wire(cloud, zone_id, first_use, events)
    for step in range(14):
        endpoint = endpoints[step % 4]
        try:
            lines.append(cloud.poll_batch(endpoint, 300).aggregate_key())
        except ReproError as error:
            lines.append(type(error).__name__)
        try:
            placed, bill = cloud.place_batch(endpoint, 200, 20.0, 1.0)
            lines.append((placed.served, sorted(placed.new_fi_counts.items()),
                          sorted(placed.reused_fi_counts.items()),
                          bill.total))
        except ReproError as error:
            lines.append(type(error).__name__)
        try:
            inv = cloud.invoke(service, force_new=(step % 3 == 1))
            lines.append((inv.cpu_key, inv.instance_id, inv.reused,
                          inv.runtime_s.hex()))
        except ReproError as error:
            lines.append(type(error).__name__)
        cloud.clock.advance(70.0)
    lines.append(fingerprint(cloud.zone(zone_id)))
    return lines, events


@pytest.mark.parametrize("wire_at", ["before-install", "after-install",
                                     "after-first-use"])
@pytest.mark.parametrize("zone_id", TRANSCRIPT_ZONES)
def test_transcripts_match_eager_build(zone_id, wire_at):
    for seed, first_use in ((4, 3 * HOURS + 5), (9001, 3599.0),
                            (0, 2 * DAYS + 5)):
        eager = _transcript(seed, zone_id, first_use, True, wire_at)
        lazy = _transcript(seed, zone_id, first_use, False, wire_at)
        assert lazy[0] == eager[0], (seed, first_use)
        assert lazy[1] == eager[1], (seed, first_use)
        assert {"az.placement", "host.allocate"} <= \
            {event[0] for event in lazy[1]}


def test_spot_preemption_reclaims_across_first_use():
    """A spot zone first used just before a preemption boundary strikes
    its fresh FIs at the boundary, as the eager zone does."""
    zone_id = PACK_ZONES["spot"]
    runs = [_transcript(4, zone_id, 299.0, eager, "after-install")
            for eager in (True, False)]
    assert runs[0] == runs[1]
    assert "az.preempt" in {event[0] for event in runs[1][1]}
