"""The global region catalog: 41 regions across AWS, IBM, and Digital Ocean.

This module encodes the sky-mesh footprint the paper profiles in EX-2
(Figure 2): 33 AWS Lambda regions, 4 IBM Code Engine regions, and 4 Digital
Ocean Functions regions.  Each zone spec carries:

* ``mix`` — the provisioned CPU share per model, honouring the paper's
  observations: every AWS region hosts the 2.5 GHz Xeon; all but
  ``af-south-1`` host the 3.0 GHz part; the AMD EPYC is rare except in
  ``il-central-1``; ``us-west-2`` is the region where the 3.0 GHz part
  dominates; ``us-east-2a`` is single-CPU (the EX-3 zone with 0 % error).
* ``slots`` — provisioned FI capacity, setting the saturation point
  (eu-north-1a fails after ~5k requests; eu-central-1a sustains ~10×).
* ``drift`` — temporal class: ``stable`` (sa-east-1a, eu-north-1a),
  ``volatile`` (ca-central-1a, us-west-1a, us-west-1b), ``default`` (mild),
  or ``frozen``.
* ``affinity`` — placement-priority overrides; low-affinity pools surface
  late in a sampling campaign (the EX-3 "previously unseen hardware"
  anomaly, calibrated for us-east-2b's 25 % single-poll error).

IBM and DO zones are (near-)homogeneous, matching the paper's finding of no
exploitable heterogeneity outside AWS.
"""

from collections import namedtuple
from functools import partial

from repro.common.errors import ConfigurationError, UnknownZoneError
from repro.cloudsim.adapters import PreemptionProcess
from repro.cloudsim.az import AvailabilityZone
from repro.cloudsim.drift import DriftProfile, DriftProcess
from repro.cloudsim.host import HostPool
from repro.cloudsim.network import GeoPoint
from repro.cloudsim.provider import provider_by_name
from repro.cloudsim.region import Region


class ZoneSpec(object):
    """Declarative description of one availability zone."""

    __slots__ = ("mix", "slots", "drift", "affinity")

    def __init__(self, mix, slots, drift="default", affinity=None):
        self.mix = dict(mix)
        self.slots = int(slots)
        self.drift = drift
        self.affinity = dict(affinity or {})


def _aws(mix, slots, drift="default", affinity=None):
    return ZoneSpec(mix, slots, drift, affinity)


# -- AWS Lambda: 33 regions ---------------------------------------------------
# Mix shorthand: the four CPUs the paper observed on Lambda.
X25, X29, X30, EPYC = "xeon-2.5", "xeon-2.9", "xeon-3.0", "amd-epyc"

AWS_REGION_SPECS = {
    # name: (lat, lon, {zone_suffix: ZoneSpec})
    "us-east-1": (38.9, -77.4, {
        "a": _aws({X25: 0.52, X30: 0.30, X29: 0.15, EPYC: 0.03}, 30720),
    }),
    "us-east-2": (40.0, -83.0, {
        "a": _aws({X25: 1.0}, 12032),
        "b": _aws({X25: 0.38, X30: 0.27, X29: 0.22, EPYC: 0.13}, 16000,
                  affinity={EPYC: 0.45}),
        "c": _aws({X25: 0.55, X30: 0.33, X29: 0.12}, 14080),
    }),
    "us-west-1": (37.4, -121.9, {
        "a": _aws({X25: 0.36, X30: 0.26, X29: 0.22, EPYC: 0.16}, 20480,
                  drift="volatile"),
        "b": _aws({X25: 0.32, X30: 0.24, X29: 0.24, EPYC: 0.20}, 18432,
                  drift="volatile"),
    }),
    "us-west-2": (45.8, -119.7, {
        "a": _aws({X30: 0.48, X25: 0.38, X29: 0.10, EPYC: 0.04}, 28672),
    }),
    "af-south-1": (-33.9, 18.4, {
        "a": _aws({X25: 0.70, X29: 0.30}, 8064),
    }),
    "ap-east-1": (22.3, 114.2, {
        "a": _aws({X25: 0.60, X30: 0.28, X29: 0.12}, 10240),
    }),
    "ap-east-2": (25.0, 121.5, {
        "a": _aws({X25: 0.50, X30: 0.40, X29: 0.10}, 9216),
    }),
    "ap-south-1": (19.1, 72.9, {
        "a": _aws({X25: 0.56, X30: 0.30, X29: 0.12, EPYC: 0.02}, 21504),
    }),
    "ap-south-2": (17.4, 78.5, {
        "a": _aws({X25: 0.62, X30: 0.30, X29: 0.08}, 9984),
    }),
    "ap-northeast-1": (35.7, 139.7, {
        # The EX-3 "anomalous spike" zone: its EPYC pool has near-zero
        # placement affinity, so the hardware stays invisible until the
        # mainstream pools fill late in a campaign.
        "a": _aws({X25: 0.52, X30: 0.30, X29: 0.14, EPYC: 0.04}, 22528,
                  affinity={EPYC: 0.02}),
    }),
    "ap-northeast-2": (37.6, 127.0, {
        "a": _aws({X25: 0.50, X30: 0.34, X29: 0.16}, 17408),
    }),
    "ap-northeast-3": (34.7, 135.5, {
        "a": _aws({X25: 0.64, X30: 0.24, X29: 0.12}, 9472),
    }),
    "ap-southeast-1": (1.35, 103.8, {
        "a": _aws({X25: 0.48, X30: 0.34, X29: 0.16, EPYC: 0.02}, 23552),
    }),
    "ap-southeast-2": (-33.9, 151.2, {
        "a": _aws({X25: 0.48, X30: 0.36, X29: 0.16}, 18944),
    }),
    "ap-southeast-3": (-6.2, 106.8, {
        "a": _aws({X25: 0.58, X30: 0.30, X29: 0.12}, 10752),
    }),
    "ap-southeast-4": (-37.8, 145.0, {
        "a": _aws({X25: 0.44, X30: 0.42, X29: 0.14}, 9728),
    }),
    "ap-southeast-5": (3.1, 101.7, {
        "a": _aws({X25: 0.46, X30: 0.44, X29: 0.10}, 8448),
    }),
    "ap-southeast-7": (13.8, 100.5, {
        "a": _aws({X25: 0.52, X30: 0.42, X29: 0.06}, 8192),
    }),
    "ca-central-1": (45.5, -73.6, {
        "a": _aws({X25: 0.42, X30: 0.30, X29: 0.20, EPYC: 0.08}, 13312,
                  drift="volatile"),
    }),
    "ca-west-1": (51.0, -114.1, {
        "a": _aws({X25: 0.40, X30: 0.46, X29: 0.14}, 8704),
    }),
    "eu-central-1": (50.1, 8.7, {
        "a": _aws({X25: 0.50, X30: 0.32, X29: 0.15, EPYC: 0.03}, 49920),
    }),
    "eu-central-2": (47.4, 8.5, {
        "a": _aws({X25: 0.54, X30: 0.36, X29: 0.10}, 9600),
    }),
    "eu-west-1": (53.3, -6.3, {
        "a": _aws({X25: 0.50, X30: 0.30, X29: 0.17, EPYC: 0.03}, 27648),
    }),
    "eu-west-2": (51.5, -0.1, {
        "a": _aws({X25: 0.54, X30: 0.30, X29: 0.16}, 19456),
    }),
    "eu-west-3": (48.9, 2.4, {
        "a": _aws({X25: 0.56, X30: 0.28, X29: 0.16}, 16896),
    }),
    "eu-north-1": (59.3, 18.1, {
        "a": _aws({X25: 0.58, X30: 0.34, X29: 0.08}, 4992, drift="stable"),
    }),
    "eu-south-1": (45.5, 9.2, {
        "a": _aws({X25: 0.60, X30: 0.32, X29: 0.08}, 9344),
    }),
    "eu-south-2": (40.4, -3.7, {
        "a": _aws({X25: 0.58, X30: 0.36, X29: 0.06}, 8832),
    }),
    "il-central-1": (32.1, 34.8, {
        "a": _aws({X25: 0.40, X30: 0.25, EPYC: 0.25, X29: 0.10}, 9088,
                  affinity={EPYC: 1.0}),
    }),
    "me-central-1": (24.5, 54.4, {
        "a": _aws({X25: 0.54, X30: 0.38, X29: 0.08}, 9856),
    }),
    "me-south-1": (26.2, 50.6, {
        "a": _aws({X25: 0.62, X30: 0.28, X29: 0.10}, 9472),
    }),
    "sa-east-1": (-23.5, -46.6, {
        "a": _aws({X25: 0.40, X30: 0.38, X29: 0.18, EPYC: 0.04}, 16384,
                  drift="stable"),
    }),
    "mx-central-1": (20.6, -100.4, {
        "a": _aws({X25: 0.48, X30: 0.44, X29: 0.08}, 8320),
    }),
}

# -- IBM Code Engine: 4 regions (near-homogeneous Cascade Lake) ---------------
CL24, CL25 = "cascadelake-2.4", "cascadelake-2.5"

IBM_REGION_SPECS = {
    "us-south": (32.8, -96.8, ZoneSpec({CL25: 0.95, CL24: 0.05}, 4800)),
    "us-east-ibm": (38.9, -77.0, ZoneSpec({CL24: 1.0}, 3840)),
    "eu-de": (50.1, 8.7, ZoneSpec({CL25: 1.0}, 4320)),
    "eu-gb": (51.5, -0.1, ZoneSpec({CL24: 0.92, CL25: 0.08}, 3360)),
}

# -- Digital Ocean Functions: 4 regions ----------------------------------------
DO26, DO27 = "do-xeon-2.6", "do-xeon-2.7"

DO_REGION_SPECS = {
    "nyc1": (40.7, -74.0, ZoneSpec({DO27: 1.0}, 1920)),
    "sfo3": (37.8, -122.4, ZoneSpec({DO26: 0.9, DO27: 0.1}, 1600)),
    "ams3": (52.4, 4.9, ZoneSpec({DO26: 1.0}, 1760)),
    "lon1": (51.5, -0.1, ZoneSpec({DO27: 0.88, DO26: 0.12}, 1440)),
}

# -- Scenario-pack regions ------------------------------------------------------
# One synthetic region per pack provider (see ``repro.cloudsim.packs``).
# These are *opt-in*: they install only when explicitly named via the
# ``regions=`` filter, so the default 41-region catalog (and every seeded
# transcript derived from it) is untouched.  CPU keys reuse the Xeon/EPYC
# models the workload tables already know.
PACK_REGION_SPECS = {
    # provider name: {region name: (lat, lon, {zone_suffix: ZoneSpec})}
    "gcp": {
        "gcp-us-central1": (41.3, -93.6, {
            "a": ZoneSpec({X25: 0.55, X30: 0.35, X29: 0.10}, 12288),
            "b": ZoneSpec({X25: 0.60, X30: 0.40}, 10240),
        }),
    },
    "azure": {
        "azure-eastus": (37.4, -79.2, {
            "a": ZoneSpec({X25: 0.58, X29: 0.42}, 9216),
            "b": ZoneSpec({X25: 0.66, X29: 0.34}, 7680),
        }),
    },
    "openwhisk": {
        "ow-onprem-1": (45.0, -93.3, {
            "a": ZoneSpec({X29: 1.0}, 2048),
            "b": ZoneSpec({X29: 0.85, X25: 0.15}, 1536),
        }),
    },
    "ce-caas": {
        "ce-caas-1": (32.8, -96.8, {
            "a": ZoneSpec({X30: 0.70, X25: 0.30}, 4608),
            "b": ZoneSpec({X30: 1.0}, 3840),
        }),
    },
    "spot": {
        "spot-us-1": (39.0, -77.5, {
            "a": ZoneSpec({X25: 0.44, X30: 0.30, X29: 0.16, EPYC: 0.10},
                          20480, drift="volatile"),
            "b": ZoneSpec({X25: 0.40, X30: 0.28, X29: 0.20, EPYC: 0.12},
                          18432, drift="volatile"),
        }),
    },
}

# The eleven AZs of the EX-3 progressive-sampling study.
EX3_ZONES = (
    "ca-central-1a", "eu-north-1a", "ap-northeast-1a", "sa-east-1a",
    "eu-central-1a", "ap-southeast-2a", "us-west-1a", "us-west-1b",
    "us-east-2a", "us-east-2b", "us-east-2c",
)

# The five AZs of the EX-4 two-week temporal study (also EX-5 profiling).
EX4_ZONES = ("us-west-1a", "us-west-1b", "sa-east-1a", "eu-north-1a",
             "ca-central-1a")

_DRIFT_FACTORIES = {
    "stable": DriftProfile.stable,
    "volatile": DriftProfile.volatile,
    "frozen": DriftProfile.frozen,
    "default": DriftProfile,
}


def _default_affinity(cpu_key, share, overrides):
    if cpu_key in overrides:
        return overrides[cpu_key]
    # Rare EPYC pools are hardware being phased in/out: the scheduler mildly
    # under-places on them until the mainstream pools fill up.
    if cpu_key == EPYC and share < 0.15:
        return 0.7
    return 1.0


def build_zone(zone_id, spec, provider, clock, seed, now):
    """Build the live :class:`AvailabilityZone` a :class:`ZoneSpec`
    declares on ``provider``.

    Pools come from ``spec``; keep-alive, scaling envelope and
    preemption from ``provider.adapter``.  ``now`` is the time the zone
    is built *as of*: it starts the scaling window and applies the drift
    and preemption processes' first checks.  A zone built on first use
    passes its install time, so it is the zone an eager install would
    have left untouched until that use.  Its RNG and drift seeds are
    keyed on ``(seed, zone_id)``, never on build order.
    """
    slots_per_host = provider.slots_per_host
    pools = [HostPool(cpu_key,
                      max(1, int(round(spec.slots * share / slots_per_host))),
                      slots_per_host,
                      affinity=_default_affinity(cpu_key, share,
                                                 spec.affinity))
             for cpu_key, share in sorted(spec.mix.items())]
    adapter = provider.adapter
    zone = AvailabilityZone(zone_id, pools, clock,
                            keepalive=adapter.keepalive,
                            scaling=adapter.scaling.policy(spec.slots),
                            rng=seed, now=now)
    drift = DriftProcess(zone_id, zone.cpu_slot_shares(),
                         sum(p.hosts for p in pools),
                         _DRIFT_FACTORIES[spec.drift](), seed=seed)
    zone.attach_drift(drift, now=now)
    if adapter.preemption is not None:
        interval_s, fraction = adapter.preemption
        zone.attach_preemption(PreemptionProcess(
            zone_id, interval_s, fraction, seed=seed), now=now)
    return zone


def install_catalog(cloud, aws_only=False, regions=None):
    """Install catalog regions into ``cloud``: the one install path.

    ``aws_only`` keeps AWS regions; ``regions`` keeps the named ones,
    and scenario-pack regions install only when named there.  A named
    region the catalog lacks, or that ``aws_only`` filters out, raises
    :class:`~repro.common.errors.ConfigurationError` before anything is
    installed.  Regions install in catalog order (:func:`_catalog`).

    Each zone is *registered* with the clock time now, and built by
    :func:`build_zone` as of that time the first time anything asks for
    it (:class:`~repro.cloudsim.region.ZoneMap`), so a sky costs only the
    zones its run touches.  Only the installed regions' providers are
    resolved, so a core-provider sky never loads the scenario packs.
    """
    rows = _catalog()[0]
    selected = []
    for row in rows:
        if regions is None:
            if row.pack:
                continue
        elif row.name not in regions:
            continue
        if aws_only and row.provider != "aws":
            continue
        selected.append(row)
    if regions is not None and len(selected) < len(set(regions)):
        raise _dropped_regions_error(rows, regions, selected)
    clock = cloud.clock
    seed = cloud.seed
    installed_at = clock.now
    for row in selected:
        provider = provider_by_name(row.provider)
        region = Region(row.name, provider, GeoPoint(row.lat, row.lon))
        for zone_id, spec in row.zones:
            region.register_zone(zone_id, partial(
                build_zone, zone_id, spec, provider, clock, seed,
                installed_at))
        cloud.add_region(region)
    return cloud


def _dropped_regions_error(rows, regions, selected):
    """Name each requested region :func:`install_catalog` would not
    install."""
    known = {row.name for row in rows}
    dropped = sorted(set(regions) - {row.name for row in selected})
    problems = []
    unknown = [name for name in dropped if name not in known]
    if unknown:
        problems.append("not in the catalog: {}".format(", ".join(unknown)))
    # A known region is dropped only by the aws_only filter.
    off_aws = [name for name in dropped if name in known]
    if off_aws:
        problems.append("not on AWS, but aws_only=True: {}".format(
            ", ".join(off_aws)))
    return ConfigurationError(
        "requested regions would not install ({})".format(
            "; ".join(problems)))


def catalog_region_names(provider=None):
    """All catalog region names, optionally filtered by provider.

    Scenario-pack regions are listed only when their pack is named
    explicitly (``provider="ce-caas"`` etc.) — the unfiltered listing
    remains the default 41-region sky.
    """
    return [row.name for row in _catalog()[0]
            if (not row.pack if provider is None
                else row.provider == provider)]


#: One catalog region: ``zones`` is ``((zone_id, ZoneSpec), ...)`` in
#: zone-id order; ``pack`` marks the opt-in scenario-pack regions.
_CatalogRegion = namedtuple(
    "_CatalogRegion", ("name", "provider", "lat", "lon", "pack", "zones"))

#: ``(regions, zones)``, built once on first use: every
#: :class:`_CatalogRegion` in install order (AWS by name, then IBM, then
#: Digital Ocean, then each pack provider's regions), and
#: ``zone_id -> (region_name, provider_name, ZoneSpec)``.  The spec
#: tables are module constants, so one memoized walk serves every
#: install and every zone lookup.
_CATALOG = None


def _catalog():
    global _CATALOG
    if _CATALOG is None:
        rows = []
        for name in sorted(AWS_REGION_SPECS):
            lat, lon, zones = AWS_REGION_SPECS[name]
            rows.append(_CatalogRegion(name, "aws", lat, lon, False, tuple(
                (name + suffix, zones[suffix]) for suffix in sorted(zones))))
        for provider_name, specs in (("ibm", IBM_REGION_SPECS),
                                     ("do", DO_REGION_SPECS)):
            for name in sorted(specs):
                lat, lon, spec = specs[name]
                rows.append(_CatalogRegion(name, provider_name, lat, lon,
                                           False, ((name, spec),)))
        for provider_name in sorted(PACK_REGION_SPECS):
            pack_specs = PACK_REGION_SPECS[provider_name]
            for name in sorted(pack_specs):
                lat, lon, zones = pack_specs[name]
                rows.append(_CatalogRegion(
                    name, provider_name, lat, lon, True, tuple(
                        (name + suffix, zones[suffix])
                        for suffix in sorted(zones))))
        zones = {zone_id: (row.name, row.provider, spec)
                 for row in rows for zone_id, spec in row.zones}
        _CATALOG = (tuple(rows), zones)
    return _CATALOG


def zone_spec(zone_id):
    """Return the declarative :class:`ZoneSpec` behind a zone id."""
    try:
        return _catalog()[1][zone_id][2]
    except KeyError:
        raise UnknownZoneError(zone_id)


def region_name_of_zone(zone_id):
    """Map a catalog zone id to its region name (without building a sky).

    The parallel engine uses this to install only the regions a grid cell
    actually touches, keeping per-worker cloud construction cheap.
    """
    try:
        return _catalog()[1][zone_id][0]
    except KeyError:
        raise UnknownZoneError(zone_id)


def provider_name_of_zone(zone_id):
    """Map a catalog zone id to its provider name."""
    try:
        return _catalog()[1][zone_id][1]
    except KeyError:
        raise UnknownZoneError(zone_id)
