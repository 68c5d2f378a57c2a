"""Build the region catalog's plan once per process and install from it.

:meth:`~repro.engine.spec.CloudSpec.build` used to re-derive every zone's
build parameters from the catalog spec tables for every grid cell — in a
42-worker sweep that is tens of thousands of redundant table scans and
affinity/scaling resolutions.  This module splits catalog installation
into two phases:

1. **Plan** (:func:`catalog_plan`) — a pure-data description of every
   region: provider name, geo coordinates, and each zone's build recipe
   (:func:`repro.cloudsim.catalog.zone_recipe`).  Computed once per
   process and memoized; plans are picklable and never mutated.
2. **Install** (:func:`install_plan`) — register the plan's regions in
   a :class:`~repro.cloudsim.cloud.Cloud`, honouring the ``aws_only`` /
   ``regions`` filters.  It is the only install path:
   :func:`~repro.cloudsim.catalog.install_catalog` and
   :func:`~repro.cloudsim.catalog.build_global_catalog` call it with the
   memoized plan.  Zones are built on first use, as of install time.

Each sweep worker memoizes its own plan on its first
:meth:`CloudSpec.build`; every later build in that worker reuses it, so
the spec tables are resolved once per process, not once per cell.
"""

from functools import partial

from repro.common.errors import ConfigurationError
from repro.cloudsim.catalog import (
    AWS_REGION_SPECS,
    DO_REGION_SPECS,
    IBM_REGION_SPECS,
    PACK_REGION_SPECS,
    zone_from_recipe,
    zone_recipe,
)
from repro.cloudsim.network import GeoPoint
from repro.cloudsim.provider import provider_by_name
from repro.cloudsim.region import Region

#: Memoized full-catalog plan for this process.
_PLAN = None


def catalog_plan():
    """The full catalog as pure data, memoized per process.

    A tuple of region entries ``{"name", "provider", "lat", "lon",
    "zones": (recipe, ...)}`` in install order: AWS regions sorted by
    name, then IBM, then Digital Ocean, then the scenario packs.
    Filtering (``aws_only``/``regions``) happens at install time so one
    plan serves every restriction.
    """
    global _PLAN
    if _PLAN is None:
        entries = []
        aws = provider_by_name("aws")
        for name in sorted(AWS_REGION_SPECS):
            lat, lon, zones = AWS_REGION_SPECS[name]
            entries.append({
                "name": name, "provider": "aws", "lat": lat, "lon": lon,
                "zones": tuple(
                    zone_recipe(name + suffix, zones[suffix], aws)
                    for suffix in sorted(zones)),
            })
        for provider_name, specs in (("ibm", IBM_REGION_SPECS),
                                     ("do", DO_REGION_SPECS)):
            provider = provider_by_name(provider_name)
            for name in sorted(specs):
                lat, lon, spec = specs[name]
                entries.append({
                    "name": name, "provider": provider_name,
                    "lat": lat, "lon": lon,
                    "zones": (zone_recipe(name, spec, provider),),
                })
        # Scenario-pack regions ride the same plan (adapters survive the
        # pickle round-trip with it), flagged so install_plan only
        # installs them when explicitly named.
        for provider_name in sorted(PACK_REGION_SPECS):
            pack_specs = PACK_REGION_SPECS[provider_name]
            provider = provider_by_name(provider_name)
            for name in sorted(pack_specs):
                lat, lon, zones = pack_specs[name]
                entries.append({
                    "name": name, "provider": provider_name,
                    "lat": lat, "lon": lon, "pack": True,
                    "zones": tuple(
                        zone_recipe(name + suffix, zones[suffix], provider)
                        for suffix in sorted(zones)),
                })
        _PLAN = tuple(entries)
    return _PLAN


def install_plan(cloud, plan, aws_only=False, regions=None):
    """Install ``plan``'s regions into ``cloud``: the one install path.

    Each zone is *registered* with its recipe and the clock time now, and
    built by :func:`zone_from_recipe` as of that time the first time
    anything asks for it (:class:`~repro.cloudsim.region.ZoneMap`), so a
    sky costs only the zones its run touches.  ``aws_only`` keeps AWS
    regions; ``regions`` keeps the named ones, and scenario-pack regions
    install only when named.  A named region the catalog lacks, or that
    ``aws_only`` filters out, raises :class:`ConfigurationError` before
    anything is installed.
    """
    selected = []
    for entry in plan:
        if regions is None:
            if entry.get("pack"):
                continue
        elif entry["name"] not in regions:
            continue
        if aws_only and entry["provider"] != "aws":
            continue
        selected.append(entry)
    if regions is not None and len(selected) < len(set(regions)):
        raise _dropped_regions_error(plan, regions, selected)
    clock = cloud.clock
    seed = cloud.seed
    installed_at = clock.now
    for entry in selected:
        provider = provider_by_name(entry["provider"])
        region = Region(entry["name"], provider,
                        GeoPoint(entry["lat"], entry["lon"]))
        for recipe in entry["zones"]:
            region.register_zone(recipe["zone_id"], partial(
                zone_from_recipe, recipe, clock, seed, now=installed_at))
        cloud.add_region(region)
    return cloud


def _dropped_regions_error(plan, regions, selected):
    """Name each requested region ``install_plan`` would not install."""
    providers = {entry["name"]: entry["provider"] for entry in plan}
    dropped = sorted(set(regions) - {entry["name"] for entry in selected})
    problems = []
    unknown = [name for name in dropped if name not in providers]
    if unknown:
        problems.append("not in the catalog: {}".format(", ".join(unknown)))
    # A known region is dropped only by the aws_only filter.
    off_aws = [name for name in dropped if name in providers]
    if off_aws:
        problems.append("not on AWS, but aws_only=True: {}".format(
            ", ".join(off_aws)))
    return ConfigurationError(
        "requested regions would not install ({})".format(
            "; ".join(problems)))
