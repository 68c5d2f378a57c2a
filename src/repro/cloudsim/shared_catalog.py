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
2. **Install** (:func:`install_plan`) — materialize live zones from the
   plan into a :class:`~repro.cloudsim.cloud.Cloud`, honouring the same
   ``aws_only`` / ``regions`` filters and the same region/zone ordering
   as :func:`~repro.cloudsim.catalog.install_catalog` (which remains the
   executable reference; an equivalence test pins the two together).

Each sweep worker memoizes its own plan on its first
:meth:`CloudSpec.build`; every later build in that worker reuses it, so
the spec tables are resolved once per process, not once per cell.
"""

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
    "zones": (recipe, ...)}`` in exactly the order
    :func:`install_catalog` installs them: AWS regions sorted by name,
    then IBM, then Digital Ocean.  Filtering (``aws_only``/``regions``)
    happens at install time so one plan serves every restriction.
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
        # materializes them when explicitly named — mirroring
        # install_catalog's opt-in behaviour.
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
    """Install ``plan``'s regions into ``cloud``.

    Mirrors :func:`~repro.cloudsim.catalog.install_catalog` exactly —
    same filters, same ordering, same zone construction (both funnel
    through :func:`zone_from_recipe`) — so a plan-based build is
    indistinguishable from a table-based one.
    """
    for entry in plan:
        if aws_only and entry["provider"] != "aws":
            continue
        if regions is not None and entry["name"] not in regions:
            continue
        if entry.get("pack") and regions is None:
            # Pack regions are opt-in: installed only when named.
            continue
        provider = provider_by_name(entry["provider"])
        region = Region(entry["name"], provider,
                        GeoPoint(entry["lat"], entry["lon"]))
        for recipe in entry["zones"]:
            region.add_zone(zone_from_recipe(recipe, cloud.clock,
                                             cloud.seed))
        cloud.add_region(region)
    return cloud

