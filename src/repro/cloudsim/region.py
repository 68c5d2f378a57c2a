"""Regions: named groups of availability zones with a geographic location."""

from collections.abc import Mapping

from repro.common.errors import ConfigurationError, UnknownZoneError
from repro.cloudsim.network import GeoPoint


class ZoneMap(Mapping):
    """A region's zones by id, in registration order.

    A zone is either added built (:meth:`Region.add_zone`) or registered
    with a zero-argument builder (:meth:`Region.register_zone`) and built
    the first time it is looked up.  ``len``, ``in`` and iteration over
    ids build nothing; ``zones[id]``, ``values()``, ``items()`` and
    ``get()`` build what they return.  The owning
    :class:`~repro.cloudsim.cloud.Cloud` sets two hooks: ``on_register``
    is called with each zone id before it joins the map (and may refuse
    it), ``on_build`` with each zone as it is built or added built.
    """

    __slots__ = ("_zones", "_builders", "on_register", "on_build")

    def __init__(self):
        #: zone_id -> zone, or None while it is still unbuilt.
        self._zones = {}
        self._builders = {}
        self.on_register = None
        self.on_build = None

    def __getitem__(self, zone_id):
        zone = self._zones[zone_id]
        if zone is None:
            zone = self._builders[zone_id]()
            del self._builders[zone_id]
            self._zones[zone_id] = zone
            if self.on_build is not None:
                self.on_build(zone)
        return zone

    def __iter__(self):
        return iter(self._zones)

    def __len__(self):
        return len(self._zones)

    def __contains__(self, zone_id):
        return zone_id in self._zones

    def built(self):
        """The zones built so far, in registration order."""
        return [zone for zone in self._zones.values() if zone is not None]

    def _insert(self, zone_id, zone, builder=None):
        if self.on_register is not None:
            self.on_register(zone_id)
        self._zones[zone_id] = zone
        if builder is not None:
            self._builders[zone_id] = builder
        elif self.on_build is not None:
            self.on_build(zone)


class Region(object):
    """A provider region containing one or more availability zones."""

    def __init__(self, name, provider, geo):
        if not isinstance(geo, GeoPoint):
            raise ConfigurationError("region geo must be a GeoPoint")
        self.name = name
        self.provider = provider
        self.geo = geo
        self.zones = ZoneMap()

    def add_zone(self, zone):
        """Add an already built zone."""
        self._check_new(zone.zone_id)
        self.zones._insert(zone.zone_id, zone)
        return zone

    def register_zone(self, zone_id, builder):
        """Register ``zone_id``; ``builder()`` builds it on first use."""
        self._check_new(zone_id)
        self.zones._insert(zone_id, None, builder)

    def _check_new(self, zone_id):
        if zone_id in self.zones:
            raise ConfigurationError(
                "duplicate zone {!r} in region {!r}".format(
                    zone_id, self.name))

    def zone(self, zone_id):
        try:
            return self.zones[zone_id]
        except KeyError:
            raise UnknownZoneError(zone_id)

    def zone_ids(self):
        return sorted(self.zones)

    def first_zone(self):
        """The region's alphabetically first zone (its default target)."""
        if not self.zones:
            raise ConfigurationError(
                "region {!r} has no zones".format(self.name))
        return self.zones[self.zone_ids()[0]]

    def aggregate_cpu_shares(self):
        """Capacity-weighted CPU distribution across the region's zones."""
        from repro.common.distributions import CategoricalDistribution
        counts = {}
        for zone in self.zones.values():
            for cpu_key, pool in zone.pools.items():
                if pool.capacity > 0:
                    counts[cpu_key] = counts.get(cpu_key, 0) + pool.capacity
        return CategoricalDistribution(counts)

    def __repr__(self):
        return "Region({!r}, provider={!r}, zones={})".format(
            self.name, self.provider.name, len(self.zones))
