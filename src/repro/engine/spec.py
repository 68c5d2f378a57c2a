"""Cloud specifications: picklable descriptions of a simulated sky.

The deterministic parallel engine never ships a live :class:`Cloud` across
a process boundary — clouds hold RNG state, event buses, and hundreds of
host pools.  Instead every grid cell carries a :class:`CloudSpec`, a tiny
value object describing *how* to build its private sky, and the worker
materializes it locally with :meth:`CloudSpec.build`.

A spec restricted to the regions a cell actually touches (see
:meth:`CloudSpec.for_zones`) registers only those regions, and each zone
is built only when the cell first uses it, although the full catalog
spans 41 regions.
"""

from repro.common.errors import ConfigurationError
from repro.cloudsim.catalog import (
    install_catalog,
    provider_name_of_zone,
    region_name_of_zone,
)
from repro.cloudsim.cloud import Cloud


class CloudSpec(object):
    """A picklable description of a simulated sky.

    ``regions`` is either ``None`` (install the whole catalog) or a tuple
    of region names to restrict the build to.  ``aws_only`` mirrors the
    catalog builder's flag.  Specs are immutable value objects: derive
    variants with :meth:`with_seed`.
    """

    __slots__ = ("seed", "aws_only", "regions")

    def __init__(self, seed=0, aws_only=True, regions=None):
        self.seed = int(seed)
        self.aws_only = bool(aws_only)
        self.regions = tuple(regions) if regions is not None else None

    # -- construction ---------------------------------------------------------
    @classmethod
    def for_zones(cls, zone_ids, seed=0):
        """A spec restricted to the regions hosting ``zone_ids``.

        ``aws_only`` is inferred: the spec stays AWS-only unless one of the
        zones lives on another provider.
        """
        if not zone_ids:
            raise ConfigurationError("for_zones needs at least one zone")
        regions = []
        aws_only = True
        for zone_id in zone_ids:
            name = region_name_of_zone(zone_id)
            if name not in regions:
                regions.append(name)
            if provider_name_of_zone(zone_id) != "aws":
                aws_only = False
        return cls(seed=seed, aws_only=aws_only, regions=tuple(regions))

    def with_seed(self, seed):
        """The same topology under a different seed."""
        return CloudSpec(seed=seed, aws_only=self.aws_only,
                         regions=self.regions)

    def build(self):
        """Materialize the spec into a fresh :class:`Cloud`.

        When a :class:`~repro.obs.ship.TelemetryCapture` is ambiently
        active on this thread (a sweep worker running a shipped chunk),
        the capture bus is attached so the cell's events are buffered for
        shipping — task code needs no telemetry-aware parameters.

        Regions install through
        :func:`~repro.cloudsim.catalog.install_catalog`, whose catalog
        table is walked once per process, not per cell.  Each zone is
        built on first use, as of this build's clock time, so a cell pays
        only for the zones it touches.  A named region the catalog lacks,
        or that ``aws_only`` filters out, raises
        :class:`~repro.common.errors.ConfigurationError` here (not in the
        constructor, which sweeps call per cell).
        """
        cloud = Cloud(seed=self.seed)
        install_catalog(cloud, aws_only=self.aws_only, regions=self.regions)
        from repro.obs.ship import current_capture

        capture = current_capture()
        if capture is not None:
            capture.install(cloud)
        return cloud

    def build_with_account(self, zone_id, account_id="sweep"):
        """Build the cloud plus an account on ``zone_id``'s provider."""
        cloud = self.build()
        account = cloud.create_account(account_id,
                                       provider_name_of_zone(zone_id))
        return cloud, account

    # -- value semantics -----------------------------------------------------
    def _key(self):
        return (self.seed, self.aws_only, self.regions)

    def __eq__(self, other):
        if not isinstance(other, CloudSpec):
            return NotImplemented
        return self._key() == other._key()

    def __ne__(self, other):
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    def __hash__(self):
        return hash(self._key())

    def to_dict(self):
        """JSON-safe form (pairs with :meth:`from_dict`)."""
        return {"seed": self.seed, "aws_only": self.aws_only,
                "regions": list(self.regions)
                if self.regions is not None else None}

    @classmethod
    def from_dict(cls, payload):
        return cls(seed=payload["seed"], aws_only=payload["aws_only"],
                   regions=payload["regions"])

    def __repr__(self):
        return "CloudSpec(seed={}, aws_only={}, regions={})".format(
            self.seed, self.aws_only,
            list(self.regions) if self.regions is not None else "all")


def build_sky(seed=0, aws_only=False):
    """The whole catalog: 41 core regions, or the 33 AWS ones.  A run on
    a few zones builds ``CloudSpec.for_zones(zone_ids, seed)`` instead."""
    return CloudSpec(seed=seed, aws_only=aws_only).build()
