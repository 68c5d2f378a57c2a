"""The characterization store: the routing system's view of the sky.

Holds the latest active (poll-based) characterization per zone, tracks
staleness (EX-4 shows volatile zones go stale within a day), and supports
**passive characterization** — folding CPU observations from ordinary
routed workload invocations back into a zone's profile, the paper's
future-work path to eliminating polling cost entirely.
"""

from repro.common.errors import CharacterizationError
from repro.sampling.characterization import (
    CharacterizationBuilder,
    CPUCharacterization,
)


class CharacterizationStore(object):
    """Zone id -> freshest CPU characterization."""

    def __init__(self, staleness_limit=None):
        """``staleness_limit``: seconds after which a profile is considered
        stale (None = never expires)."""
        self.staleness_limit = staleness_limit
        self._active = {}
        self._passive = {}
        # zone -> (active, passive builder, passive samples, merged): the
        # last merged profile, valid while the first three are unchanged.
        self._merged = {}

    # -- active profiles ---------------------------------------------------------
    def put(self, characterization):
        """Store an active (poll-derived) characterization."""
        self._active[characterization.zone_id] = characterization
        return characterization

    def put_campaign(self, campaign_result):
        """Store the ground truth of a finished sampling campaign."""
        return self.put(campaign_result.ground_truth())

    def get(self, zone_id, now=None):
        """The zone's profile; raises if absent or stale.

        When passive observations exist for the zone they are merged with
        the active profile, weighted by observation counts.
        """
        active = self._active.get(zone_id)
        passive = self._passive.get(zone_id)
        if active is None and (passive is None or passive.is_empty()):
            raise CharacterizationError(
                "no characterization for zone {!r}".format(zone_id))
        if active is not None and now is not None and self.is_stale(
                zone_id, now):
            raise CharacterizationError(
                "characterization for {!r} is stale ({:.0f}s old)".format(
                    zone_id, active.age_at(now)))
        if active is None:
            return passive.snapshot()
        if passive is None or passive.is_empty():
            return active
        # The merge reads only the active profile and the builder's
        # counts, and every passive fold adds a sample, so the merged
        # profile holds until one of the three changes.  Routing asks for
        # it several times per decision, far more often than that.
        samples = passive.samples
        memo = self._merged.get(zone_id)
        if (memo is not None and memo[0] is active and memo[1] is passive
                and memo[2] == samples):
            return memo[3]
        merged = CPUCharacterization(
            zone_id=zone_id,
            distribution=active.distribution.merge(
                passive.snapshot().distribution),
            samples=active.samples + samples,
            polls=active.polls,
            cost=active.cost,
            created_at=active.created_at,
        )
        self._merged[zone_id] = (active, passive, samples, merged)
        return merged

    def try_get(self, zone_id, now=None):
        """Like :meth:`get` but returns None instead of raising."""
        try:
            return self.get(zone_id, now=now)
        except CharacterizationError:
            return None

    def is_stale(self, zone_id, now):
        if self.staleness_limit is None:
            return False
        active = self._active.get(zone_id)
        if active is None:
            return True
        return active.age_at(now) > self.staleness_limit

    def zones(self):
        return sorted(set(self._active) | set(self._passive))

    def view(self, zone_ids=None, now=None):
        """Snapshot ``{zone_id: characterization}`` for routing decisions."""
        zone_ids = self.zones() if zone_ids is None else zone_ids
        result = {}
        for zone_id in zone_ids:
            profile = self.try_get(zone_id, now=now)
            if profile is not None:
                result[zone_id] = profile
        return result

    # -- passive characterization (polling-free refinement) ------------------------
    def record_observation(self, zone_id, cpu_key, timestamp=0.0):
        """Fold one CPU observation from a routed invocation into the zone's
        passive profile."""
        builder = self._passive.get(zone_id)
        if builder is None:
            builder = self._passive[zone_id] = CharacterizationBuilder(
                zone_id)
        builder.add_observation(cpu_key, timestamp=timestamp)

    def passive_samples(self, zone_id):
        builder = self._passive.get(zone_id)
        return builder.samples if builder is not None else 0

    def clear_passive(self, zone_id=None):
        if zone_id is None:
            self._passive.clear()
        else:
            self._passive.pop(zone_id, None)

    def __repr__(self):
        return "CharacterizationStore(zones={}, staleness_limit={})".format(
            len(self.zones()), self.staleness_limit)
