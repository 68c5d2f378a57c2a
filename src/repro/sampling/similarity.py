"""Zone similarity and clustering over CPU characterizations (EX-2 tool).

The global map (Figure 2) invites the question *which zones look alike?*
— similar zones are interchangeable routing targets and can share
characterization budgets.  This module computes the pairwise
total-variation distance matrix over characterizations and clusters zones
agglomeratively (scipy's linkage) at a chosen distance threshold.
"""

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.distributions import total_variation_distance


class SimilarityMatrix(object):
    """Pairwise TVD between zone characterizations."""

    def __init__(self, profiles):
        """``profiles``: list of CPUCharacterization (>= 2 zones)."""
        if len(profiles) < 2:
            raise ConfigurationError("need at least two zones to compare")
        zone_ids = [p.zone_id for p in profiles]
        if len(set(zone_ids)) != len(zone_ids):
            raise ConfigurationError("duplicate zones in the profile list")
        self.zone_ids = zone_ids
        self._profiles = {p.zone_id: p for p in profiles}
        size = len(profiles)
        self._matrix = np.zeros((size, size))
        for i in range(size):
            for j in range(i + 1, size):
                tvd = total_variation_distance(
                    profiles[i].distribution, profiles[j].distribution)
                self._matrix[i, j] = self._matrix[j, i] = tvd

    def distance(self, zone_a, zone_b):
        i = self.zone_ids.index(zone_a)
        j = self.zone_ids.index(zone_b)
        return float(self._matrix[i, j])

    def as_array(self):
        return self._matrix.copy()

    def most_similar_pair(self):
        """The two most interchangeable zones."""
        size = len(self.zone_ids)
        best = None
        for i in range(size):
            for j in range(i + 1, size):
                if best is None or self._matrix[i, j] < best[0]:
                    best = (self._matrix[i, j], self.zone_ids[i],
                            self.zone_ids[j])
        return best[1], best[2], best[0]

    def most_distinct_zone(self):
        """The zone least like everything else (mean TVD)."""
        means = self._matrix.sum(axis=1) / (len(self.zone_ids) - 1)
        return self.zone_ids[int(np.argmax(means))]

    # -- clustering ----------------------------------------------------------------
    def clusters(self, threshold=0.15, method="average"):
        """Group zones whose linkage distance stays under ``threshold``.

        Returns a list of sorted zone-id lists (deterministic order).
        """
        if threshold <= 0:
            raise ConfigurationError("threshold must be positive")
        # Imported here, like scipy.stats in the estimators: scipy's
        # clustering is needed only when zones are actually clustered.
        from scipy.cluster import hierarchy
        from scipy.spatial.distance import squareform

        condensed = squareform(self._matrix, checks=False)
        linkage = hierarchy.linkage(condensed, method=method)
        labels = hierarchy.fcluster(linkage, t=threshold,
                                    criterion="distance")
        groups = {}
        for zone_id, label in zip(self.zone_ids, labels):
            groups.setdefault(int(label), []).append(zone_id)
        return sorted((sorted(group) for group in groups.values()),
                      key=lambda g: g[0])

    def representative_zones(self, threshold=0.15):
        """One zone per cluster — a reduced characterization budget that
        still spans the sky's diversity."""
        return [group[0] for group in self.clusters(threshold)]

    def __repr__(self):
        return "SimilarityMatrix(zones={})".format(len(self.zone_ids))
