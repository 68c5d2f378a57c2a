"""Summary statistics with the benchmark's reporting rules.

* Repeats are summarized as median and quartiles, never best-of, and
  always with their sample count.
* The end-to-end timings (``served_rps``, ``setup_s``) are reported at
  their fast quartile: the upper quartile of per-repeat rates and the
  lower quartile of set-up times.  The machines this runs on move
  between fast and up to ~1.7x slower phases lasting tens of seconds, so
  a run's median mostly measures its mix of phases; the fast quartile,
  still a quarter of the samples and never the single best, measures
  the program.
* A percentile is reported only where at least ``MIN_TAIL`` samples lie
  beyond it; otherwise :func:`percentile` returns None.
"""

import math
import os
import statistics

#: Samples that must lie beyond a percentile before it is reported.
MIN_TAIL = 10


class Summary(object):
    """Median and quartiles of a list of repeat values."""

    __slots__ = ("n", "median", "q1", "q3")

    def __init__(self, values):
        values = sorted(values)
        if not values:
            raise ValueError("no samples to summarize")
        self.n = len(values)
        self.median = statistics.median(values)
        if self.n >= 2:
            self.q1, _, self.q3 = statistics.quantiles(values, n=4)
        else:
            self.q1 = self.q3 = values[0]

    def describe(self, fmt="{:.6g}"):
        return "median={} q1={} q3={} n={}".format(
            fmt.format(self.median), fmt.format(self.q1),
            fmt.format(self.q3), self.n)


def _rank(q, n):
    """1-based nearest rank of the ``q`` quantile among ``n`` samples."""
    return max(1, int(math.ceil(q * n - 1e-9)))


def supported(q, n):
    """True when at least ``MIN_TAIL`` of ``n`` samples lie beyond ``q``."""
    return n > 0 and n - _rank(q, n) >= MIN_TAIL


def percentile(values, q):
    """Nearest-rank ``q`` quantile of ``values``, or None when fewer than
    ``MIN_TAIL`` samples lie beyond it."""
    n = len(values)
    if not supported(q, n):
        return None
    return sorted(values)[_rank(q, n) - 1]


def failed_share(offered, shed, failed, served):
    """Failed operations over attempted ones.

    Requests that were admitted but neither served nor failed
    (``unaccounted``) count as failed, so a path that silently drops work
    cannot read as faster.  Returns ``(share, unaccounted)``.
    """
    if offered <= 0:
        raise ValueError("nothing was offered")
    unaccounted = offered - shed - failed - served
    if unaccounted < 0:
        raise ValueError("more outcomes than offered requests")
    return (shed + failed + unaccounted) / float(offered), unaccounted


def _vm_hwm_kb(pid):
    """Peak resident set (VmHWM) of ``pid`` in KiB, or None."""
    try:
        with open("/proc/{}/status".format(pid)) as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        return None
    return None


def descendants(pid):
    """Process ids of every live descendant of ``pid`` (Linux /proc)."""
    children = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/{}/stat".format(entry)) as handle:
                stat = handle.read()
        except OSError:  # the process exited after the listing
            continue
        # The command name is parenthesized and may contain spaces.
        fields = stat[stat.rfind(")") + 2:].split()
        children.setdefault(int(fields[1]), []).append(int(entry))
    found, frontier = [], [pid]
    while frontier:
        kids = children.get(frontier.pop(), [])
        found.extend(kids)
        frontier.extend(kids)
    return found


class PeakRss(object):
    """Peak resident memory of this process plus sampled descendants.

    ``sample()`` records each live descendant's high-water mark; the
    total is this process's peak plus the largest peak seen for every
    descendant, in MB.
    """

    def __init__(self):
        self._children = {}

    def sample(self):
        for child in descendants(os.getpid()):
            peak = _vm_hwm_kb(child)
            if peak is not None and peak > self._children.get(child, 0):
                self._children[child] = peak

    def total_mb(self):
        own = _vm_hwm_kb(os.getpid())
        return (own + sum(self._children.values())) / 1024.0
