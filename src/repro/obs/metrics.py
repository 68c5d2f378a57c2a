"""Metrics registry: labeled counters, gauges, and streaming histograms.

A :class:`MetricsRegistry` owns metric *families* (one per name); each
family holds children keyed by their label set (zone, cpu, policy,
provider, ...).  Histograms combine fixed buckets (Prometheus-style
cumulative counts, cheap and mergeable) with a deterministic reservoir
sample for accurate p50/p95/p99 quantiles.

Everything here is pure bookkeeping on plain Python objects — no clock,
no I/O — so the layer sits at the bottom of the stack next to ``common``.
"""

import bisect
import math
import random
import threading
from array import array

from repro.common.errors import ConfigurationError

#: Sentinel distinguishing "no default supplied" from ``default=None``.
_NO_DEFAULT = object()


def quantile(sorted_values, q):
    """Linear-interpolation quantile of an ascending list (numpy's default
    method), shared with :class:`~repro.core.telemetry.RoutingTelemetry`."""
    if not sorted_values:
        raise ConfigurationError("quantile of an empty sequence")
    if not 0.0 <= q <= 1.0:
        raise ConfigurationError("q must be in [0, 1]")
    position = q * (len(sorted_values) - 1)
    lower = int(math.floor(position))
    upper = int(math.ceil(position))
    if lower == upper:
        return sorted_values[lower]
    fraction = position - lower
    return (sorted_values[lower] * (1.0 - fraction)
            + sorted_values[upper] * fraction)


class Counter(object):
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def inc(self, amount=1.0):
        if amount < 0:
            raise ConfigurationError("counters only go up")
        self.value += amount
        return self.value

    def __repr__(self):
        return "Counter({})".format(self.value)


class Gauge(object):
    """A value that can go up and down (occupancy, pool size, ...)."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def set(self, value):
        self.value = float(value)
        return self.value

    def inc(self, amount=1.0):
        self.value += amount
        return self.value

    def dec(self, amount=1.0):
        self.value -= amount
        return self.value

    def __repr__(self):
        return "Gauge({})".format(self.value)


# Default buckets span sub-millisecond runtimes up to multi-minute holds —
# the latency range the simulator produces (seconds).
DEFAULT_BUCKETS = (0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
                   0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 300.0)

#: Post-fill values below which ``observe_many`` keeps the scalar
#: algorithm R loop: handing the RNG state to numpy and back costs a
#: fixed ~0.2 ms, which only pays off at report-window fold sizes.
_COLUMNAR_MIN = 4096

#: Rank-dependent words per columnar chunk: a chunk at draw width ``k``
#: holds about ``isqrt(_DEPENDENT_WORDS << k)`` draws, which leaves about
#: this many words for the Python loop to resolve in order.
_DEPENDENT_WORDS = 50

#: Per-thread scratch bit generator.  Its state is overwritten from the
#: histogram's RNG at the start of every columnar replay and copied back
#: at the end, so nothing carries over between calls; it only saves
#: seeding a fresh ``MT19937`` each time.
_SCRATCH = threading.local()


def _replay_slots(rng, count, n):
    """The slots of ``rng.randrange(count + i + 1)`` for ``i < n``, drawn
    in bulk, leaving ``rng`` in exactly the state the scalar loop would.

    Valid while ``count + n < 2**32``.  Each ``randrange(c)`` then
    rejection-samples ``k = c.bit_length() <= 32`` bits, and CPython
    takes ``k`` bits as the top ``k`` of one MT19937 word, so numpy's
    ``MT19937`` seeded with the same state yields the same attempts word
    for word.  Chunks keep ``k`` fixed (they never cross a power of two),
    so a word ``r`` is accepted by every draw of the chunk when
    ``r <= count``, by none when ``r >= count + m``, and in between only
    by draws of rank ``> r - count - 1``; only those few middle words are
    resolved in a Python loop.  Finally the bit generator is reset and
    advanced by exactly the words consumed, and that state is written
    back with ``setstate``.
    """
    import numpy as np

    version, internal, gauss_next = rng.getstate()
    # A tuple key: numpy's setter copies it word by word, which is ~25x
    # faster from a tuple than from an array.
    start = {"bit_generator": "MT19937",
             "state": {"key": internal[:-1], "pos": internal[-1]}}
    bitgen = getattr(_SCRATCH, "bitgen", None)
    if bitgen is None:
        bitgen = _SCRATCH.bitgen = np.random.MT19937(0)
    bitgen.state = start
    slots = np.empty(n, dtype=np.int64)
    words = np.empty(0, dtype=np.uint64)
    cursor = 0  # next unread index into ``words``
    used = 0  # words consumed before ``words[0]``
    done = 0
    while done < n:
        k = (count + 1).bit_length()
        m = min(n - done, (1 << k) - 1 - count,
                math.isqrt(_DEPENDENT_WORDS << k))
        # Each draw takes 2**k / (count + i + 1) < 2 attempts on average.
        want = (m << k) // (count + 1) + 3 * math.isqrt(2 * m) + 8
        if len(words) - cursor < want:
            used += cursor
            fresh = bitgen.random_raw(
                want + ((n - done) << k) // (count + 1))
            words = np.concatenate((words[cursor:], fresh))
            cursor = 0
        r = words[cursor:cursor + want] >> (32 - k)
        accepted = r <= count
        middle = np.flatnonzero((r < count + m) & ~accepted)
        if middle.size:
            ahead = np.cumsum(accepted)[middle]
            taken = 0
            for position, before, word in zip(middle.tolist(),
                                              ahead.tolist(),
                                              r[middle].tolist()):
                rank = before + taken
                if rank >= m:
                    break
                if word <= count + rank:
                    accepted[position] = True
                    taken += 1
        hits = np.flatnonzero(accepted)[:m]
        got = len(hits)
        slots[done:done + got] = r[hits]
        cursor += int(hits[-1]) + 1 if got == m else want
        done += got
        count += got
    bitgen.state = start
    bitgen.random_raw(used + cursor, output=False)
    state = bitgen.state["state"]
    rng.setstate((version, tuple(state["key"].tolist())
                  + (int(state["pos"]),), gauss_next))
    return slots


class Histogram(object):
    """Streaming histogram: fixed buckets + reservoir quantiles.

    Bucket counts are *cumulative* (`le` semantics) only at export time;
    internally each bucket holds its own count.  The reservoir uses
    Vitter's algorithm R with a per-histogram deterministic seed, so
    quantiles are exact while ``count <= reservoir_size`` and an unbiased
    sample beyond.  The reservoir is an ``array('d')``: the same doubles
    as a list of floats at a quarter of the memory (8 KB instead of
    32 KB when full), which matters for runs that keep many reports.
    """

    __slots__ = ("buckets", "bucket_counts", "count", "sum", "min", "max",
                 "_reservoir", "_reservoir_size", "_rng")

    def __init__(self, buckets=None, reservoir_size=1024, seed=0):
        buckets = tuple(buckets) if buckets is not None else DEFAULT_BUCKETS
        if not buckets or list(buckets) != sorted(buckets):
            raise ConfigurationError("buckets must be ascending and "
                                     "non-empty")
        if reservoir_size < 1:
            raise ConfigurationError("reservoir_size must be >= 1")
        self.buckets = buckets
        self.bucket_counts = [0] * (len(buckets) + 1)  # +inf overflow
        self.count = 0
        self.sum = 0.0
        self.min = None
        self.max = None
        self._reservoir = array("d")
        self._reservoir_size = int(reservoir_size)
        self._rng = random.Random(seed)

    def observe(self, value):
        value = float(value)
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        self.bucket_counts[bisect.bisect_left(self.buckets, value)] += 1
        if len(self._reservoir) < self._reservoir_size:
            self._reservoir.append(value)
        else:
            slot = self._rng.randrange(self.count)
            if slot < self._reservoir_size:
                self._reservoir[slot] = value

    def observe_many(self, *arrays):
        """Record arrays of observations in one vectorized pass.

        Semantically identical to one call per array in order, each
        identical to calling :meth:`observe` per element in order — same
        bucket counts, same reservoir contents, same RNG state (algorithm
        R consumes the per-histogram RNG element by element).  ``sum``
        adds each array's numpy sum in order, so folding many arrays at
        once leaves it bit-identical to observing them one by one.  The
        count/sum/min/max and bucket accounting run through numpy, which
        is what lets the serving gateway fold a report window's latency
        arrays into quantile accounting without a Python-level loop.
        """
        import numpy as np

        parts = []
        for values in arrays:
            arr = np.asarray(values, dtype=np.float64).reshape(-1)
            if arr.size:
                self.sum += float(arr.sum())
                parts.append(arr)
        if not parts:
            return
        arr = parts[0] if len(parts) == 1 else np.concatenate(parts)
        n = int(arr.size)
        lo = float(arr.min())
        hi = float(arr.max())
        if self.min is None or lo < self.min:
            self.min = lo
        if self.max is None or hi > self.max:
            self.max = hi
        # ``observe`` files a value under ``bisect_left(buckets, value)``,
        # the first bucket >= value, so ``at_most[i]`` (values <= bucket
        # i) is the cumulative count; searching the sorted batch is
        # several times cheaper than a per-value ``searchsorted``.
        at_most = np.searchsorted(np.sort(arr), self.buckets, side="right")
        bucket_counts = self.bucket_counts
        below = 0
        for i, upto in enumerate(at_most.tolist()):
            if upto != below:
                bucket_counts[i] += upto - below
                below = upto
        if n != below:
            bucket_counts[-1] += n - below
        # Reservoir: algorithm R is inherently sequential (each slot draw
        # depends on the running count), so replay it exactly.
        reservoir = self._reservoir
        size = self._reservoir_size
        count = self.count
        fill = 0
        if len(reservoir) < size:
            fill = min(size - len(reservoir), n)
            reservoir.extend(arr[:fill].tolist())
            count += fill
        rest = n - fill
        if rest >= _COLUMNAR_MIN and count + rest < 1 << 32:
            slots = _replay_slots(self._rng, count, rest)
            hits = np.flatnonzero(slots < size)
            for slot, value in zip(slots[hits].tolist(),
                                   arr[fill:][hits].tolist()):
                reservoir[slot] = value
            self.count = count + rest
            return
        # ``rng.randrange(count)`` inlined: CPython draws it as
        # ``_randbelow(count)``, rejection-sampling ``count.bit_length()``
        # bits, so these are the same draws and the same RNG state.
        getrandbits = self._rng.getrandbits
        for value in arr[fill:].tolist():
            count += 1
            k = count.bit_length()
            slot = getrandbits(k)
            while slot >= count:
                slot = getrandbits(k)
            if slot < size:
                reservoir[slot] = value
        self.count = count

    @property
    def mean(self):
        if self.count == 0:
            return 0.0
        return self.sum / self.count

    def quantile(self, q, default=_NO_DEFAULT):
        """Reservoir quantile; exact while count <= reservoir_size.

        An empty histogram raises unless ``default`` is supplied —
        summary paths that aggregate many series pass ``default`` so one
        cold series cannot crash the whole report.
        """
        if self.count == 0 or not self._reservoir:
            if default is not _NO_DEFAULT:
                return default
            raise ConfigurationError("quantile of an empty histogram")
        return quantile(sorted(self._reservoir), q)

    @property
    def p50(self):
        return self.quantile(0.50)

    @property
    def p95(self):
        return self.quantile(0.95)

    @property
    def p99(self):
        return self.quantile(0.99)

    # -- cross-process shipping ---------------------------------------------
    def state(self, max_reservoir=None):
        """A picklable snapshot for shipping across process boundaries.

        ``max_reservoir`` caps the shipped sample (evenly strided) so a
        telemetry frame stays bounded; bucket counts always carry the full
        distribution.  Pairs with :meth:`merge_state`.
        """
        reservoir = self._reservoir
        if max_reservoir is not None and len(reservoir) > max_reservoir:
            step = len(reservoir) / float(max_reservoir)
            reservoir = [reservoir[int(i * step)]
                         for i in range(int(max_reservoir))]
        return {
            "buckets": self.buckets,
            "bucket_counts": list(self.bucket_counts),
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "reservoir": list(reservoir),
        }

    def merge_state(self, state):
        """Fold a :meth:`state` snapshot from another process into this
        histogram.

        Bucket counts, count, sum, and min/max merge exactly.  The
        reservoir is appended then truncated to capacity — a deterministic
        (slightly existing-biased) sample; quantiles stay estimates, the
        buckets stay authoritative.
        """
        if tuple(state["buckets"]) != self.buckets:
            raise ConfigurationError(
                "cannot merge histograms with different buckets")
        self.count += int(state["count"])
        self.sum += float(state["sum"])
        for index, bucket_count in enumerate(state["bucket_counts"]):
            self.bucket_counts[index] += bucket_count
        if state["min"] is not None:
            if self.min is None or state["min"] < self.min:
                self.min = state["min"]
        if state["max"] is not None:
            if self.max is None or state["max"] > self.max:
                self.max = state["max"]
        self._reservoir.extend(state["reservoir"])
        del self._reservoir[self._reservoir_size:]
        return self

    def cumulative_buckets(self):
        """Prometheus-style ``[(le, cumulative_count), ..., ('+Inf', n)]``."""
        out = []
        running = 0
        for upper, bucket_count in zip(self.buckets, self.bucket_counts):
            running += bucket_count
            out.append((upper, running))
        out.append(("+Inf", self.count))
        return out

    def __repr__(self):
        return "Histogram(count={}, mean={:.4f})".format(self.count,
                                                         self.mean)


COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"


class MetricsRegistry(object):
    """Families of labeled metrics, created on first touch.

    Family/child creation and structural reads (:meth:`collect`,
    :meth:`names`, ...) are guarded by a lock so off-thread exporters and
    the ``/metrics`` endpoint can snapshot the registry while the
    simulation thread keeps creating series — scrapes never see a
    mid-mutation dict.  Updates on an already-obtained metric handle
    (``.inc()``, ``.observe()``) are plain attribute writes and stay
    lock-free; holding a pre-bound handle is the zero-overhead hot path.

    >>> registry = MetricsRegistry()
    >>> registry.counter("requests_total", zone="us-west-1a").inc()
    1.0
    >>> registry.histogram("latency_s", zone="us-west-1a").observe(0.2)
    """

    def __init__(self):
        self._families = {}
        self._lock = threading.Lock()
        #: Bumped by :meth:`clear`; holders of pre-bound handles re-bind
        #: when it changes.
        self.generation = 0

    # -- access ------------------------------------------------------------
    def counter(self, name, **labels):
        return self._child(name, COUNTER, Counter, labels)

    def gauge(self, name, **labels):
        return self._child(name, GAUGE, Gauge, labels)

    def histogram(self, name, buckets=None, **labels):
        return self._child(name, HISTOGRAM,
                           lambda: Histogram(buckets=buckets), labels)

    def _child(self, name, kind, factory, labels):
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = self._families[name] = {"kind": kind,
                                                 "children": {}}
            elif family["kind"] != kind:
                raise ConfigurationError(
                    "metric {!r} is a {}, not a {}".format(
                        name, family["kind"], kind))
            key = tuple(sorted(labels.items()))
            child = family["children"].get(key)
            if child is None:
                child = family["children"][key] = factory()
            return child

    # -- introspection ------------------------------------------------------
    def names(self):
        with self._lock:
            return sorted(self._families)

    def kind(self, name):
        with self._lock:
            try:
                return self._families[name]["kind"]
            except KeyError:
                raise ConfigurationError(
                    "unknown metric {!r}".format(name))

    def collect(self):
        """Yield ``(name, kind, labels_dict, metric)`` sorted by name and
        label set — the exporters' single input.

        The family/child structure is snapshotted under the registry lock
        before anything is yielded, so concurrent series creation (a
        simulation thread racing an exporter or ``/metrics`` scrape)
        can never raise ``RuntimeError: dictionary changed size`` or
        surface a half-registered family.
        """
        with self._lock:
            snapshot = [
                (name, family["kind"], key, family["children"][key])
                for name, family in sorted(self._families.items())
                for key in sorted(family["children"])
            ]
        for name, kind, key, metric in snapshot:
            yield name, kind, dict(key), metric

    def get(self, name, **labels):
        """The existing child, or None (never creates)."""
        with self._lock:
            family = self._families.get(name)
            if family is None:
                return None
            return family["children"].get(tuple(sorted(labels.items())))

    def labels_of(self, name):
        """Every label set recorded under ``name``."""
        with self._lock:
            family = self._families.get(name)
            if family is None:
                return []
            return [dict(key) for key in sorted(family["children"])]

    def clear(self):
        with self._lock:
            self._families.clear()
            self.generation += 1

    def __len__(self):
        with self._lock:
            return sum(len(f["children"])
                       for f in self._families.values())

    def __repr__(self):
        return "MetricsRegistry(families={}, children={})".format(
            len(self._families), len(self))
