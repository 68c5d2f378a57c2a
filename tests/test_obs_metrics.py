"""The metrics registry: counters, gauges, histogram quantiles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.obs import metrics
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    quantile,
)


class TestQuantile(object):
    def test_matches_numpy_linear_interpolation(self):
        rng = np.random.default_rng(7)
        values = sorted(rng.normal(10.0, 3.0, size=501).tolist())
        for q in (0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0):
            assert quantile(values, q) == pytest.approx(
                float(np.quantile(values, q)), rel=1e-12)

    def test_single_value(self):
        assert quantile([3.0], 0.95) == 3.0

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            quantile([], 0.5)

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            quantile([1.0], 1.5)


class TestCounterGauge(object):
    def test_counter_accumulates(self):
        counter = Counter()
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_counter_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            Counter().inc(-1)

    def test_gauge_moves_both_ways(self):
        gauge = Gauge()
        gauge.set(10)
        gauge.dec(4)
        gauge.inc(1)
        assert gauge.value == 7.0


class TestHistogram(object):
    def test_quantiles_exact_vs_numpy_within_reservoir(self):
        """While count <= reservoir_size, quantiles are exact."""
        rng = np.random.default_rng(42)
        values = rng.lognormal(0.0, 0.5, size=800).tolist()
        histogram = Histogram(reservoir_size=1024)
        for value in values:
            histogram.observe(value)
        for q, attr in ((0.5, "p50"), (0.95, "p95"), (0.99, "p99")):
            assert getattr(histogram, attr) == pytest.approx(
                float(np.quantile(values, q)), rel=1e-12)

    def test_quantiles_approximate_beyond_reservoir(self):
        rng = np.random.default_rng(3)
        values = rng.normal(100.0, 10.0, size=20000).tolist()
        histogram = Histogram(reservoir_size=1024)
        for value in values:
            histogram.observe(value)
        assert histogram.count == 20000
        # Reservoir sampling keeps the estimate near ground truth.
        assert histogram.p50 == pytest.approx(
            float(np.quantile(values, 0.5)), rel=0.02)
        assert histogram.p95 == pytest.approx(
            float(np.quantile(values, 0.95)), rel=0.02)

    def test_count_sum_mean_min_max(self):
        histogram = Histogram()
        for value in (1.0, 2.0, 3.0):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.sum == 6.0
        assert histogram.mean == 2.0
        assert histogram.min == 1.0
        assert histogram.max == 3.0

    def test_cumulative_buckets_are_monotone_and_end_at_count(self):
        histogram = Histogram(buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 5.0, 50.0):
            histogram.observe(value)
        buckets = histogram.cumulative_buckets()
        assert buckets == [(0.1, 1), (1.0, 2), (10.0, 3), ("+Inf", 4)]

    def test_boundary_value_counts_as_le(self):
        histogram = Histogram(buckets=(1.0, 2.0))
        histogram.observe(1.0)
        assert histogram.cumulative_buckets()[0] == (1.0, 1)

    def test_empty_quantile_rejected(self):
        with pytest.raises(ConfigurationError):
            Histogram().quantile(0.5)

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ConfigurationError):
            Histogram(buckets=(2.0, 1.0))

    def test_deterministic_reservoir(self):
        rng = np.random.default_rng(5)
        values = rng.normal(0.0, 1.0, size=5000).tolist()
        first, second = Histogram(reservoir_size=64), \
            Histogram(reservoir_size=64)
        for value in values:
            first.observe(value)
            second.observe(value)
        assert first.p95 == second.p95


def _histogram_state(histogram):
    return (list(histogram.bucket_counts), histogram.count, histogram.min,
            histogram.max, list(histogram._reservoir),
            histogram._rng.getstate())


class TestObserveManyMatchesObserve(object):
    """``observe_many`` is the batch fast path; per-element ``observe`` is
    its spec.  Everything must agree exactly except ``sum``, which numpy
    adds in pairwise order (equal up to float rounding)."""

    @staticmethod
    def _replay(reservoir_size, start, batches, seed=3):
        rng = np.random.default_rng(seed)
        spec = Histogram(reservoir_size=reservoir_size, seed=seed)
        fast = Histogram(reservoir_size=reservoir_size, seed=seed)
        warmup = rng.lognormal(-2.0, 1.0, size=start).tolist()
        for value in warmup:
            spec.observe(value)
            fast.observe(value)
        for size in batches:
            values = rng.lognormal(-2.0, 1.0, size=size)
            for value in values.tolist():
                spec.observe(value)
            fast.observe_many(values)
            assert _histogram_state(fast) == _histogram_state(spec)
            assert fast.sum == pytest.approx(spec.sum, rel=1e-12)
        return spec, fast

    def test_batch_crossing_the_fill_boundary(self):
        # 60 fill the reservoir's last slots, the other 140 replay R.
        spec, _ = self._replay(64, 4, [200])
        assert spec.count == 204

    def test_counts_crossing_powers_of_two(self):
        # Running counts pass 128, 256, 512 and 1024 inside batches, where
        # the rejection draw widens by one bit.
        self._replay(16, 100, [30, 200, 300, 500])

    def test_values_on_bucket_boundaries(self):
        values = [0.001, 0.0025, 1.0, 300.0, 300.5, 0.0, -1.0,
                  float("inf"), 0.001, 60.0]
        spec, fast = Histogram(reservoir_size=4), Histogram(reservoir_size=4)
        for value in values:
            spec.observe(value)
        fast.observe_many(np.asarray(values))
        assert _histogram_state(fast) == _histogram_state(spec)

    def test_batch_exactly_filling_the_reservoir(self):
        spec, _ = self._replay(32, 0, [32, 1, 31, 33])
        assert len(spec._reservoir) == 32

    @settings(max_examples=60, deadline=None)
    @given(reservoir_size=st.integers(min_value=1, max_value=80),
           start=st.integers(min_value=0, max_value=300),
           batches=st.lists(st.integers(min_value=1, max_value=300),
                            min_size=1, max_size=5),
           seed=st.integers(min_value=0, max_value=2 ** 16))
    def test_any_batch_sequence(self, reservoir_size, start, batches, seed):
        self._replay(reservoir_size, start, batches, seed=seed)


def _warm_histogram(reservoir_size, count, seed):
    """A histogram as if ``count`` values had been observed: full
    reservoir, running count, and an RNG moved off its seed state."""
    rng = np.random.default_rng(seed)
    histogram = Histogram(reservoir_size=reservoir_size, seed=seed)
    if count:
        fill = min(reservoir_size, count)
        histogram._reservoir = rng.lognormal(-2.0, 1.0, size=fill).tolist()
        histogram.count = count
        histogram.sum = float(sum(histogram._reservoir))
        histogram.min = min(histogram._reservoir)
        histogram.max = max(histogram._reservoir)
    for _ in range(seed % 997):
        histogram._rng.random()
    return histogram


def _full_state(histogram):
    return _histogram_state(histogram) + (histogram.sum.hex(),)


class TestObserveManyColumnar(object):
    """Large folds replay algorithm R in bulk through numpy's MT19937;
    per-element ``observe`` stays the spec, with ``sum`` compared bit
    for bit against the in-order per-array numpy sums."""

    @staticmethod
    def _check(reservoir_size, start, calls, seed=11):
        """``calls`` is a list of tuples of array sizes; each tuple is
        one ``observe_many(*arrays)`` call (an int means ``observe``)."""
        rng = np.random.default_rng(seed + 1)
        spec = _warm_histogram(reservoir_size, start, seed)
        fast = _warm_histogram(reservoir_size, start, seed)
        expected_sum = spec.sum
        for call in calls:
            if isinstance(call, int):
                value = float(rng.lognormal(-2.0, 1.0))
                spec.observe(value)
                fast.observe(value)
                expected_sum += value
            else:
                arrays = [rng.lognormal(-2.0, 1.0, size=size)
                          for size in call]
                for arr in arrays:
                    for value in arr.tolist():
                        spec.observe(value)
                    if arr.size:
                        expected_sum += float(arr.sum())
                fast.observe_many(*arrays)
            assert _histogram_state(fast) == _histogram_state(spec)
            assert fast.sum.hex() == expected_sum.hex()
        return fast

    @pytest.fixture
    def replays(self, monkeypatch):
        """The sizes the columnar replay was called with."""
        sizes = []
        replay = metrics._replay_slots

        def spy(rng, count, n):
            sizes.append(n)
            return replay(rng, count, n)

        monkeypatch.setattr(metrics, "_replay_slots", spy)
        return sizes

    @pytest.mark.parametrize("reservoir_size", [1, 7, 1024])
    def test_large_folds_cross_powers_of_two(self, reservoir_size,
                                             replays):
        # 2**18 falls inside the first fold, 2**19 is far beyond.
        fast = self._check(reservoir_size, 2 ** 18 - 6000,
                           [(20000,), (16384,), (5000,)])
        assert fast.count == 2 ** 18 - 6000 + 41384
        assert replays == [20000, 16384, 5000]

    def test_small_folds_stay_scalar(self, replays):
        self._check(7, 2 ** 17, [(300,), (metrics._COLUMNAR_MIN - 1,)])
        assert replays == []

    @pytest.mark.parametrize("reservoir_size", [1, 7, 1024])
    def test_multi_array_call(self, reservoir_size):
        self._check(reservoir_size, 2 ** 17,
                    [(300, 0, 4100, 17, 9000), (1, 2, 3), (16384,)])

    def test_mixed_scalar_and_columnar_sequence(self):
        self._check(7, 2 ** 17 + 3,
                    [1, (250,), 1, (8192,), (40, 4096), 1, 1, (19999,)])

    def test_fill_then_columnar_in_one_call(self):
        # 1024 values fill the reservoir, the other 19k replay in bulk.
        self._check(1024, 0, [(20000,)])

    def test_multi_array_call_equals_one_call_per_array(self):
        rng = np.random.default_rng(5)
        arrays = [rng.lognormal(-2.0, 1.0, size=size)
                  for size in (3000, 2500, 7000, 1)]
        together = _warm_histogram(64, 2 ** 17, 5)
        apart = _warm_histogram(64, 2 ** 17, 5)
        together.observe_many(*arrays)
        for arr in arrays:
            apart.observe_many(arr)
        assert _full_state(together) == _full_state(apart)

    def test_counts_near_two_to_the_32_fall_back(self, replays):
        # Draws past 2**32 take two words each: the scalar loop runs.
        fast = self._check(16, 2 ** 32 - 3000, [(6000,), (5000,)])
        assert fast.count > 2 ** 32
        assert replays == []
        # A fold ending just below 2**32 is still columnar (k = 32).
        self._check(16, 2 ** 32 - 9000, [(8999,)])
        assert replays == [8999]

    @settings(max_examples=12, deadline=None)
    @given(reservoir_size=st.sampled_from([1, 7, 1024]),
           start=st.integers(min_value=2 ** 17, max_value=2 ** 21),
           calls=st.lists(st.lists(st.integers(min_value=0,
                                               max_value=20000),
                                   min_size=1, max_size=3).map(tuple),
                          min_size=1, max_size=3),
           seed=st.integers(min_value=0, max_value=2 ** 16))
    def test_any_fold_sequence(self, reservoir_size, start, calls, seed):
        self._check(reservoir_size, start, calls, seed=seed)


class TestMetricsRegistry(object):
    def test_children_keyed_by_labels(self):
        registry = MetricsRegistry()
        registry.counter("requests", zone="a").inc()
        registry.counter("requests", zone="a").inc()
        registry.counter("requests", zone="b").inc()
        assert registry.get("requests", zone="a").value == 2.0
        assert registry.get("requests", zone="b").value == 1.0

    def test_label_order_is_irrelevant(self):
        registry = MetricsRegistry()
        registry.counter("x", zone="a", cpu="c").inc()
        assert registry.get("x", cpu="c", zone="a").value == 1.0

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x", zone="a")
        with pytest.raises(ConfigurationError):
            registry.gauge("x", zone="a")

    def test_get_never_creates(self):
        registry = MetricsRegistry()
        assert registry.get("nope", zone="a") is None
        assert len(registry) == 0

    def test_collect_sorted_and_complete(self):
        registry = MetricsRegistry()
        registry.counter("b_total", zone="z").inc()
        registry.gauge("a_gauge").set(5)
        registry.histogram("lat", zone="z").observe(1.0)
        collected = [(name, kind, labels)
                     for name, kind, labels, _ in registry.collect()]
        assert collected == [
            ("a_gauge", "gauge", {}),
            ("b_total", "counter", {"zone": "z"}),
            ("lat", "histogram", {"zone": "z"}),
        ]

    def test_labels_of(self):
        registry = MetricsRegistry()
        registry.counter("x", zone="a").inc()
        registry.counter("x", zone="b").inc()
        assert registry.labels_of("x") == [{"zone": "a"}, {"zone": "b"}]

    def test_unknown_kind_lookup_raises(self):
        with pytest.raises(ConfigurationError):
            MetricsRegistry().kind("missing")
