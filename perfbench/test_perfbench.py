"""Tests for the benchmark's own arithmetic.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import pytest

from stats import MIN_TAIL, Summary, failed_share, percentile, supported
from tracer import Tracer


class FakeClock(object):
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class Slotted(object):
    __slots__ = ("clock",)

    def __init__(self, clock):
        self.clock = clock

    def tick(self):
        self.clock.advance(4.0)
        return "tick"


ORIGINAL_TICK = vars(Slotted)["tick"]


class Inner(object):
    def __init__(self, clock):
        self.clock = clock

    def work(self, seconds):
        self.clock.advance(seconds)
        return seconds


class Outer(object):
    def __init__(self, clock, inner, slotted):
        self.clock = clock
        self.inner = inner
        self.slotted = slotted

    def run(self):
        self.clock.advance(1.0)
        self.inner.work(3.0)
        self.clock.advance(2.0)
        self.slotted.tick()
        self.inner.work(0.5)
        return "done"


def traced_rig():
    clock = FakeClock()
    inner, slotted = Inner(clock), Slotted(clock)
    outer = Outer(clock, inner, slotted)
    tracer = Tracer(clock=clock)
    tracer.wrap_instance(outer, "run", "outer")
    tracer.wrap_instance(inner, "work", "inner")
    tracer.wrap_class(Slotted, "tick", "slotted")
    return tracer, outer, inner


def test_self_time_is_duration_minus_children():
    tracer, outer, _ = traced_rig()
    try:
        assert outer.run() == "done"
    finally:
        tracer.restore()
    assert tracer.layer("outer").total_s == pytest.approx(10.5)
    assert tracer.layer("outer").self_s == pytest.approx(3.0)
    assert tracer.layer("inner").calls == 2
    assert tracer.layer("inner").self_s == pytest.approx(3.5)
    assert tracer.layer("slotted").self_s == pytest.approx(4.0)
    # Self times partition the root span's wall time.
    assert sum(layer.self_s for layer in tracer.stats.values()) \
        == pytest.approx(10.5)


def test_spans_record_parents_in_memory():
    tracer, outer, _ = traced_rig()
    with tracer:
        outer.run()
    assert tracer.span_count() == 4
    assert list(tracer.span_parent) == [-1, 0, 0, 0]
    assert tracer.span_start[1] == pytest.approx(1.0)
    assert tracer.span_end[0] == pytest.approx(10.5)


def test_restore_puts_the_originals_back():
    tracer, outer, inner = traced_rig()
    assert vars(Slotted)["tick"] is not ORIGINAL_TICK
    tracer.restore()
    assert "run" not in vars(outer)
    assert "work" not in vars(inner)
    assert vars(Slotted)["tick"] is ORIGINAL_TICK
    outer.run()
    assert tracer.span_count() == 0


def test_slotted_instances_must_be_wrapped_on_the_class():
    tracer = Tracer(clock=FakeClock())
    with pytest.raises((AttributeError, TypeError)):
        tracer.wrap_instance(Slotted(FakeClock()), "tick", "slotted")


def test_observe_sees_arguments_and_result():
    clock = FakeClock()
    inner = Inner(clock)
    seen = []
    with Tracer(clock=clock) as tracer:
        tracer.wrap_class(Inner, "work", "inner",
                          lambda args, result: seen.append((args[1], result)))
        inner.work(2.0)
    assert seen == [(2.0, 2.0)]
    assert "work" not in vars(inner)


def test_failed_share_counts_unaccounted_as_failed():
    share, unaccounted = failed_share(offered=100, shed=5, failed=10,
                                      served=80)
    assert unaccounted == 5
    assert share == pytest.approx(0.20)
    assert failed_share(100, 0, 0, 100) == (0.0, 0)
    with pytest.raises(ValueError):
        failed_share(100, 0, 30, 80)
    with pytest.raises(ValueError):
        failed_share(0, 0, 0, 0)


def test_percentile_needs_ten_samples_beyond_it():
    assert MIN_TAIL == 10
    assert percentile(list(range(1, 1001)), 0.99) == 990
    assert percentile(list(range(1, 1000)), 0.99) is None
    assert percentile(list(range(20)), 0.5) == 9
    assert percentile([], 0.5) is None
    assert supported(0.9, 100) and not supported(0.9, 99)


def test_summary_reports_median_quartiles_and_count():
    summary = Summary([5.0, 1.0, 3.0, 2.0, 4.0])
    assert (summary.n, summary.median) == (5, 3.0)
    assert summary.q1 == pytest.approx(1.5)
    assert summary.q3 == pytest.approx(4.5)
    single = Summary([7.0])
    assert (single.n, single.q1, single.q3) == (1, 7.0, 7.0)
