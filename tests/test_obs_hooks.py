"""The event bus: pub/sub semantics, no-op default, bounded recording."""

import collections

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.obs.hooks import NULL_BUS, Event, EventBus, EventRecorder, NullBus


class TestEvent(object):
    def test_to_dict_flattens_fields(self):
        event = Event("az.placement", 12.5, {"zone": "a", "served": 10})
        assert event.to_dict() == {"event": "az.placement",
                                   "timestamp": 12.5, "zone": "a",
                                   "served": 10}


class TestNullBus(object):
    def test_emit_is_a_noop(self):
        assert NULL_BUS.emit("anything", 0.0, zone="a") is None

    def test_disabled(self):
        assert NULL_BUS.enabled is False

    def test_subscribe_raises(self):
        with pytest.raises(ConfigurationError):
            NULL_BUS.subscribe(lambda event: None)

    def test_singleton_is_shared(self):
        assert isinstance(NULL_BUS, NullBus)


class TestEmitMany(object):
    def test_null_bus_returns_zero_without_iterating(self):
        def exploding():
            raise AssertionError("NULL_BUS must not touch the iterable")
            yield  # pragma: no cover

        assert NULL_BUS.emit_many(exploding()) == 0

    def test_disabled_bus_skips_the_iterable_too(self):
        bus = EventBus()
        bus.pause()

        def exploding():
            raise AssertionError("paused bus must not touch the iterable")
            yield  # pragma: no cover

        assert bus.emit_many(exploding()) == 0

    def test_delivers_batch_and_counts(self):
        bus = EventBus()
        seen = []
        bus.subscribe(lambda event: seen.append(event))
        delivered = bus.emit_many([
            ("batch.a", 1.0, {"n": 1}),
            ("batch.b", 2.0, {"n": 2}),
        ])
        assert delivered == 2
        assert [event.name for event in seen] == ["batch.a", "batch.b"]
        assert seen[1].fields == {"n": 2}
        assert seen[1].timestamp == 2.0


class TestEventBus(object):
    def test_emit_returns_event(self):
        bus = EventBus()
        event = bus.emit("x", 1.0, a=1)
        assert event.name == "x"
        assert event.fields == {"a": 1}

    def test_delivery_order_matches_emission_order(self):
        bus = EventBus()
        seen = []
        bus.subscribe(lambda event: seen.append(event.fields["n"]))
        for n in range(10):
            bus.emit("tick", float(n), n=n)
        assert seen == list(range(10))

    def test_all_subscribers_fire_before_named(self):
        bus = EventBus()
        order = []
        bus.subscribe(lambda event: order.append("all"))
        bus.subscribe(lambda event: order.append("named"), name="tick")
        bus.emit("tick", 0.0)
        assert order == ["all", "named"]

    def test_named_subscription_filters(self):
        bus = EventBus()
        seen = []
        bus.subscribe(lambda event: seen.append(event.name), name="a")
        bus.emit("a", 0.0)
        bus.emit("b", 0.0)
        assert seen == ["a"]

    def test_unsubscribe(self):
        bus = EventBus()
        seen = []
        unsubscribe = bus.subscribe(lambda event: seen.append(event))
        bus.emit("x", 0.0)
        unsubscribe()
        bus.emit("x", 1.0)
        assert len(seen) == 1

    def test_disabled_bus_drops_events(self):
        bus = EventBus()
        seen = []
        bus.subscribe(lambda event: seen.append(event))
        bus.pause()
        assert bus.emit("x", 0.0) is None
        assert seen == []
        assert bus.emitted == 0
        bus.resume()
        bus.emit("x", 1.0)
        assert len(seen) == 1

    def test_non_callable_subscriber_rejected(self):
        with pytest.raises(ConfigurationError):
            EventBus().subscribe("not callable")

    def test_subscriber_count(self):
        bus = EventBus()
        bus.subscribe(lambda event: None)
        bus.subscribe(lambda event: None, name="x")
        assert bus.subscriber_count() == 2
        assert bus.subscriber_count("x") == 1
        assert bus.subscriber_count("y") == 0


class TestEventRecorder(object):
    def test_records_and_counts(self):
        bus = EventBus()
        recorder = EventRecorder(bus)
        bus.emit("a", 0.0)
        bus.emit("b", 1.0)
        bus.emit("a", 2.0)
        assert len(recorder) == 3
        assert recorder.counts() == {"a": 2, "b": 1}
        assert recorder.count("a") == 2
        assert [event.name for event in recorder.events("a")] == ["a", "a"]

    def test_capacity_bounds_events_but_not_counts(self):
        bus = EventBus()
        recorder = EventRecorder(bus, capacity=5)
        for n in range(20):
            bus.emit("tick", float(n))
        assert len(recorder) == 5
        assert recorder.count("tick") == 20
        # The retained tail is the most recent five.
        assert [event.timestamp for event in recorder.events()] \
            == [15.0, 16.0, 17.0, 18.0, 19.0]

    def test_name_filter(self):
        bus = EventBus()
        recorder = EventRecorder(bus, names=["keep"])
        bus.emit("keep", 0.0)
        bus.emit("drop", 0.0)
        assert recorder.counts() == {"keep": 1}

    def test_detach_stops_recording(self):
        bus = EventBus()
        recorder = EventRecorder(bus)
        bus.emit("a", 0.0)
        recorder.detach()
        bus.emit("a", 1.0)
        assert len(recorder) == 1

    def test_capacity_validated(self):
        with pytest.raises(ConfigurationError):
            EventRecorder(capacity=0)

    def test_clear(self):
        bus = EventBus()
        recorder = EventRecorder(bus)
        bus.emit("a", 0.0)
        recorder.clear()
        assert len(recorder) == 0
        assert recorder.counts() == {}


class ListRecorder(object):
    """The recorder as a bounded deque of the delivered events: the
    reference the compact tuple form is checked against."""

    def __init__(self, capacity, names=None):
        self.events = collections.deque(maxlen=capacity)
        self.names = names

    def on_event(self, event):
        if self.names is None or event.name in self.names:
            self.events.append(event)


_FIELD_VALUES = st.one_of(
    st.integers(), st.floats(allow_nan=False), st.text(max_size=3),
    st.booleans(), st.none(), st.lists(st.integers(), max_size=2))


class TestCompactRecorderMatchesEvents(object):
    @settings(max_examples=60, deadline=None)
    @given(stream=st.lists(st.tuples(
        st.sampled_from(["a", "b", "c"]),
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        st.dictionaries(st.sampled_from(["zone", "count", "ok", "x", "y"]),
                        _FIELD_VALUES, max_size=5)), max_size=40),
        capacity=st.integers(min_value=1, max_value=50),
        names=st.one_of(st.none(), st.just(("a", "c"))))
    def test_events_equal_the_delivered_events(self, stream, capacity,
                                               names):
        bus = EventBus()
        recorder = EventRecorder(bus, capacity=capacity, names=names)
        reference = ListRecorder(capacity, names)
        bus.subscribe(reference.on_event)
        for name, timestamp, fields in stream:
            bus.emit(name, timestamp, **fields)
        for name in (None, "a", "b", "c"):
            want = [event for event in reference.events
                    if name is None or event.name == name]
            got = recorder.events(name)
            assert [(e.name, e.timestamp, list(e.fields.items()))
                    for e in got] == \
                [(e.name, e.timestamp, list(e.fields.items()))
                 for e in want]
            assert all(type(e) is Event for e in got)
        assert len(recorder) == len(reference.events)

    def test_one_layout_tuple_per_field_order(self):
        bus = EventBus()
        recorder = EventRecorder(bus)
        for index in range(100):
            bus.emit("e", float(index), zone="z", count=index)
        bus.emit("e", 100.0, count=1, zone="z")
        layouts = {id(record[2]) for record in recorder._events}
        assert len(layouts) == 2
        assert list(recorder.events()[-1].fields) == ["count", "zone"]
