"""Instrumentation hooks: a lightweight pub/sub event bus.

Every instrumented component (zones, host pools, the cloud facade, the
sampling poller, the retry engine, the controller) holds a bus reference
that defaults to :data:`NULL_BUS` — a disabled singleton whose ``emit`` is
a no-op.  Emission sites guard with ``if bus.enabled:`` so the benchmark
hot paths (vectorized ``place_batch``, ``SmartRouter.route``) pay a single
attribute check when observability is off.

Subscribers are plain callables receiving :class:`Event` objects; they can
listen to one event name or to everything.  :class:`EventRecorder` is the
standard bounded sink used by :class:`~repro.obs.Observability`.
"""

import collections

from repro.common.errors import ConfigurationError


class Event(object):
    """One observed fact: a name, a sim-clock timestamp, and fields."""

    __slots__ = ("name", "timestamp", "fields")

    def __init__(self, name, timestamp, fields):
        self.name = name
        self.timestamp = float(timestamp)
        self.fields = fields

    def to_dict(self):
        """JSON-safe flat dict (pairs with the JSONL exporter)."""
        payload = {"event": self.name, "timestamp": self.timestamp}
        payload.update(self.fields)
        return payload

    def __repr__(self):
        return "Event({!r} @ {:.3f} {})".format(self.name, self.timestamp,
                                                self.fields)


class NullBus(object):
    """The zero-cost default: emission is a no-op, subscription an error.

    Subscribing to the null bus would silently observe nothing, which is
    always a wiring mistake — attach a real :class:`EventBus` first.
    """

    enabled = False

    def emit(self, name, timestamp, **fields):
        return None

    def emit_many(self, events):
        """Batch emission no-op: the iterable is never even iterated,
        so hot paths can hand over a generator at zero cost."""
        return 0

    def subscribe(self, callback, name=None):
        raise ConfigurationError(
            "cannot subscribe to the null bus; attach an EventBus first")

    def __repr__(self):
        return "NullBus()"


NULL_BUS = NullBus()


class EventBus(object):
    """Synchronous pub/sub: emitters fire, subscribers observe in order.

    ``enabled`` can be toggled to pause emission without detaching the bus
    (the overhead benchmark measures exactly this configuration).
    """

    def __init__(self):
        self.enabled = True
        self._all = []
        self._named = {}
        self._emitted = 0

    @property
    def emitted(self):
        """Events emitted (not counting those dropped while disabled)."""
        return self._emitted

    # -- subscription ------------------------------------------------------
    def subscribe(self, callback, name=None):
        """Register ``callback`` for ``name`` (or every event when None).

        Returns a zero-argument unsubscribe function.
        """
        if not callable(callback):
            raise ConfigurationError("subscriber must be callable")
        if name is None:
            self._all.append(callback)
            return lambda: self._all.remove(callback)
        listeners = self._named.setdefault(name, [])
        listeners.append(callback)
        return lambda: listeners.remove(callback)

    def subscriber_count(self, name=None):
        if name is None:
            return len(self._all) + sum(
                len(listeners) for listeners in self._named.values())
        return len(self._named.get(name, ()))

    # -- emission ----------------------------------------------------------
    def emit(self, name, timestamp, **fields):
        """Deliver an event to every matching subscriber; returns it.

        Returns None when the bus is disabled (mirrors :class:`NullBus`).
        """
        if not self.enabled:
            return None
        event = Event(name, timestamp, fields)
        self._emitted += 1
        for callback in self._all:
            callback(event)
        for callback in self._named.get(name, ()):
            callback(event)
        return event

    def emit_many(self, events):
        """Deliver a batch of ``(name, timestamp, fields_dict)`` tuples.

        The batch counterpart of :meth:`emit` for producers that already
        hold their facts columnarly (the vectorized poll path, exporters
        replaying a drained queue).  Returns the number of events
        delivered; a disabled bus returns 0 without touching the
        iterable, mirroring :meth:`NullBus.emit_many` — emission sites
        can build ``events`` lazily and pay nothing when observability
        is off.
        """
        if not self.enabled:
            return 0
        delivered = 0
        all_subs = self._all
        named = self._named
        for name, timestamp, fields in events:
            event = Event(name, timestamp, fields)
            delivered += 1
            for callback in all_subs:
                callback(event)
            for callback in named.get(name, ()):
                callback(event)
        self._emitted += delivered
        return delivered

    def pause(self):
        self.enabled = False

    def resume(self):
        self.enabled = True

    def __repr__(self):
        return "EventBus(enabled={}, subscribers={}, emitted={})".format(
            self.enabled, self.subscriber_count(), self._emitted)


class EventRecorder(object):
    """Bounded in-memory event sink with per-name counts.

    The counts survive ring-buffer eviction, so ``counts()`` reflects the
    whole run even when only the tail of the event stream is retained.

    Each event is kept as one flat tuple — name, timestamp, the field
    names (one shared tuple per distinct field layout), then the field
    values — instead of the :class:`Event` and its fields dict: about
    half the memory of a full buffer.  :meth:`events` rebuilds equal
    :class:`Event` objects, fields in their emitted order.
    """

    def __init__(self, bus=None, capacity=20000, names=None):
        if capacity < 1:
            raise ConfigurationError("capacity must be >= 1")
        self._events = collections.deque(maxlen=int(capacity))
        self._counts = {}
        self._layouts = {}
        self._names = frozenset(names) if names is not None else None
        self._unsubscribe = None
        if bus is not None:
            self._unsubscribe = bus.subscribe(self.on_event)

    def on_event(self, event):
        name = event.name
        if self._names is not None and name not in self._names:
            return
        fields = event.fields
        keys = tuple(fields)
        layout = self._layouts.setdefault(keys, keys)
        self._events.append((name, event.timestamp, layout,
                             *fields.values()))
        self._counts[name] = self._counts.get(name, 0) + 1

    def __len__(self):
        return len(self._events)

    def events(self, name=None):
        return [Event(record[0], record[1],
                      dict(zip(record[2], record[3:])))
                for record in self._events
                if name is None or record[0] == name]

    def counts(self):
        """Total observed events per name (eviction-proof)."""
        return dict(self._counts)

    def count(self, name):
        return self._counts.get(name, 0)

    def clear(self):
        self._events.clear()
        self._counts.clear()

    def detach(self):
        """Stop observing the bus (keeps recorded events)."""
        if self._unsubscribe is not None:
            self._unsubscribe()
            self._unsubscribe = None

    def __repr__(self):
        return "EventRecorder(events={}, names={})".format(
            len(self), len(self._counts))
