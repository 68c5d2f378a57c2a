"""Outside-in wall-clock tracer for the benchmark's per-layer numbers.

The tracer never edits the program: it replaces a public method with a
timing wrapper for the length of a run and puts the original back
afterwards.  ``wrap_instance`` sets the wrapper as an instance attribute
(the object's own method lookups then find it first);
``wrap_class`` replaces the function on the class, which is the only way
in for ``__slots__`` types such as ``Histogram`` and for objects built
where the benchmark cannot reach them (the cells of a sweep).

Open spans live on a stack.  When a span closes, its duration is added to
its parent's child time, so a span's *self time* is its duration minus
the part of it its traced children cover.  Finished spans stay in memory
as flat columns (name, parent, start, end) and are written out only when
the run ends (:meth:`Tracer.dump`).
"""

import json
import time
from array import array


class LayerStats(object):
    """Aggregate of every closed span with one name."""

    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer(object):
    """Span stack plus per-name aggregates; see the module docstring."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {}
        self._stack = []  # [span index, child seconds] per open span
        self._names = []
        self._name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._undo = []

    # -- spans ---------------------------------------------------------------
    def _name_id(self, name):
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self._names)
            self._names.append(name)
            self.stats[name] = LayerStats()
        return name_id

    def traced(self, name, fn, observe=None):
        """``fn`` wrapped so every call is recorded as a span ``name``.

        ``observe(args, result)``, when given, sees each successful call
        after its span has closed, so counting costs no traced time.
        """
        name_id = self._name_id(name)
        layer = self.stats[name]
        stack = self._stack
        clock = self.clock
        span_name = self.span_name
        span_parent = self.span_parent
        span_start = self.span_start
        span_end = self.span_end

        def traced_call(*args, **kwargs):
            index = len(span_start)
            span_name.append(name_id)
            span_parent.append(stack[-1][0] if stack else -1)
            span_end.append(0.0)
            frame = [index, 0.0]
            stack.append(frame)
            start = clock()
            span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span_end[index] = end
                elapsed = end - start
                if stack:
                    stack[-1][1] += elapsed
                layer.calls += 1
                layer.total_s += elapsed
                layer.self_s += elapsed - frame[1]
            if observe is not None:
                observe(args, result)
            return result

        return traced_call

    # -- wrapping ------------------------------------------------------------
    def wrap_instance(self, obj, attr, name, observe=None):
        """Trace ``obj.attr`` through an instance attribute."""
        own = vars(obj)
        had_own = attr in own
        previous = own.get(attr)
        setattr(obj, attr, self.traced(name, getattr(obj, attr), observe))

        def undo():
            if had_own:
                setattr(obj, attr, previous)
            else:
                delattr(obj, attr)
        self._undo.append(undo)

    def wrap_class(self, cls, attr, name, observe=None):
        """Trace ``cls.attr`` for every instance (slotted types too)."""
        own = vars(cls)
        had_own = attr in own
        previous = own.get(attr)
        setattr(cls, attr, self.traced(name, getattr(cls, attr), observe))

        def undo():
            if had_own:
                setattr(cls, attr, previous)
            else:
                delattr(cls, attr)
        self._undo.append(undo)

    def restore(self):
        """Put every wrapped method back, newest first."""
        while self._undo:
            self._undo.pop()()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.restore()
        return False

    # -- results -------------------------------------------------------------
    def layer(self, name):
        """The aggregate for ``name`` (zeros when it was never called)."""
        return self.stats.get(name) or LayerStats()

    def span_count(self):
        return len(self.span_start)

    def dump(self, path, meta=None):
        """Write the aggregates and every span as one JSON document."""
        origin = self.span_start[0] if self.span_start else 0.0
        document = {
            "meta": meta or {},
            "layers": {name: {"calls": s.calls, "total_s": s.total_s,
                              "self_s": s.self_s}
                       for name, s in sorted(self.stats.items())},
            "names": self._names,
            "spans": {
                "name": self.span_name.tolist(),
                "parent": self.span_parent.tolist(),
                "start_us": [round((t - origin) * 1e6, 3)
                             for t in self.span_start],
                "end_us": [round((t - origin) * 1e6, 3)
                           for t in self.span_end],
            },
        }
        with open(path, "w") as handle:
            json.dump(document, handle, separators=(",", ":"))
