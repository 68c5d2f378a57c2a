"""Which public methods the traced run wraps, and the per-layer metrics.

Layers are the program's modules: ``serve`` (gateway, admission,
arrivals), ``core`` (router, health), ``cloudsim`` (cloud, az, account,
handlers, billing), ``obs``, ``sampling`` and ``engine``.  Every workload
wraps the same table of methods (:data:`SPANS`), so a control workload
reports the layers it never reaches as 0 calls and 0 time: the
prediction for a control is that those stay 0.
"""

from repro.cloudsim import (
    AvailabilityZone,
    BillingModel,
    Cloud,
    CloudAccount,
)
from repro.cloudsim.handlers import Handler
from repro.core import SmartRouter, ZoneHealthTracker
from repro.engine import CloudSpec
from repro.obs import EventBus, Histogram
from repro.sampling import Poller
from repro.serve import AdmissionController, PoissonArrivals, ServeGateway

#: Every traced method as ``(class, method, span name)``.
SPANS = (
    (ServeGateway, "run_sync", "serve.gateway"),
    (PoissonArrivals, "draw", "serve.arrivals.draw"),
    (AdmissionController, "admit", "serve.admission.admit"),
    (SmartRouter, "decide", "core.router.decide"),
    (SmartRouter, "dispatch_batch", "core.router.dispatch_batch"),
    (SmartRouter, "route", "core.router.route"),
    (ZoneHealthTracker, "record_failure", "core.health.record_failure"),
    (ZoneHealthTracker, "record_success", "core.health.record_success"),
    (Cloud, "poll_batch", "cloudsim.cloud.poll_batch"),
    (Cloud, "place_batch", "cloudsim.cloud.place_batch"),
    (Cloud, "poll", "cloudsim.cloud.poll"),
    (AvailabilityZone, "invoke_batch", "cloudsim.az.invoke_batch"),
    (CloudAccount, "admit_batch", "cloudsim.account.admit_batch"),
    (Handler, "durations_on", "cloudsim.handlers.durations_on"),
    (BillingModel, "bill_ticks", "cloudsim.billing.bill_ticks"),
    (EventBus, "emit", "obs.bus.emit"),
    (EventBus, "emit_many", "obs.bus.emit_many"),
    (Histogram, "observe_many", "obs.histogram.observe_many"),
    (Poller, "poll", "sampling.poller.poll"),
    (CloudSpec, "build", "engine.spec.build"),
)


def defining_classes(cls, attr):
    """``cls`` and every loaded subclass that defines ``attr`` itself."""
    found, frontier = [], [cls]
    while frontier:
        owner = frontier.pop()
        if attr in vars(owner):
            found.append(owner)
        frontier.extend(owner.__subclasses__())
    return found


def wrap(tracer, instances=None):
    """Wrap every method in :data:`SPANS`.

    ``instances`` maps a class to the objects whose method is wrapped as
    an instance attribute.  A class it does not name is wrapped at class
    level, together with every loaded subclass that overrides the method:
    the way in for ``__slots__`` types and for objects the benchmark
    cannot reach, such as the clouds a sweep cell builds for itself.
    """
    instances = instances or {}
    for cls, attr, name in SPANS:
        if cls in instances:
            for obj in instances[cls]:
                tracer.wrap_instance(obj, attr, name)
        else:
            for owner in defining_classes(cls, attr):
                tracer.wrap_class(owner, attr, name)


def trace_metrics(tracer, root):
    """Per-layer values that come straight from the spans.

    ``root`` names the span that covers the whole measured run; shares
    are self time over its duration, so every share, the root's own
    remainder included, sums to 1.
    """
    wall = tracer.layer(root).total_s

    def share(name):
        return tracer.layer(name).self_s / wall if wall else 0.0

    def calls(name):
        return tracer.layer(name).calls

    def self_us(name):
        return tracer.layer(name).self_s * 1e6

    build = tracer.layer("engine.spec.build")
    return {
        "serve.gateway.self_share": share("serve.gateway"),
        "serve.arrivals.draw.calls": calls("serve.arrivals.draw"),
        "serve.admission.admit.self_share": share("serve.admission.admit"),
        "core.router.decide.calls": calls("core.router.decide"),
        "core.router.decide.self_us": self_us("core.router.decide"),
        "core.router.dispatch_batch.self_share":
            share("core.router.dispatch_batch"),
        "core.router.route.calls": calls("core.router.route"),
        "core.health.record_failure.self_share":
            share("core.health.record_failure"),
        "cloudsim.az.invoke_batch.self_us": self_us("cloudsim.az.invoke_batch"),
        "cloudsim.az.invoke_batch.self_share":
            share("cloudsim.az.invoke_batch"),
        "cloudsim.cloud.poll_batch.self_us":
            self_us("cloudsim.cloud.poll_batch"),
        "cloudsim.cloud.poll_batch.self_share":
            share("cloudsim.cloud.poll_batch"),
        "cloudsim.cloud.place_batch.self_share":
            share("cloudsim.cloud.place_batch"),
        "cloudsim.handlers.durations_on.self_share":
            share("cloudsim.handlers.durations_on"),
        "cloudsim.billing.bill_ticks.self_share":
            share("cloudsim.billing.bill_ticks"),
        "obs.bus.emit.self_share": share("obs.bus.emit"),
        "obs.histogram.observe_many.self_share":
            share("obs.histogram.observe_many"),
        "sampling.poller.poll.calls": calls("sampling.poller.poll"),
        "sampling.poller.poll.self_share": share("sampling.poller.poll"),
        "engine.sweep.self_share": share("engine.sweep"),
        "engine.spec.build_ms": (build.total_s / build.calls * 1e3
                                 if build.calls else 0.0),
    }


def ratio(numerator, denominator):
    return numerator / float(denominator) if denominator else 0.0


def print_shares(tracer, root, out):
    """The self-time table: every traced layer plus the root remainder."""
    wall = tracer.layer(root).total_s
    out.write("trace: self time by layer over {:.4f} s of {}\n".format(
        wall, root))
    total = 0.0
    for name, layer in sorted(tracer.stats.items(),
                              key=lambda item: -item[1].self_s):
        if not layer.calls:
            continue
        part = layer.self_s / wall if wall else 0.0
        total += part
        out.write("  {:<40} calls={:<8d} self={:.4f}s share={:.4f}\n"
                  .format(name, layer.calls, layer.self_s, part))
    out.write("  {:<40} share={:.4f} (spans={})\n".format(
        "sum", total, tracer.span_count()))
