"""Serve workload: the always-on gateway under open-loop Poisson overload.

The rig is the gateway benchmark's: two zones (``us-west-1a``,
``us-west-1b``) with ~20k slots added to every host pool, the default
``GatewayConfig``, ``Observability()`` installed on the controller as
``repro serve`` does, a ``ZoneHealthTracker`` on the controller,
catalog-capacity characterizations, no faults.  Arrivals are offered in
sim time, so the offered load does not depend on how fast the gateway
runs (an open loop).  The offered 100k rps is beyond what the zones
hold: flushes fill to the size trigger, requests fail ``saturated`` and
the breakers move traffic to the second zone.
"""

import gc
import hashlib
import time
from array import array

from repro import (
    Observability,
    SkyController,
    ZoneHealthTracker,
    build_sky,
    workload_by_name,
)
from repro.cloudsim import AvailabilityZone, Cloud, CloudAccount
from repro.cloudsim.handlers import Handler
from repro.core import SmartRouter
from repro.obs import EventBus
from repro.sampling import CharacterizationBuilder
from repro.serve import (
    AdmissionController,
    GatewayConfig,
    PoissonArrivals,
    ServeGateway,
)

import layers
from stats import PeakRss, Summary, failed_share, percentile
from tracer import Tracer

NAME = "serve-overload-100k"
RATE_RPS = 100000.0
#: Requests per flush: the 256 size trigger fills on every flush.
BATCH_BAND = (256.0, 400.0)
ZONES = ("us-west-1a", "us-west-1b")
SLOTS_PER_POOL = 20000
SIM_SECONDS = 5.0
WORKLOAD = "sha1_hash"
#: Rig builds timed per repeat (the last one runs), so set-up samples
#: spread over the whole run as the repeats do.
SETUP_SAMPLES = 4
#: Repeats per phase never drop below this, whatever ``--seconds`` says.
MIN_REPEATS = 3
#: In a traced run, the share of ``--seconds`` spent on untraced repeats.
UNTRACED_SHARE = 0.5


class StampedArrivals(PoissonArrivals):
    """Stock Poisson arrivals that stamp the wall clock at every draw.

    The gateway draws once per tick, so consecutive stamps bound one
    tick.  The draw itself is the stock one: the seeded counts are
    identical to ``PoissonArrivals``.
    """

    def __init__(self, rate_rps, seed):
        super(StampedArrivals, self).__init__(rate_rps, seed=seed)
        self.stamps = array("d")

    def draw(self, t, dt):
        self.stamps.append(time.perf_counter())
        return super(StampedArrivals, self).draw(t, dt)

    def tick_us(self):
        stamps = self.stamps
        return [(stamps[i + 1] - stamps[i]) * 1e6
                for i in range(len(stamps) - 1)]


class Rig(object):
    __slots__ = ("cloud", "account", "obs", "controller", "arrivals",
                 "gateway")


def build_rig(seed):
    rig = Rig()
    rig.cloud = cloud = build_sky(seed=seed, aws_only=True)
    rig.account = cloud.create_account("perfbench", "aws")
    for zone_id in ZONES:
        for pool in cloud.zone(zone_id).pools.values():
            if pool.slots_per_host > 0:
                pool.add_hosts(-(-SLOTS_PER_POOL // pool.slots_per_host))
    rig.obs = Observability()
    rig.controller = SkyController(
        cloud, rig.account, list(ZONES), obs=rig.obs, sampling_count=2,
        health=ZoneHealthTracker())
    for zone_id in ZONES:
        builder = CharacterizationBuilder(zone_id)
        builder.add_poll({key: pool.capacity
                          for key, pool in cloud.zone(zone_id).pools.items()
                          if pool.capacity > 0})
        profile = builder.snapshot()
        rig.controller.store.put(profile)
        rig.controller.tracker.observe(profile)
    rig.arrivals = StampedArrivals(RATE_RPS, seed)
    rig.gateway = ServeGateway(rig.controller, workload_by_name(WORKLOAD),
                               rig.arrivals, config=GatewayConfig(),
                               obs=rig.obs)
    return rig


def install_tracer(tracer, rig):
    """Wrap each layer's public methods on this rig's instances; the
    slotted types (``Histogram``, ``BillingModel``) and the classes the
    rig does not use are wrapped at class level."""
    gateway = rig.gateway
    handlers = {id(d.handler): d.handler for d in rig.account.deployments()}
    layers.wrap(tracer, {
        ServeGateway: [gateway],
        PoissonArrivals: [gateway.arrivals],
        AdmissionController: [gateway.admission],
        SmartRouter: [gateway.router],
        ZoneHealthTracker: [rig.controller.health],
        Cloud: [rig.cloud],
        AvailabilityZone: [rig.cloud.zone(zone_id) for zone_id in ZONES],
        CloudAccount: [rig.account],
        Handler: list(handlers.values()),
        EventBus: [rig.cloud.bus],
    })


class Outcome(object):
    """What one gateway run produced, read after it finished."""

    def __init__(self, rig, setups, wall_s):
        report = rig.gateway.report
        self.setups = setups
        self.wall_s = wall_s
        self.report = report
        self.key = report.aggregate_key()
        self.throttled = rig.account.throttled_requests
        self.share, self.unaccounted = failed_share(
            report.offered, report.shed, report.failed, report.served)
        self.flushes = report.batches_coalesced + report.batches_scalar
        self.ticks_us = rig.arrivals.tick_us()
        registry = rig.obs.registry
        self.zones_served = 0
        self.batch_requests = 0
        for zone_id in ZONES:
            served = registry.get("poll_batch_served_total", zone=zone_id)
            if served is not None and served.value > 0:
                self.zones_served += 1
            requested = registry.get("poll_batch_requests_total",
                                     zone=zone_id)
            if requested is not None:
                self.batch_requests += int(requested.value)

    @property
    def served_rps(self):
        return self.report.served / self.wall_s

    @property
    def batch_mean(self):
        return self.report.admitted / float(self.flushes)

    def digest(self):
        return hashlib.sha256(repr(self.key).encode()).hexdigest()[:16]


def run_once(seed, tracer=None):
    setups = []
    for _ in range(SETUP_SAMPLES):
        started = time.perf_counter()
        rig = build_rig(seed)
        setups.append(time.perf_counter() - started)
    if tracer is not None:
        install_tracer(tracer, rig)
    # Start every repeat from the same heap: earlier rigs are cyclic
    # garbage that would otherwise be collected inside the timed run.
    gc.collect()
    try:
        started = time.perf_counter()
        rig.gateway.run_sync(SIM_SECONDS)
        wall_s = time.perf_counter() - started
    finally:
        if tracer is not None:
            tracer.restore()
    return Outcome(rig, setups, wall_s)


def check(outcome, reference_key):
    """Self-checks and correctness checks; returns failure messages."""
    report = outcome.report
    problems = []
    expected = RATE_RPS * SIM_SECONDS
    slack = 5.0 * expected ** 0.5 + RATE_RPS * 0.002
    if abs(report.offered - expected) > slack:
        problems.append("offered {} is not within {:.0f} of {:.0f}".format(
            report.offered, slack, expected))
    low, high = BATCH_BAND
    if not low <= outcome.batch_mean <= high:
        problems.append("batch_mean {:.1f} outside [{}, {}]".format(
            outcome.batch_mean, low, high))
    if outcome.unaccounted:
        problems.append("{} admitted requests neither served nor "
                        "failed".format(outcome.unaccounted))
    if outcome.throttled:
        problems.append("{} requests throttled by the account quota"
                        .format(outcome.throttled))
    if not report.failed:
        problems.append("overload run saw no failures")
    if outcome.zones_served < 2:
        problems.append("only {} zone(s) served".format(
            outcome.zones_served))
    if outcome.key != reference_key:
        problems.append("aggregate_key differs between repeats of one seed")
    return problems


def _repeat(seed, budget_s, tracer_factory=None):
    outcomes, tracers = [], []
    deadline = time.perf_counter() + budget_s
    while len(outcomes) < MIN_REPEATS or time.perf_counter() < deadline:
        tracer = tracer_factory() if tracer_factory else None
        outcomes.append(run_once(seed, tracer))
        tracers.append(tracer)
    return outcomes, tracers


def run(name, seed, seconds, trace, out, trace_path):
    """Run the serve workload; returns ``(correct, attempted, failed,
    metrics)`` with metrics as ``{name: value}``."""
    warmup = run_once(seed)  # untimed: fills caches and memos
    reference = warmup.key
    out.write("digest {} seed={} {}\n".format(name, seed, warmup.digest()))
    budget = seconds * (UNTRACED_SHARE if trace else 1.0)
    outcomes, _ = _repeat(seed, budget)
    traced, tracers = [], []
    if trace:
        traced, tracers = _repeat(seed, seconds - budget, Tracer)
    problems = []
    for outcome in [warmup] + outcomes + traced:
        problems.extend(check(outcome, reference))
    for problem in sorted(set(problems)):
        out.write("check failed: {}\n".format(problem))

    last = outcomes[-1]
    report = last.report
    setup = Summary([t for o in outcomes for t in o.setups])
    rps = Summary([o.served_rps for o in outcomes])
    wall = Summary([o.wall_s for o in outcomes])
    out.write("setup_s {}\n".format(setup.describe()))
    out.write("served_rps {}\n".format(rps.describe()))
    out.write("wall_s {} for {:g} sim-s\n".format(wall.describe(),
                                                    SIM_SECONDS))
    out.write("requests offered={} admitted={} served={} failed={} shed={} "
              "unaccounted={} throttled={} failed_share={:.6f}\n".format(
                  report.offered, report.admitted, report.served,
                  report.failed, report.shed, last.unaccounted,
                  last.throttled, last.share))
    # An operation is one offered request.  A ``saturated`` or shed request
    # is the gateway's modelled answer to overload: it is checked (same
    # aggregate per seed) and reported in ``ok_share``, not counted as a
    # failed operation.  A request the program lost or the quota dropped
    # is one.
    attempted = sum(o.report.offered for o in outcomes + traced)
    failed = sum(o.unaccounted + o.throttled for o in outcomes + traced)
    correct = not problems
    if not trace:
        metrics = {
            # Fast quartiles: see the stats module.
            "setup_s": setup.q1,
            "served_rps": rps.q3,
            "cost_per_1k_usd": report.cost_usd / report.served * 1000.0,
            "ok_share": 1.0 - last.share,
            "peak_rss_mb": PeakRss().total_mb(),
        }
        return correct, attempted, failed, metrics
    return (correct, attempted, failed,
            _layer_metrics(outcomes, traced, tracers, wall, out, trace_path,
                           name, seed))


def _layer_metrics(outcomes, traced, tracers, wall, out, trace_path, name,
                   seed):
    ticks = []
    for outcome in outcomes:
        p99 = percentile(outcome.ticks_us, 0.99)
        if p99 is not None:
            ticks.append(p99)
    tick = Summary(ticks)
    out.write("tick_p99_us {}\n".format(tick.describe()))
    traced_wall = Summary([o.wall_s for o in traced])
    overhead = traced_wall.median / wall.median - 1.0
    out.write("trace: traced wall {} against untraced median {:.4f} s: "
              "overhead {:+.1%}\n".format(traced_wall.describe(),
                                          wall.median, overhead))
    per_repeat = []
    for outcome, tracer in zip(traced, tracers):
        values = layers.trace_metrics(tracer, "serve.gateway")
        values.update({
            "cloudsim.cloud.poll_batch.requests_per_call": layers.ratio(
                outcome.batch_requests,
                tracer.layer("cloudsim.cloud.poll_batch").calls),
            "core.health.record_failure.calls_per_failed": layers.ratio(
                tracer.layer("core.health.record_failure").calls,
                outcome.report.failed),
            "obs.bus.emit.calls_per_flush": layers.ratio(
                tracer.layer("obs.bus.emit").calls, outcome.flushes),
        })
        per_repeat.append(values)
    metrics = {key: Summary([v[key] for v in per_repeat]).median
               for key in per_repeat[0]}
    layers.print_shares(tracers[-1], "serve.gateway", out)
    tracers[-1].dump(trace_path, meta={"workload": name, "seed": seed})
    out.write("trace: spans written to {}\n".format(trace_path))
    last = traced[-1]
    report = last.report
    metrics.update({
        "serve.gateway.batch_mean": last.batch_mean,
        "serve.gateway.flushes": last.flushes,
        "serve.tick_p99_us": tick.median,
        "serve.sim_p50_ms": report.quantile_ms(0.50),
        "serve.sim_p99_ms": report.quantile_ms(0.99),
        "serve.unaccounted": last.unaccounted,
        "core.health.zones_served": last.zones_served,
        "cloudsim.account.admit_batch.throttled": last.throttled,
        "sweep_cells_per_s": 0.0,
        "engine.fixed_overhead_s": 0.0,
        "engine.parallel_efficiency": 0.0,
        "engine.cell_ms_p50": 0.0,
        "trace.overhead_share": overhead,
    })
    return metrics
