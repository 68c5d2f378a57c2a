"""The always-on serving gateway: coalesce, admit, dispatch, adapt.

``ServeGateway`` runs the paper's smart-routing policies *continuously*
instead of per-study: an open-loop arrival process feeds an admission
controller, admitted requests buffer per routed zone, and a coalescing
dispatcher flushes each buffer through the vectorized
:meth:`~repro.cloudsim.Cloud.poll_batch` on a **size-or-deadline**
trigger (default 256 requests or 2 sim-ms), falling back to the scalar
routed path below a batch floor.  A background task re-characterizes
zones on staleness or error signals, so the routing table keeps up with
the infrastructure mid-serve — the hybrid policy as a service.

Everything is sim-clock driven and seeded: the same arrivals + seed
produce byte-identical outcome aggregates
(:meth:`GatewayReport.aggregate_key`), which the determinism tests
assert.  The asyncio shape exists for lifecycle (drain on SIGTERM, the
re-characterization worker), not wall-clock concurrency — the tick loop
is the only driver of sim time.
"""

import asyncio

import numpy as np

from repro.common.errors import (
    ConfigurationError,
    InvocationError,
    ReproError,
)
from repro.core.slo import default_slo_s
from repro.obs.metrics import Histogram
from repro.serve.arrivals import ArrivalProcess
from repro.serve.admission import AdmissionController

#: Served latencies the gateway buffers before folding them into its
#: latency histograms in one ``observe_many``; it also folds at every
#: report and when a run ends.
FOLD_VALUES = 16384


class GatewayConfig(object):
    """Tuning knobs for one gateway run; defaults match the ISSUE shape."""

    __slots__ = (
        "batch_size", "flush_deadline_s", "batch_floor", "tick_s",
        "rate_limit_rps", "burst", "max_queue_depth", "slo_s",
        "report_every_s", "decide_every_s", "recharacterize_failure_rate",
        "recharacterize_cooldown_s", "staleness_check_every_s",
        "wall_pace",
    )

    def __init__(self, batch_size=256, flush_deadline_s=0.002,
                 batch_floor=16, tick_s=0.001, rate_limit_rps=None,
                 burst=None, max_queue_depth=100000, slo_s=None,
                 report_every_s=1.0, decide_every_s=0.010,
                 recharacterize_failure_rate=0.5,
                 recharacterize_cooldown_s=30.0,
                 staleness_check_every_s=60.0, wall_pace=0.0):
        if batch_size < 1 or batch_floor < 1:
            raise ConfigurationError(
                "batch_size and batch_floor must be >= 1")
        if tick_s <= 0 or flush_deadline_s <= 0:
            raise ConfigurationError(
                "tick_s and flush_deadline_s must be positive")
        self.batch_size = int(batch_size)
        self.flush_deadline_s = float(flush_deadline_s)
        self.batch_floor = int(batch_floor)
        self.tick_s = float(tick_s)
        self.rate_limit_rps = rate_limit_rps
        self.burst = burst
        self.max_queue_depth = int(max_queue_depth)
        self.slo_s = slo_s
        self.report_every_s = float(report_every_s)
        self.decide_every_s = float(decide_every_s)
        self.recharacterize_failure_rate = float(recharacterize_failure_rate)
        self.recharacterize_cooldown_s = float(recharacterize_cooldown_s)
        self.staleness_check_every_s = float(staleness_check_every_s)
        #: Wall seconds to spend per sim second (0 = run flat out).
        #: ``wall_pace=1.0`` approximates real time — what an actually
        #: always-on deployment (and the CI mid-run scrape) wants.
        #: Pacing never touches sim time, so aggregates are identical at
        #: any pace.
        self.wall_pace = float(wall_pace)


class GatewayReport(object):
    """Outcome aggregates for one gateway run.

    Counts are exact; latency quantiles come from a seeded reservoir
    histogram, so two runs with the same arrivals and seed produce the
    same :meth:`aggregate_key` byte for byte.
    """

    __slots__ = ("offered", "admitted", "shed_tokens", "shed_queue",
                 "served", "failed", "drained", "batches_coalesced",
                 "batches_scalar", "recharacterizations", "cost_usd",
                 "latency_sum_s", "slo_hits", "slo_s", "sim_seconds",
                 "histogram")

    def __init__(self, slo_s):
        self.offered = 0
        self.admitted = 0
        self.shed_tokens = 0
        self.shed_queue = 0
        self.served = 0
        self.failed = 0
        self.drained = 0
        self.batches_coalesced = 0
        self.batches_scalar = 0
        self.recharacterizations = 0
        self.cost_usd = 0.0
        self.latency_sum_s = 0.0
        self.slo_hits = 0
        self.slo_s = float(slo_s)
        self.sim_seconds = 0.0
        self.histogram = Histogram()

    # -- derived -------------------------------------------------------------
    @property
    def shed(self):
        return self.shed_tokens + self.shed_queue

    @property
    def shed_rate(self):
        return self.shed / self.offered if self.offered else 0.0

    @property
    def goodput_rps(self):
        return self.served / self.sim_seconds if self.sim_seconds else 0.0

    @property
    def slo_attainment(self):
        return self.slo_hits / self.served if self.served else 1.0

    def quantile_ms(self, q):
        return self.histogram.quantile(q, default=float("nan")) * 1000.0

    def aggregate_key(self):
        """Byte-comparable fingerprint of the run's outcome aggregates."""
        return (self.offered, self.admitted, self.shed_tokens,
                self.shed_queue, self.served, self.failed, self.drained,
                self.batches_coalesced, self.batches_scalar,
                self.recharacterizations, self.slo_hits,
                float(self.latency_sum_s).hex(),
                float(self.cost_usd).hex())

    def to_dict(self):
        return {
            "offered": self.offered,
            "admitted": self.admitted,
            "shed": self.shed,
            "shed_tokens": self.shed_tokens,
            "shed_queue": self.shed_queue,
            "served": self.served,
            "failed": self.failed,
            "drained": self.drained,
            "batches_coalesced": self.batches_coalesced,
            "batches_scalar": self.batches_scalar,
            "recharacterizations": self.recharacterizations,
            "cost_usd": self.cost_usd,
            "sim_seconds": self.sim_seconds,
            "goodput_rps": self.goodput_rps,
            "shed_rate": self.shed_rate,
            "slo_s": self.slo_s,
            "slo_attainment": self.slo_attainment,
            "p50_ms": self.quantile_ms(0.50),
            "p95_ms": self.quantile_ms(0.95),
            "p99_ms": self.quantile_ms(0.99),
        }

    def __repr__(self):
        return ("GatewayReport(offered={}, served={}, shed={}, "
                "goodput={:.0f}rps, slo={:.1%})".format(
                    self.offered, self.served, self.shed,
                    self.goodput_rps, self.slo_attainment))


class _ZoneBuffer(object):
    """FIFO of (arrival_timestamp, count) groups for one routed zone."""

    __slots__ = ("decision", "groups", "count")

    def __init__(self, decision):
        self.decision = decision
        self.groups = []
        self.count = 0

    def add(self, timestamp, count):
        groups = self.groups
        if groups and groups[-1][0] == timestamp:
            groups[-1] = (timestamp, groups[-1][1] + count)
        else:
            groups.append((timestamp, count))
        self.count += count

    def take_all(self):
        groups, self.groups, self.count = self.groups, [], 0
        return groups


class ServeGateway(object):
    """Asyncio front door over a :class:`~repro.core.SkyController`."""

    def __init__(self, controller, workload, arrivals, config=None,
                 obs=None):
        if not isinstance(arrivals, ArrivalProcess):
            raise ConfigurationError(
                "arrivals must be an ArrivalProcess")
        self.controller = controller
        self.workload = workload
        self.arrivals = arrivals
        self.config = config or GatewayConfig()
        self.obs = obs if obs is not None else controller.obs
        self.cloud = controller.cloud
        self.router = controller.router_for(workload)
        slo_s = self.config.slo_s
        if slo_s is None:
            slo_s = default_slo_s(workload)
        self.report = GatewayReport(slo_s)
        self.admission = AdmissionController(
            self.config.rate_limit_rps, self.config.burst,
            self.config.max_queue_depth)
        self._buffers = {}
        self._decision = None
        self._decision_at = None
        self._drain_requested = False
        self._running = False
        self._recharacterize_queue = None
        self._last_recharacterized = {}
        self._last_staleness_check = None
        self._zone_window = {}  # zone -> [served, failed] since last check
        self._latency_hist = None
        # Served-latency arrays not yet folded into the histograms.
        self._pending = []
        self._pending_values = 0
        if self.obs is not None:
            self._latency_hist = self.obs.registry.histogram(
                "serve_latency_s")
        # Window counters for serve.report deltas.
        self._win = {"offered": 0, "admitted": 0, "served": 0}

    # -- lifecycle ------------------------------------------------------------
    def request_drain(self):
        """Ask the loop to stop after draining buffered requests.

        Safe to call from a signal handler: it only sets a flag the tick
        loop reads.
        """
        self._drain_requested = True

    async def run(self, duration_s):
        """Drive the gateway for ``duration_s`` sim-seconds; returns the
        finalized :class:`GatewayReport`.

        One tick = draw arrivals, admit, buffer, flush due batches,
        periodic report/staleness checks, then advance the sim clock.
        The re-characterization worker runs between ticks: an unpaced
        loop yields to the event loop after any tick that queued work
        for it, and otherwise once per ``decide_every_s`` of sim time so
        co-hosted coroutines still get scheduled points; a paced loop
        (``wall_pace > 0``) sleeps every tick.
        """
        if duration_s <= 0:
            raise ConfigurationError("duration_s must be positive")
        if self._running:
            raise ConfigurationError("gateway is already running")
        self._running = True
        clock = self.cloud.clock
        config = self.config
        start = clock.now
        deadline = start + float(duration_s)
        self._recharacterize_queue = asyncio.Queue()
        worker = asyncio.ensure_future(self._recharacterize_loop())
        last_report = start
        self._last_staleness_check = start
        queue = self._recharacterize_queue
        paced = config.wall_pace > 0.0
        pace_s = config.tick_s * config.wall_pace
        yield_every_s = config.decide_every_s
        next_yield = start
        try:
            while not self._drain_requested and clock.now < deadline:
                now = clock.now
                self._tick(now)
                if now - last_report >= config.report_every_s:
                    self._emit_report(now, now - last_report)
                    last_report = now
                if (now - self._last_staleness_check
                        >= config.staleness_check_every_s):
                    self._check_staleness(now)
                    self._last_staleness_check = now
                # The re-characterization worker only runs when the loop
                # yields, so a tick that queued work for it always
                # yields: the refresh lands before the next tick, exactly
                # as with a yield every tick.  An idle unpaced loop
                # yields once per decision interval, which keeps
                # coroutines sharing the event loop (a drain request, a
                # watcher) scheduled without a full loop iteration per
                # tick.  (``ObsServer`` is a thread and needs none.)
                if paced:
                    await asyncio.sleep(pace_s)
                elif queue.qsize() or now >= next_yield:
                    await asyncio.sleep(0)
                    next_yield = now + yield_every_s
                clock.advance(config.tick_s)
            drained = self._drain(clock.now)
            self._emit_report(clock.now, max(clock.now - last_report,
                                             config.tick_s))
            bus = self.cloud.bus
            if bus.enabled:
                bus.emit("serve.drain", clock.now, drained=drained,
                         requested=self._drain_requested)
        finally:
            # Drained and aborted runs still account every served latency.
            self._fold_latencies()
            worker.cancel()
            try:
                await worker
            except asyncio.CancelledError:
                pass
            self._running = False
        self.report.sim_seconds = clock.now - start
        return self.report

    def run_sync(self, duration_s):
        """Synchronous convenience wrapper around :meth:`run`."""
        return asyncio.run(self.run(duration_s))

    # -- the tick -------------------------------------------------------------
    def _tick(self, now):
        config = self.config
        report = self.report
        offered = self.arrivals.draw(now, config.tick_s)
        report.offered += offered
        self._win["offered"] += offered
        if offered:
            queued = 0
            for buffer in self._buffers.values():
                queued += buffer.count
            granted, shed_tokens, shed_queue = self.admission.admit(
                offered, queued, config.tick_s)
            report.admitted += granted
            self._win["admitted"] += granted
            if shed_tokens or shed_queue:
                report.shed_tokens += shed_tokens
                report.shed_queue += shed_queue
                bus = self.cloud.bus
                if bus.enabled:
                    if shed_tokens:
                        bus.emit("serve.shed", now, count=shed_tokens,
                                 reason="rate_limit")
                    if shed_queue:
                        bus.emit("serve.shed", now, count=shed_queue,
                                 reason="queue_full")
            if granted:
                decision = self._decision
                if (decision is None or self._decision_at is None
                        or now - self._decision_at >= config.decide_every_s):
                    decision = self._decision = self.router.decide(now=now)
                    self._decision_at = now
                buffer = self._buffers.get(decision.zone_id)
                if buffer is None or buffer.decision is not decision:
                    buffer = self._buffers.setdefault(
                        decision.zone_id, _ZoneBuffer(decision))
                    buffer.decision = decision
                buffer.add(now, granted)
        self._flush_due(now)

    def _flush_due(self, now, force=False):
        config = self.config
        # A flush never adds a buffer, so the dict can be walked live.
        for buffer in self._buffers.values():
            if not buffer.count:
                continue
            if (force or buffer.count >= config.batch_size
                    or now - buffer.groups[0][0] >= config.flush_deadline_s):
                self._flush(buffer, now)

    # -- dispatch -------------------------------------------------------------
    def _flush(self, buffer, now):
        """Resolve one zone buffer: coalesced above the floor, scalar below."""
        count = buffer.count
        groups = buffer.take_all()
        if not count:
            return
        if count >= self.config.batch_floor:
            self._flush_coalesced(buffer.decision, groups, count, now)
        else:
            self._flush_scalar(buffer.decision, groups, count, now)

    def _flush_coalesced(self, decision, groups, count, now):
        report = self.report
        try:
            decision, result = self.router.dispatch_batch(
                count, decision=decision, keep_latencies=True,
                bill_category="serve")
        except InvocationError:
            # An injected fault (outage, brownout, throttle) can refuse
            # the whole placement before anything runs.  That is a batch
            # of 503s, not a gateway crash: count them failed, let the
            # error window trigger re-characterization, and re-decide
            # routing on the next tick.
            report.batches_coalesced += 1
            report.failed += count
            self._decision = None
            self._note_zone_outcome(decision.zone_id, 0, count, now)
            self._emit_batch(decision.zone_id, "coalesced", count,
                             served=0, failed=count, now=now)
            return
        served = result.served
        failed = result.failed
        report.batches_coalesced += 1
        report.served += served
        report.failed += failed
        self._win["served"] += served
        report.cost_usd += float(result.bill.total)
        if served:
            # Queue wait per request: FIFO order over the arrival groups;
            # the first `served` arrivals are the ones that got capacity,
            # so each group's wait is added to its slice in place.
            latencies = result.latencies[:served].copy()
            start = 0
            for timestamp, group_count in groups:
                if start >= served:
                    break
                latencies[start:start + group_count] += now - timestamp
                start += group_count
            self._observe_latencies(latencies)
        self._note_zone_outcome(decision.zone_id, served, failed, now)
        self._emit_batch(decision.zone_id, "coalesced", count, result=result,
                         now=now)

    def _flush_scalar(self, decision, groups, count, now):
        report = self.report
        served = 0
        failed = 0
        cost = 0.0
        cold = 0
        latencies = []
        for timestamp, group_count in groups:
            wait = now - timestamp
            for _ in range(group_count):
                try:
                    request = self.router.route(decision)
                except InvocationError:
                    failed += 1
                    continue
                served += 1
                cost += float(request.cost)
                if not getattr(request.outcome, "reused", True):
                    cold += 1
                latencies.append(request.latency_s + wait)
        report.batches_scalar += 1
        report.served += served
        report.failed += failed
        self._win["served"] += served
        report.cost_usd += cost
        if latencies:
            self._observe_latencies(np.asarray(latencies, dtype=np.float64))
        self._note_zone_outcome(decision.zone_id, served, failed, now)
        self._emit_batch(decision.zone_id, "scalar", count, served=served,
                         failed=failed, cold=cold, cost=cost, now=now)

    def _observe_latencies(self, latencies):
        report = self.report
        report.latency_sum_s += float(latencies.sum())
        report.slo_hits += int(np.count_nonzero(latencies <= report.slo_s))
        self._pending.append(latencies)
        self._pending_values += len(latencies)
        if self._pending_values >= FOLD_VALUES:
            self._fold_latencies()

    def _fold_latencies(self):
        """Observe every buffered flush's latencies, in flush order.

        ``observe_many(*arrays)`` equals one call per array, so the
        histograms end bit-identical to observing each flush as it
        happened; folding a report window at once is what lets the
        reservoir replay run columnar.
        """
        pending = self._pending
        if not pending:
            return
        self._pending = []
        self._pending_values = 0
        self.report.histogram.observe_many(*pending)
        if self._latency_hist is not None:
            self._latency_hist.observe_many(*pending)

    def _emit_batch(self, zone_id, mode, size, result=None, served=0,
                    failed=0, cold=0, cost=0.0, now=0.0):
        bus = self.cloud.bus
        if not bus.enabled:
            return
        if result is not None:
            served, failed = result.served, result.failed
            cold = result.cold_starts
            cost = float(result.bill.total)
        bus.emit("serve.batch", now, zone=zone_id, mode=mode, size=size,
                 served=served, failed=failed, cold_starts=cold,
                 cost_usd=cost)

    # -- adaptation -----------------------------------------------------------
    def _note_zone_outcome(self, zone_id, served, failed, now):
        window = self._zone_window.setdefault(zone_id, [0, 0])
        window[0] += served
        window[1] += failed
        total = window[0] + window[1]
        config = self.config
        if (total >= 20
                and window[1] / total >= config.recharacterize_failure_rate):
            last = self._last_recharacterized.get(zone_id)
            if (last is None
                    or now - last >= config.recharacterize_cooldown_s):
                self._last_recharacterized[zone_id] = now
                self._zone_window[zone_id] = [0, 0]
                self._recharacterize_queue.put_nowait((zone_id, "errors"))

    def _check_staleness(self, now):
        for zone_id in self.controller.zones:
            if self.controller.tracker.needs_refresh(zone_id, now):
                last = self._last_recharacterized.get(zone_id)
                if (last is not None and now - last
                        < self.config.recharacterize_cooldown_s):
                    continue
                self._last_recharacterized[zone_id] = now
                self._recharacterize_queue.put_nowait((zone_id, "stale"))

    async def _recharacterize_loop(self):
        """Background worker: re-poll zones the tick loop flagged.

        Runs between ticks (single-threaded asyncio), so the sampling
        campaign's cloud calls never interleave with a flush.
        ``refresh_zone`` does not advance the sim clock — serving time
        belongs to the tick loop alone.
        """
        queue = self._recharacterize_queue
        while True:
            zone_id, reason = await queue.get()
            try:
                self.controller.refresh_zone(zone_id)
            except ReproError:
                # A refresh against a saturated or browned-out zone can
                # itself fail (all-failed polls).  That is a data point,
                # not a reason to take the gateway down; the cooldown in
                # the tick loop paces the next attempt.
                ok = False
            else:
                ok = True
                self.report.recharacterizations += 1
                # Invalidate the cached routing decision: the refreshed
                # characterization may rank zones differently.
                self._decision = None
            bus = self.cloud.bus
            if bus.enabled:
                bus.emit("serve.recharacterize", self.cloud.clock.now,
                         zone=zone_id, reason=reason, ok=ok)

    # -- reporting ------------------------------------------------------------
    def _emit_report(self, now, window_s):
        self._fold_latencies()
        bus = self.cloud.bus
        win = self._win
        offered, admitted, served = (win["offered"], win["admitted"],
                                     win["served"])
        win["offered"] = win["admitted"] = win["served"] = 0
        if not bus.enabled:
            return
        report = self.report
        bus.emit("serve.report", now,
                 offered=offered, admitted=admitted,
                 offered_rps=offered / window_s if window_s else 0.0,
                 goodput_rps=served / window_s if window_s else 0.0,
                 shed_rate=report.shed_rate,
                 slo_attainment=report.slo_attainment,
                 p50_ms=report.quantile_ms(0.50),
                 p95_ms=report.quantile_ms(0.95),
                 p99_ms=report.quantile_ms(0.99))

    # -- drain ----------------------------------------------------------------
    def _drain(self, now):
        """Flush every buffer before exit; in-flight work is never dropped."""
        drained = sum(b.count for b in self._buffers.values())
        self._flush_due(now, force=True)
        self.report.drained += drained
        return drained

    def __repr__(self):
        return "ServeGateway(workload={!r}, policy={})".format(
            self.workload.name, self.controller.policy.name)
