"""The top-level cloud facade: accounts, deployments, invocations, polls.

:class:`Cloud` owns the simulated clock, the region/zone topology, and the
accounts.  Everything above this layer (sampling, sky mesh, smart routing)
talks to the cloud exclusively through:

* :meth:`Cloud.deploy` — create a function deployment in a zone;
* :meth:`Cloud.invoke` — one request, with warm reuse and retry hooks;
* :meth:`Cloud.place_batch` — a burst of parallel requests placed in one
  zone pass (the sampling hot path);
* :meth:`Cloud.poll_batch` — the same burst resolved columnarly, with
  per-CPU runtimes and exact billing ticks (the serving hot path);
* :meth:`Cloud.hold` — keep an FI busy (billed!) so a re-issued request
  must land elsewhere.
"""

import functools

import numpy as np

from repro.common.distributions import CategoricalDistribution
from repro.common.errors import (
    ConfigurationError,
    DeploymentError,
    UnknownRegionError,
    UnknownZoneError,
)
from repro.common.ids import make_id_factory
from repro.common.rng import derive_rng
from repro.cloudsim.billing import duration_ticks
from repro.faults.injector import NULL_INJECTOR
from repro.obs.hooks import NULL_BUS
from repro.simclock import SimClock
from repro.cloudsim.account import CloudAccount
from repro.cloudsim.handlers import SleepHandler
from repro.cloudsim.network import NetworkModel
from repro.cloudsim.provider import provider_by_name


class Deployment(object):
    """A function deployed to one availability zone.

    ``billing`` and ``arrival_window_s`` are invariants of the deployment
    (provider pricing table, memory-dependent scheduling spread); they are
    resolved once here so the per-request and per-poll hot paths do not
    repeat the lookups on every call.
    """

    __slots__ = ("deployment_id", "account", "provider", "region_name",
                 "zone_id", "function_name", "memory_mb", "arch", "handler",
                 "billing", "arrival_window_s", "cold_start",
                 "function_timeout")

    def __init__(self, deployment_id, account, provider, region_name,
                 zone_id, function_name, memory_mb, arch, handler):
        self.deployment_id = deployment_id
        self.account = account
        self.provider = provider
        self.region_name = region_name
        self.zone_id = zone_id
        self.function_name = function_name
        self.memory_mb = memory_mb
        self.arch = arch
        self.handler = handler
        self.billing = provider.billing
        self.arrival_window_s = provider.arrival_window(memory_mb)
        # Adapter-resolved invariants, cached off the provider so the
        # per-request and per-poll hot paths never re-dereference the
        # adapter: the cold-start distribution and the enforced runtime
        # ceiling.
        self.cold_start = provider.adapter.cold_start
        self.function_timeout = provider.function_timeout

    def __repr__(self):
        return ("Deployment({!r}: {!r} @ {} {}MB {})".format(
            self.deployment_id, self.function_name, self.zone_id,
            self.memory_mb, self.arch))


class Invocation(object):
    """The observable outcome of a single request."""

    __slots__ = ("request_id", "deployment_id", "zone_id", "cpu_key",
                 "instance_id", "host_id", "reused", "cold_start_s",
                 "runtime_s", "latency_s", "bill", "timestamp", "response",
                 "timed_out")

    def __init__(self, request_id, deployment_id, zone_id, cpu_key,
                 instance_id, host_id, reused, cold_start_s, runtime_s,
                 latency_s, bill, timestamp, response, timed_out=False):
        self.request_id = request_id
        self.deployment_id = deployment_id
        self.zone_id = zone_id
        self.cpu_key = cpu_key
        self.instance_id = instance_id
        self.host_id = host_id
        self.reused = reused
        self.cold_start_s = cold_start_s
        self.runtime_s = runtime_s
        self.latency_s = latency_s
        self.bill = bill
        self.timestamp = timestamp
        self.response = response
        #: True when the runtime hit the provider's ``function_timeout``:
        #: the platform killed the request at the ceiling and billed the
        #: full timeout.
        self.timed_out = timed_out

    @property
    def is_cold(self):
        return not self.reused

    def __repr__(self):
        return "Invocation({} on {} cpu={} {:.3f}s)".format(
            self.request_id, self.zone_id, self.cpu_key, self.runtime_s)


def _request_order_total(chunks):
    """Sum float64 chunks in request order with numpy's pairwise reduction.

    The looped ``poll_batch`` spec feeds this one chunk per CPU group;
    ``np.sum`` over their concatenation is the reduction the vectorized
    path runs on its already concatenated array, so both totals carry
    the same bits.
    """
    if not chunks:
        return 0.0
    if len(chunks) == 1:
        return float(np.sum(chunks[0]))
    return float(np.sum(np.concatenate(chunks)))


class BatchInvocation(object):
    """Per-request record from the looped ``poll_batch`` spec path.

    Deliberately minimal — the vectorized path never materializes these;
    they exist so the executable spec stays inspectable in tests.
    """

    __slots__ = ("cpu_key", "reused", "runtime_s", "cold_start_s",
                 "latency_s", "billed_ticks")

    def __init__(self, cpu_key, reused, runtime_s, cold_start_s, latency_s,
                 billed_ticks):
        self.cpu_key = cpu_key
        self.reused = reused
        self.runtime_s = runtime_s
        self.cold_start_s = cold_start_s
        self.latency_s = latency_s
        self.billed_ticks = billed_ticks

    @property
    def is_cold(self):
        return not self.reused

    def __repr__(self):
        return "BatchInvocation(cpu={} reused={} {:.3f}s)".format(
            self.cpu_key, self.reused, self.runtime_s)


class BatchPollResult(object):
    """Aggregated outcome of one :meth:`Cloud.poll_batch` burst.

    One object per batch regardless of ``n_requests``: counts, per-CPU
    request/cold maps, exact integer billing ticks, and float64 totals.
    ``records`` is None on the vectorized path and the list of
    :class:`BatchInvocation` on the looped spec path.
    """

    __slots__ = ("deployment_id", "zone_id", "requested", "served",
                 "failed", "cold_starts", "request_cpu_counts",
                 "cold_cpu_counts", "billed_ticks", "runtime_total_s",
                 "latency_total_s", "bill", "duration", "timestamp",
                 "placement", "records", "latencies", "timeouts")

    def __init__(self, deployment_id, zone_id, requested, served, failed,
                 cold_starts, request_cpu_counts, cold_cpu_counts,
                 billed_ticks, runtime_total_s, latency_total_s, bill,
                 duration, timestamp, placement, records=None,
                 latencies=None, timeouts=0):
        self.deployment_id = deployment_id
        self.zone_id = zone_id
        self.requested = requested
        self.served = served
        self.failed = failed
        self.cold_starts = cold_starts
        self.request_cpu_counts = request_cpu_counts
        self.cold_cpu_counts = cold_cpu_counts
        self.billed_ticks = billed_ticks
        self.runtime_total_s = runtime_total_s
        self.latency_total_s = latency_total_s
        self.bill = bill
        self.duration = duration
        self.timestamp = timestamp
        self.placement = placement
        self.records = records
        #: Optional float64 array of per-request latencies in request
        #: order (``keep_latencies=True``); the serving gateway feeds it
        #: into p50/p95/p99 accounting without per-request objects.
        self.latencies = latencies
        #: Requests whose drawn runtime exceeded the provider's
        #: ``function_timeout`` — they still count as served (and billed,
        #: at the capped timeout), so this is a subset of ``served``.
        self.timeouts = timeouts

    @property
    def failure_rate(self):
        if self.requested == 0:
            return 0.0
        return self.failed / float(self.requested)

    @property
    def mean_runtime_s(self):
        return self.runtime_total_s / self.served if self.served else 0.0

    @property
    def mean_latency_s(self):
        return self.latency_total_s / self.served if self.served else 0.0

    def cpu_distribution(self):
        """Served requests per CPU as a categorical distribution."""
        return CategoricalDistribution(self.request_cpu_counts)

    def aggregate_key(self):
        """Bit-exact fingerprint of every aggregate.

        Floats are rendered with ``float.hex`` so two results compare
        equal only when each total matches to the last bit — the form the
        vectorized-vs-looped equivalence tests and the benchmark's
        byte-equality gate compare.
        """
        return (
            self.requested, self.served, self.failed, self.cold_starts,
            tuple(sorted(self.request_cpu_counts.items())),
            tuple(sorted(self.cold_cpu_counts.items())),
            int(self.billed_ticks),
            float(self.runtime_total_s).hex(),
            float(self.latency_total_s).hex(),
            float(self.bill.compute).hex(),
            float(self.bill.total).hex(),
            self.bill.requests,
            self.timeouts,
        )

    def __repr__(self):
        return ("BatchPollResult({} served={}/{} cold={} "
                "ticks={})".format(self.zone_id, self.served,
                                   self.requested, self.cold_starts,
                                   self.billed_ticks))


class Cloud(object):
    """A multi-provider, multi-region simulated sky of FaaS platforms."""

    def __init__(self, clock=None, seed=0, network=None):
        self.clock = clock if clock is not None else SimClock()
        self.seed = seed
        self.rng = derive_rng(seed, "cloud")
        self.network = network or NetworkModel()
        self.regions = {}
        #: zone_id -> region, for every zone registered (built or not).
        self._zone_regions = {}
        #: zone_id -> zone, for the zones built so far: the one dict hit
        #: :meth:`zone` makes per poll and per flush.
        self._zones = {}
        self.accounts = {}
        self._deployments = {}
        self._new_request_id = make_id_factory("req")
        self._new_deployment_id = make_id_factory("dep")
        self.bus = NULL_BUS
        self.faults = NULL_INJECTOR

    # -- observability ------------------------------------------------------------
    def attach_bus(self, bus):
        """Opt in to observability: wire ``bus`` through every built zone
        and host pool.  Zones built later adopt it as they are built."""
        self.bus = bus
        for zone in self._zones.values():
            zone.attach_bus(bus)
        return bus

    # -- fault injection -----------------------------------------------------------
    def attach_faults(self, injector):
        """Opt in to fault injection: wire ``injector`` through every built
        zone.  Zones built later adopt it as they are built."""
        self.faults = injector
        for zone in self._zones.values():
            zone.attach_faults(injector)
        return injector

    # -- topology ---------------------------------------------------------------
    def add_region(self, region):
        """Add ``region``; its unbuilt zones build on first use."""
        if region.name in self.regions:
            raise ConfigurationError(
                "duplicate region {!r}".format(region.name))
        for zone_id in region.zones:
            if zone_id in self._zone_regions:
                raise ConfigurationError(
                    "duplicate zone {!r}".format(zone_id))
        self.regions[region.name] = region
        for zone_id in region.zones:
            self._zone_regions[zone_id] = region
        region.zones.on_register = functools.partial(self._index_zone,
                                                     region)
        region.zones.on_build = self._adopt_zone
        for zone in region.zones.built():
            self._adopt_zone(zone)
        return region

    def _index_zone(self, region, zone_id):
        """Index a zone added to ``region`` after the region joined."""
        if zone_id in self._zone_regions:
            raise ConfigurationError("duplicate zone {!r}".format(zone_id))
        self._zone_regions[zone_id] = region

    def _adopt_zone(self, zone):
        """Index a newly built zone and wire in the current bus, then the
        current faults — exactly what an eagerly built zone received."""
        self._zones[zone.zone_id] = zone
        if self.bus is not NULL_BUS:
            zone.attach_bus(self.bus)
        if self.faults is not NULL_INJECTOR:
            zone.attach_faults(self.faults)

    def region(self, name):
        try:
            return self.regions[name]
        except KeyError:
            raise UnknownRegionError(name)

    def zone(self, zone_id):
        """The zone ``zone_id``, built on its first use."""
        try:
            return self._zones[zone_id]
        except KeyError:
            return self.region_of_zone(zone_id).zones[zone_id]

    def region_of_zone(self, zone_id):
        try:
            return self._zone_regions[zone_id]
        except KeyError:
            raise UnknownZoneError(zone_id)

    def region_names(self, provider=None):
        names = sorted(self.regions)
        if provider is not None:
            names = [n for n in names
                     if self.regions[n].provider.name == provider]
        return names

    def zone_ids(self, provider=None):
        ids = []
        for name in self.region_names(provider):
            ids.extend(self.regions[name].zone_ids())
        return ids

    # -- accounts -----------------------------------------------------------------
    def create_account(self, account_id, provider="aws"):
        if account_id in self.accounts:
            raise ConfigurationError(
                "duplicate account {!r}".format(account_id))
        account = CloudAccount(account_id, provider_by_name(provider))
        self.accounts[account_id] = account
        return account

    # -- deployments ---------------------------------------------------------------
    def deploy(self, account, zone_id, function_name, memory_mb,
               arch="x86_64", handler=None):
        """Deploy ``function_name`` to ``zone_id`` under ``account``.

        The zone's provider must match the account's; memory and
        architecture are validated against the provider's envelope.
        """
        region = self.region_of_zone(zone_id)
        provider = region.provider
        if provider.name != account.provider.name:
            raise DeploymentError(
                "account {!r} is on {!r} but zone {!r} belongs to "
                "{!r}".format(account.account_id, account.provider.name,
                              zone_id, provider.name))
        memory_mb = provider.validate_memory(memory_mb)
        arch = provider.validate_arch(arch)
        if handler is None:
            handler = SleepHandler(0.25)
        deployment = Deployment(
            deployment_id=self._new_deployment_id(),
            account=account,
            provider=provider,
            region_name=region.name,
            zone_id=zone_id,
            function_name=function_name,
            memory_mb=memory_mb,
            arch=arch,
            handler=handler,
        )
        self._deployments[deployment.deployment_id] = deployment
        account.register_deployment(deployment)
        return deployment

    def deployment(self, deployment_id):
        try:
            return self._deployments[deployment_id]
        except KeyError:
            raise DeploymentError(
                "unknown deployment {!r}".format(deployment_id))

    # -- invocation: single request ---------------------------------------------------
    def invoke(self, deployment, payload=None, now=None, force_new=False,
               client=None, bill_category="invocation"):
        """Execute one request against ``deployment``.

        Returns an :class:`Invocation`.  Raises
        :class:`~repro.common.errors.SaturationError` if the zone is full.
        """
        now = self.clock.now if now is None else float(now)
        zone = self.zone(deployment.zone_id)
        handler = deployment.handler
        faults = self.faults
        if faults.enabled:
            faults.before_invoke(deployment.zone_id, now)
            force_new = force_new or faults.forces_cold(deployment.zone_id,
                                                        now)
        timeout = deployment.function_timeout
        timed_out = []

        def duration_fn(cpu_key):
            drawn = handler.duration_on(cpu_key, self.rng, payload)
            if drawn > timeout:
                # The platform kills the request at the ceiling: it runs
                # (and is billed) for exactly ``function_timeout``.
                timed_out.append(drawn)
                return timeout
            return drawn

        fi, reused = zone.invoke_one(deployment.deployment_id, duration_fn,
                                     now=now, force_new=force_new)
        runtime = fi.busy_until - now
        cold_start = (0.0 if reused
                      else deployment.cold_start.sample(self.rng))
        if faults.enabled and cold_start:
            cold_start *= faults.cold_start_multiplier(deployment.zone_id,
                                                       now)
        latency = runtime + cold_start
        spike = (faults.extra_latency(deployment.zone_id, now)
                 if faults.enabled else 0.0)
        if client is not None:
            region = self.region_of_zone(deployment.zone_id)
            latency += self.network.round_trip(client, region.geo,
                                               rng=self.rng, extra_s=spike)
        else:
            latency += spike
        bill = deployment.billing.bill(
            deployment.memory_mb, runtime, deployment.arch, requests=1)
        deployment.account.record_bill(bill, category=bill_category)
        bus = self.bus
        if bus.enabled:
            bus.emit("cloud.invoke", now,
                     zone=deployment.zone_id, cpu=fi.cpu_key, reused=reused,
                     latency_s=latency, runtime_s=runtime,
                     cost_usd=float(bill.total),
                     deployment=deployment.deployment_id,
                     category=bill_category)
        return Invocation(
            request_id=self._new_request_id(),
            deployment_id=deployment.deployment_id,
            zone_id=deployment.zone_id,
            cpu_key=fi.cpu_key,
            instance_id=fi.instance_id,
            host_id=fi.host_id,
            reused=reused,
            cold_start_s=cold_start,
            runtime_s=runtime,
            latency_s=latency,
            bill=bill,
            timestamp=now,
            response=handler.respond(fi.cpu_key, payload),
            timed_out=bool(timed_out),
        )

    def hold(self, deployment, invocation_or_fi, hold_seconds, now=None,
             bill_category="retry-hold"):
        """Keep an FI busy for ``hold_seconds`` — billed runtime.

        Retry strategies hold poorly-placed FIs so that re-issued requests
        cannot be routed back onto them.
        """
        now = self.clock.now if now is None else float(now)
        zone = self.zone(deployment.zone_id)
        fi = invocation_or_fi
        if isinstance(invocation_or_fi, Invocation):
            fi = self._find_fi(zone, deployment, invocation_or_fi.instance_id)
        if fi is not None:
            zone.hold_instance(fi, hold_seconds, now=now)
        # A hold extends an in-flight request, so there is no per-request
        # fee — only the extra billed compute time.
        bill = deployment.billing.bill(
            deployment.memory_mb, hold_seconds, deployment.arch, requests=1)
        bill.request.usd = 0.0
        deployment.account.record_bill(bill, category=bill_category)
        bus = self.bus
        if bus.enabled:
            bus.emit("cloud.hold", now, zone=deployment.zone_id,
                     hold_s=float(hold_seconds), cost_usd=float(bill.total))
        return bill

    # -- invocation: batched ------------------------------------------------------------
    def place_batch(self, deployment, n_requests, duration, window=None,
                    now=None, bill_category="poll", charge=True):
        """Fire ``n_requests`` parallel requests of ``duration`` seconds.

        ``window`` defaults to the provider's arrival-window model for the
        deployment's memory setting.  The account's concurrency quota caps
        the batch; zone saturation failures surface in the result's
        ``failed`` count.  Only served requests are billed; callers that
        compute exact per-CPU bills themselves (the batched burst runner)
        pass ``charge=False``.
        """
        now = self.clock.now if now is None else float(now)
        zone = self.zone(deployment.zone_id)
        force_new = False
        if self.faults.enabled:
            self.faults.before_batch(deployment.zone_id, now)
            force_new = self.faults.forces_cold(deployment.zone_id, now)
        timeout = deployment.function_timeout
        if duration > timeout:
            duration = timeout
        admitted = deployment.account.admit_batch(n_requests, now)
        if window is None:
            window = deployment.arrival_window_s
        result = zone.invoke_batch(deployment.deployment_id, admitted,
                                   duration, window, now=now,
                                   force_new=force_new)
        bill = deployment.billing.bill(
            deployment.memory_mb, duration, deployment.arch,
            requests=result.served)
        if charge:
            deployment.account.record_bill(bill, category=bill_category)
        return result, bill

    def poll(self, deployment, n_requests=1000, now=None,
             bill_category="poll"):
        """One sampling poll: a parallel burst against a sleep function.

        Nothing in the package calls this: draw the handler's duration
        and call :meth:`place_batch`.  It stays only while
        ``perfbench/layers.py`` traces ``Cloud.poll`` by name.
        """
        handler = deployment.handler
        duration = handler.duration_on(None, self.rng)
        return self.place_batch(deployment, n_requests, duration,
                                now=now, bill_category=bill_category)

    def poll_batch(self, deployment, n_requests=1000, now=None,
                   bill_category="poll", vectorize=True, payload=None,
                   keep_latencies=False):
        """Resolve an ``n_requests`` burst columnarly: one
        :class:`BatchPollResult`, one aggregated bill, no per-request
        objects.

        The columnar counterpart of :meth:`place_batch` for hot loops
        that only consume aggregates.  Placement is the zone's batch core
        (:meth:`~repro.cloudsim.az.AvailabilityZone.invoke_batch`); on top
        of it this method classifies cold/warm requests with one
        multinomial per mixed CPU group, draws all runtimes through the
        handler's vectorized :meth:`~repro.cloudsim.handlers.Handler.durations_on`,
        quantizes billing as exact integer ticks, and reduces with numpy.

        **RNG stream contract.**  ``vectorize=False`` runs the looped
        executable spec — per-request records, scalar tick quantization —
        but consumes the cloud RNG identically: (1) one scalar occupancy
        draw, (2) the zone's placement draw, (3) per CPU group in sorted
        order, one cold/warm split then one ``durations_on`` call, then
        (4) one batched cold-start draw when the provider's cold-start
        distribution is stochastic (the default fixed distribution draws
        nothing).  Both
        paths therefore produce **bit-identical** aggregates for the same
        seed (``BatchPollResult.aggregate_key()`` compares equal), which
        the property tests and the benchmark's byte-equality check
        enforce.

        ``payload`` is threaded into both handler draw calls so dynamic
        mesh deployments (whose runtime model is payload-selected) can be
        batch-polled; it occupies the same argument position on both
        paths, preserving the contract above.  ``keep_latencies=True``
        additionally returns the per-request latency array (request
        order) on the result for quantile accounting — one
        ``np.concatenate``, still no per-request objects.
        """
        now = self.clock.now if now is None else float(now)
        zone = self.zone(deployment.zone_id)
        handler = deployment.handler
        force_new = False
        fault_mult = 1.0
        fault_spike = 0.0
        if self.faults.enabled:
            # Fault-hook parity with the per-request path: all three
            # hooks fire once per batch, on both the vectorized and the
            # looped spec path.  ``forces_cold``/``cold_start_multiplier``
            # draw no RNG; ``extra_latency`` draws from the injector's own
            # stream, never the cloud stream.
            self.faults.before_batch(deployment.zone_id, now)
            force_new = self.faults.forces_cold(deployment.zone_id, now)
            fault_mult = self.faults.cold_start_multiplier(
                deployment.zone_id, now)
            fault_spike = self.faults.extra_latency(deployment.zone_id, now)
        # Draw order step 1: the occupancy duration, exactly like poll().
        duration = handler.duration_on(None, self.rng, payload)
        timeout = deployment.function_timeout
        if duration > timeout:
            duration = timeout
        admitted = deployment.account.admit_batch(n_requests, now)
        # Draw order step 2: the zone's placement multinomial.
        placement = zone.invoke_batch(
            deployment.deployment_id, admitted, duration,
            deployment.arrival_window_s, now=now, force_new=force_new)

        billing = deployment.billing
        granularity = billing.granularity
        min_billed = billing.min_billed_duration
        cold_dist = deployment.cold_start
        cold_start_s = cold_dist.cold_start_s if cold_dist.is_fixed else None
        if cold_start_s is not None and fault_mult != 1.0:
            cold_start_s = cold_start_s * fault_mult
        cpu_counts = placement.request_cpu_counts
        rng = self.rng

        cold_cpu_counts = {}
        ticks_total = 0
        timeouts_total = 0
        records = None if vectorize else []
        runtime_chunks = []
        latency_chunks = []
        # (offset, count, samples) of each group's cold requests, for the
        # vectorized path's single post-draw pass.
        cold_slices = []
        offset = 0
        # Draw order step 3: per CPU group in sorted order — one cold/warm
        # split, then one batched runtime draw.
        for cpu_key in sorted(cpu_counts):
            served_c = cpu_counts[cpu_key]
            cold_c = self._cold_split(cpu_key, served_c,
                                      placement.new_fi_counts,
                                      placement.reused_fi_counts, rng)
            if cold_c:
                cold_cpu_counts[cpu_key] = cold_c
            runtimes = handler.durations_on(cpu_key, rng, served_c, payload)
            # Draw order step 4: one batched cold-start draw per group
            # when the distribution is stochastic — shared by both paths,
            # so the RNG layout stays identical.  Fixed distributions
            # (the default adapter) consume nothing here.
            cold_samples = None
            if cold_c and cold_start_s is None:
                cold_samples = cold_dist.sample_n(rng, cold_c)
                if fault_mult != 1.0:
                    cold_samples = cold_samples * fault_mult
            if vectorize:
                # Everything after the draws is deterministic and
                # elementwise, so it runs once over all groups below.
                runtime_chunks.append(runtimes)
                if cold_c:
                    cold_slices.append((offset, cold_c, cold_samples))
                offset += len(runtimes)
            else:
                # Looped executable spec: request by request, scalar
                # quantization, one record object each.
                group_runtimes = []
                group_latencies = []
                for i, runtime in enumerate(runtimes.tolist()):
                    if runtime > timeout:
                        runtime = timeout
                        timeouts_total += 1
                    reused = i >= cold_c
                    if reused:
                        cold = 0.0
                    elif cold_samples is not None:
                        cold = float(cold_samples[i])
                    else:
                        cold = cold_start_s
                    latency = runtime + cold
                    if fault_spike:
                        latency += fault_spike
                    ticks = int(duration_ticks(runtime, granularity,
                                               min_billed))
                    ticks_total += ticks
                    group_runtimes.append(runtime)
                    group_latencies.append(latency)
                    records.append(BatchInvocation(
                        cpu_key, reused, runtime, cold, latency, ticks))
                runtime_chunks.append(
                    np.asarray(group_runtimes, dtype=np.float64))
                latency_chunks.append(
                    np.asarray(group_latencies, dtype=np.float64))

        if vectorize:
            # One post-draw pass over the request-ordered runtimes: the
            # timeout clamp, billing ticks (an exact integer sum), the
            # cold and spike latency adds and both totals are elementwise
            # or exact, so one pass equals one pass per CPU group.
            if len(runtime_chunks) == 1:
                runtimes = runtime_chunks[0]
            elif runtime_chunks:
                runtimes = np.concatenate(runtime_chunks)
            else:
                runtimes = np.zeros(0, dtype=np.float64)
            if runtimes.size and float(runtimes.max()) > timeout:
                over = runtimes > timeout
                timeouts_total = int(np.count_nonzero(over))
                runtimes = np.where(over, timeout, runtimes)
            ticks_total = int(duration_ticks(
                runtimes, granularity, min_billed).sum())
            latencies = runtimes.copy()
            for start, cold_c, cold_samples in cold_slices:
                if cold_samples is not None:
                    latencies[start:start + cold_c] += cold_samples
                elif cold_start_s:
                    latencies[start:start + cold_c] += cold_start_s
            if fault_spike:
                latencies += fault_spike
            runtime_total = float(np.sum(runtimes))
            latency_total = float(np.sum(latencies))
            if not keep_latencies:
                latencies = None
        else:
            # Totals reduce the identical request-ordered float64 array,
            # so numpy's pairwise summation yields the same bits as the
            # vectorized pass.
            runtime_total = _request_order_total(runtime_chunks)
            latency_total = _request_order_total(latency_chunks)
            if keep_latencies:
                latencies = (np.concatenate(latency_chunks)
                             if latency_chunks
                             else np.zeros(0, dtype=np.float64))
            else:
                latencies = None
        served = placement.served
        bill = billing.bill_ticks(deployment.memory_mb, ticks_total,
                                  deployment.arch, requests=served)
        deployment.account.record_bill(bill, category=bill_category)
        cold_total = sum(cold_cpu_counts.values())
        bus = self.bus
        if bus.enabled:
            bus.emit("cloud.poll_batch", now,
                     zone=deployment.zone_id,
                     requested=placement.requested, served=served,
                     failed=placement.failed, cold_starts=cold_total,
                     timeouts=timeouts_total,
                     runtime_total_s=runtime_total,
                     cost_usd=float(bill.total),
                     deployment=deployment.deployment_id,
                     category=bill_category)
        return BatchPollResult(
            deployment_id=deployment.deployment_id,
            zone_id=deployment.zone_id,
            requested=placement.requested,
            served=served,
            failed=placement.failed,
            cold_starts=cold_total,
            request_cpu_counts=dict(cpu_counts),
            cold_cpu_counts=cold_cpu_counts,
            billed_ticks=ticks_total,
            runtime_total_s=runtime_total,
            latency_total_s=latency_total,
            bill=bill,
            duration=duration,
            timestamp=now,
            placement=placement,
            records=records,
            latencies=latencies,
            timeouts=timeouts_total,
        )

    # -- internals ------------------------------------------------------------------------
    @staticmethod
    def _cold_split(cpu_key, served_c, new_fi_counts, reused_fi_counts, rng):
        """Cold-request count for one CPU's request group.

        Requests landing on freshly-placed FIs pay the cold start.  When
        a CPU has both new and reused FIs, the split over ``served_c``
        requests is one multinomial draw weighted by the FI counts; a
        single-category group is deterministic and consumes no
        randomness.  Both ``poll_batch`` paths call this identically,
        keeping the RNG stream layout fixed.

        The draw is the one
        ``CategoricalDistribution({"cold": new, "warm": reused})
        .sample_counts(rng, served_c)`` makes — the same normalized
        probabilities, bit for bit, and the same ``rng.multinomial``
        call — without building the distribution.
        """
        new_c = new_fi_counts.get(cpu_key, 0)
        reused_c = (reused_fi_counts.get(cpu_key, 0)
                    if reused_fi_counts else 0)
        if not new_c:
            return 0
        if not reused_c:
            return served_c
        total = float(new_c) + float(reused_c)
        cold_p = new_c / total
        warm_p = reused_c / total
        mass = cold_p + warm_p
        return int(rng.multinomial(int(served_c),
                                   [cold_p / mass, warm_p / mass])[0])

    @staticmethod
    def _find_fi(zone, deployment, instance_id):
        # O(1) id lookup in the zone's live-instance dict (pruned on
        # release by the expiry heap's callback).
        return zone.find_instance(instance_id)

    def __repr__(self):
        return "Cloud(regions={}, accounts={})".format(
            len(self.regions), len(self.accounts))
