"""Burst execution with a cost/latency ledger (the EX-5 measurement tool).

Two paths:

* :meth:`WorkloadRunner.run_burst` — drives a :class:`SmartRouter` for a
  burst of requests and aggregates costs, latencies, retries, and the CPU
  histogram;
* :meth:`WorkloadRunner.profile_workload` — the EX-5 baseline profiling
  step: run a workload many times in one fixed zone and report per-CPU
  runtime statistics (the data behind Figure 9).  A vectorized fast path
  handles the paper's 10,000-repetition scale.
"""

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.units import Money


class BurstResult(object):
    """Aggregated outcome of one burst under one routing strategy."""

    def __init__(self, workload_name, policy_name, requests):
        if not requests:
            raise ConfigurationError("burst produced no requests")
        self.workload_name = workload_name
        self.policy_name = policy_name
        self.n = len(requests)
        self.total_cost = sum((r.cost for r in requests), Money(0))
        self.total_billed_runtime = sum(r.billed_runtime_s
                                        for r in requests)
        self.total_retries = sum(r.retries for r in requests)
        self.mean_latency = sum(r.latency_s for r in requests) / self.n
        self.zones = sorted({r.zone_id for r in requests})
        self.cpu_counts = {}
        for request in requests:
            self.cpu_counts[request.cpu_key] = self.cpu_counts.get(
                request.cpu_key, 0) + 1

    @property
    def cost_per_invocation(self):
        return self.total_cost / self.n

    @property
    def retry_fraction(self):
        """Fraction of requests that needed at least one retry."""
        return self.total_retries / float(self.n)

    def __repr__(self):
        return ("BurstResult({}/{}: n={}, cost={}, retries={}, "
                "zones={})".format(self.workload_name, self.policy_name,
                                   self.n, self.total_cost,
                                   self.total_retries, self.zones))


class CPURuntimeProfile(object):
    """Per-CPU runtime statistics for one workload in one zone."""

    def __init__(self, workload_name, zone_id, samples):
        """``samples`` maps cpu_key -> list/array of runtimes (seconds)."""
        self.workload_name = workload_name
        self.zone_id = zone_id
        self._samples = {cpu: np.asarray(list(runs), dtype=float)
                         for cpu, runs in samples.items() if len(runs)}

    def cpu_keys(self):
        return sorted(self._samples)

    def count(self, cpu_key):
        return int(self._samples[cpu_key].size)

    def mean_runtime(self, cpu_key):
        return float(self._samples[cpu_key].mean())

    def normalized_to(self, baseline_cpu):
        """Mean runtime per CPU normalized to ``baseline_cpu`` (Figure 9)."""
        if baseline_cpu not in self._samples:
            raise ConfigurationError(
                "baseline CPU {!r} was never observed".format(baseline_cpu))
        base = self.mean_runtime(baseline_cpu)
        return {cpu: self.mean_runtime(cpu) / base
                for cpu in self.cpu_keys()}

    def overall_mean(self):
        total = np.concatenate(list(self._samples.values()))
        return float(total.mean())

    def __repr__(self):
        return "CPURuntimeProfile({}@{}, cpus={})".format(
            self.workload_name, self.zone_id, self.cpu_keys())


class WorkloadRunner(object):
    """Executes bursts and profiling runs against the simulated sky."""

    def __init__(self, cloud):
        self.cloud = cloud

    # -- routed bursts -----------------------------------------------------------
    def run_burst(self, router, n_requests):
        """Route ``n_requests`` on one routing decision, the way a batch
        dispatcher commits a whole burst to one zone."""
        if n_requests <= 0:
            raise ConfigurationError("n_requests must be positive")
        decision = router.decide()
        requests = [router.route(decision) for _ in range(n_requests)]
        return BurstResult(router.workload.name, router.policy.name,
                           requests)

    # -- baseline profiling ---------------------------------------------------------
    def profile_workload(self, deployment, workload, repetitions,
                         batch_size=1000):
        """Run ``workload`` ``repetitions`` times in ``deployment``'s zone.

        Uses the batched placement path: each batch lands on FIs sampled
        from the zone's live CPU mix, and per-request runtimes are drawn
        from the workload's runtime model — the vectorized equivalent of
        10,000 sequential dynamic-function invocations.
        """
        if repetitions <= 0:
            raise ConfigurationError("repetitions must be positive")
        from repro.workloads.memory import memory_speed_factor
        model = workload.runtime_model()
        factors = workload.cpu_factors()
        memory_scale = memory_speed_factor(deployment.memory_mb,
                                           vcpus=workload.vcpus)
        samples = {}
        remaining = repetitions
        rng = self.cloud.rng
        mean_duration = workload.base_seconds * memory_scale
        while remaining > 0:
            n = min(batch_size, remaining)
            result, _ = self.cloud.place_batch(
                deployment, n, mean_duration, bill_category="profiling")
            if result.served == 0:
                raise ConfigurationError(
                    "zone {} refused the profiling batch".format(
                        deployment.zone_id))
            for cpu_key, count in result.request_cpu_counts.items():
                noise = np.exp(rng.normal(0.0, model.noise_sigma,
                                          size=count))
                runtimes = (workload.base_seconds * memory_scale
                            * factors[cpu_key] * noise)
                samples.setdefault(cpu_key, []).extend(runtimes.tolist())
            remaining -= result.served
            # Space batches out so profiling does not saturate the zone.
            self.cloud.clock.advance(
                deployment.provider.adapter.keepalive.idle_ttl
                + mean_duration + 1.0)
        return CPURuntimeProfile(workload.name, deployment.zone_id,
                                 samples)

    def profile_many(self, deployment, workloads, repetitions,
                     batch_size=1000):
        """Profile several workloads back-to-back in one zone."""
        return {workload.name: self.profile_workload(deployment, workload,
                                                     repetitions,
                                                     batch_size=batch_size)
                for workload in workloads}

    # -- batched bursts (the EX-5 scale path) ------------------------------------
    def run_batched_burst(self, deployment, workload, n_requests,
                          retry_policy=None, policy_name="baseline",
                          bill_category="burst"):
        """Execute a burst with batch semantics and exact per-CPU billing.

        This is the vectorized equivalent of ``n_requests`` concurrent
        dynamic-function invocations under an optional retry policy: each
        *round* places the still-unsatisfied requests as one batch; requests
        landing on banned CPUs are billed the CPU check plus the 150 ms
        hold and re-issued in the next round; the final round (retry budget
        exhausted) runs wherever it lands.  Returns a
        :class:`BatchedBurstResult`.
        """
        if n_requests <= 0:
            raise ConfigurationError("n_requests must be positive")
        from repro.dynfunc.handler import CPU_CHECK_SECONDS
        from repro.workloads.memory import memory_speed_factor
        billing = deployment.provider.billing
        memory, arch = deployment.memory_mb, deployment.arch
        model = workload.runtime_model()
        factors = workload.cpu_factors()
        memory_scale = memory_speed_factor(memory, vcpus=workload.vcpus)
        base_seconds = workload.base_seconds * memory_scale
        rng = self.cloud.rng

        banned = frozenset() if retry_policy is None else (
            retry_policy.banned_cpus)
        max_rounds = 1 if retry_policy is None else (
            retry_policy.max_retries + 1)
        hold_s = 0.0 if retry_policy is None else retry_policy.hold_seconds

        from repro.cloudsim.billing import InvocationBill
        ledger_bill = InvocationBill.zero()
        total_cost = Money(0)
        total_billed_runtime = 0.0
        total_retries = 0
        failed = 0
        cpu_counts = {}
        pending = n_requests
        for round_index in range(max_rounds):
            if pending <= 0:
                break
            last_round = round_index == max_rounds - 1
            active_ban = frozenset() if last_round else banned
            result, _ = self.cloud.place_batch(
                deployment, pending, base_seconds,
                bill_category=bill_category, charge=False)
            failed += result.failed
            carried = 0
            for cpu_key, count in sorted(result.request_cpu_counts.items()):
                if cpu_key in active_ban:
                    # Declined: CPU check + hold, billed, then re-issued.
                    billed_s = count * (CPU_CHECK_SECONDS + hold_s)
                    bill = _exact_bill(billing, memory, arch, billed_s,
                                       count)
                    ledger_bill = ledger_bill + bill
                    total_cost = total_cost + bill.total
                    total_billed_runtime += billed_s
                    total_retries += count
                    carried += count
                else:
                    noise = np.exp(rng.normal(0.0, model.noise_sigma,
                                              size=count))
                    runtimes = base_seconds * factors[cpu_key] * noise
                    billed_s = float(runtimes.sum())
                    bill = _exact_bill(billing, memory, arch, billed_s,
                                       count)
                    ledger_bill = ledger_bill + bill
                    total_cost = total_cost + bill.total
                    total_billed_runtime += billed_s
                    cpu_counts[cpu_key] = cpu_counts.get(cpu_key,
                                                         0) + count
            pending = carried
        deployment.account.record_bill(ledger_bill, category=bill_category)
        executed = sum(cpu_counts.values())
        return BatchedBurstResult(
            workload_name=workload.name,
            policy_name=policy_name,
            zone_id=deployment.zone_id,
            n=n_requests,
            executed=executed,
            failed=failed,
            total_cost=total_cost,
            total_billed_runtime=total_billed_runtime,
            total_retries=total_retries,
            cpu_counts=cpu_counts,
        )


class BatchedBurstResult(object):
    """Aggregate outcome of one batched burst."""

    __slots__ = ("workload_name", "policy_name", "zone_id", "n", "executed",
                 "failed", "total_cost", "total_billed_runtime",
                 "total_retries", "cpu_counts")

    def __init__(self, workload_name, policy_name, zone_id, n, executed,
                 failed, total_cost, total_billed_runtime, total_retries,
                 cpu_counts):
        self.workload_name = workload_name
        self.policy_name = policy_name
        self.zone_id = zone_id
        self.n = n
        self.executed = executed
        self.failed = failed
        self.total_cost = total_cost
        self.total_billed_runtime = total_billed_runtime
        self.total_retries = total_retries
        self.cpu_counts = dict(cpu_counts)

    @property
    def cost_per_invocation(self):
        return self.total_cost / max(1, self.executed)

    @property
    def retry_fraction(self):
        return self.total_retries / float(self.n)

    def __repr__(self):
        return ("BatchedBurstResult({}/{} @ {}: n={}, cost={}, "
                "retries={})".format(self.workload_name, self.policy_name,
                                     self.zone_id, self.n, self.total_cost,
                                     self.total_retries))


def _exact_bill(billing, memory_mb, arch, total_seconds, requests):
    """Bill ``requests`` invocations totalling ``total_seconds`` runtime."""
    from repro.cloudsim.billing import InvocationBill
    from repro.common.units import gb_seconds
    compute = Money(billing.rate_for(arch)
                    * gb_seconds(memory_mb, total_seconds))
    request_fee = Money(billing.per_request * requests)
    return InvocationBill(compute, request_fee, total_seconds, requests)
