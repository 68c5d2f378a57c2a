"""Simulator perf trajectory: record hot-path timings, gate regressions.

The two numbers that bound how large an experiment the library can host are
the per-op costs of the sampling poll (``test_throughput_poll_1000``) and
the routed invocation (``test_throughput_invoke_one``).  This script times
exactly those loops — best-of-N, min over repeats, so background load on
the machine inflates nothing — and appends them to ``BENCH_simulator.json``
at the repo root, building a commit-over-commit trajectory.

Cross-machine comparability comes from a calibration loop: a fixed pure
Python workload timed the same way.  The gate compares *normalized* costs
(metric / calibration) so a slower CI runner doesn't read as a regression.

Usage::

    python benchmarks/perf_trajectory.py record --label after --baseline
    python benchmarks/perf_trajectory.py check [--max-regression 0.20]

``check`` measures the current tree, records it (label ``ci-check``), and
exits non-zero if any metric regressed more than ``--max-regression``
against the most recent entry flagged ``"baseline": true``.
"""

import argparse
import contextlib
import json
import os
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from repro import build_sky  # noqa: E402
from repro.cloudsim.adapters import HardCapQuota  # noqa: E402
from repro.cloudsim.handlers import ModeledWorkloadHandler, SleepHandler  # noqa: E402
from repro.cloudsim.provider import provider_by_name  # noqa: E402
from repro.dynfunc import UniversalDynamicFunctionHandler  # noqa: E402
from repro.engine import CampaignTask, CloudSpec, Grid, SweepEngine  # noqa: E402
from repro.workloads import resolve_runtime_model, workload_by_name  # noqa: E402

TRAJECTORY = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCH_simulator.json")

POLL_ITERS = 2000
INVOKE_ITERS = 10000
BATCH_100K = 100000
BATCH_10K = 10000
#: Lifted AWS concurrency quota for the 100k batch benchmarks — the
#: catalog default (1000) would cap the burst and time a 1k batch.
#: Installed on the AWS adapter, the only holder of the quota.
BATCH_QUOTA = 200000
REPEATS = 5
SWEEP_REPEATS = 3
#: Lanes of the pooled grid sweep: its fixed cost (fork server, worker
#: start, pickling) is what sweep_grid24_pool_ms adds over the serial run.
POOL_WORKERS = 2
BATCH_REPEATS = 3
#: The vectorized path must beat the looped executable spec by at least
#: this factor at n=100k, or recording aborts (the fast path rotted).
MIN_BATCH_SPEEDUP = 5.0
#: Offered load for the serving-gateway benchmark; the coalescing
#: dispatcher must sustain at least MIN_SERVE_SPEEDUP x the per-request
#: scalar path at this rate, or recording aborts.
SERVE_RPS = 10000.0
SERVE_SIM_S = 5.0
SERVE_SCALAR_SIM_S = 0.5
SERVE_REPEATS = 3
MIN_SERVE_SPEEDUP = 5.0
#: Zones in the full 41-region catalog (cloud_build_ms builds them all).
CATALOG_ZONES = 44
#: The zones the perfbench serve rig uses (sky_build_ms builds these).
SKY_ZONES = ("us-west-1a", "us-west-1b")
METRICS = ("poll_1000_us", "invoke_one_us", "sweep_grid24_ms",
           "sweep_grid24_pool_ms", "poll_100k_ms", "batch_invoke_10k_us",
           "cloud_build_ms", "sky_build_ms", "serve_sustained_rps",
           "serve_p99_ms")
#: Throughput metrics: bigger is better, and the normalized cost is
#: value * calibration (a slow machine lowers the rate, so multiplying
#: by its per-op cost cancels the machine out).
HIGHER_IS_BETTER = frozenset({"serve_sustained_rps"})
#: Sim-domain metrics: deterministic given the seed, independent of the
#: host machine — gated raw, any drift is a behavior change.
SIM_METRICS = frozenset({"serve_p99_ms"})


def best_of(fn, repeats=REPEATS):
    fn()  # warmup
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
    return best


def median_of(fn, repeats):
    """Median wall time of ``repeats`` timed calls after one untimed one.

    For work whose cost is partly a per-call fixed start (the pooled
    sweep): the median keeps that start in the number, where ``best_of``
    would report the one luckiest call.
    """
    fn()  # warmup: starts the fork server the timed calls reuse
    walls = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        walls.append(time.perf_counter() - start)
    return statistics.median(walls)


def calibration_us():
    """A fixed pure-Python workload; measures the machine, not the code."""
    def spin():
        acc = 0
        for i in range(200000):
            acc += i * i
        return acc

    return best_of(spin) / 200000 * 1e6


def sweep_grid24_tasks(root_seed=77, max_polls=400):
    """The reference 24-cell campaign grid (shared with bench_sweep).

    ``failure_threshold=1.0`` disables the early-saturation stop and a
    long ``inter_poll_gap`` lets capacity expire between polls, so every
    cell runs exactly ``max_polls`` full polls — fixed work per cell, the
    shape a parallel-speedup benchmark needs.  ``summary=True`` keeps the
    returned payload fixed-size so the benchmark times the sweep, not the
    parent's unpickling of raw observations.
    """
    grid = Grid([("zone", ["us-west-1a", "us-west-1b"]),
                 ("seed", list(range(12)))], root_seed=root_seed,
                namespace="bench-sweep")
    tasks = []
    for cell in grid.cells():
        zone = dict(cell.key)["zone"]
        tasks.append(CampaignTask(
            CloudSpec.for_zones([zone], seed=cell.seed), zone,
            endpoints=30, n_requests=1000, max_polls=max_polls,
            failure_threshold=1.0, inter_poll_gap=400.0, summary=True))
    return tasks


def _batch_cloud(seed=311):
    """A fresh one-deployment cloud for the batch benchmarks."""
    cloud = build_sky(seed=seed, aws_only=True)
    account = cloud.create_account("bench-batch", "aws")
    deployment = cloud.deploy(
        account, "eu-central-1a", "modeled", 2048,
        handler=ModeledWorkloadHandler("bench", 0.3, {}, noise_sigma=0.05,
                                       default_factor=1.0))
    return cloud, deployment


def _batch_keys(vectorize, polls=2, n_requests=BATCH_100K):
    """Seeded aggregate keys for the byte-equality guarantee."""
    cloud, deployment = _batch_cloud()
    keys = []
    for _ in range(polls):
        result = cloud.poll_batch(deployment, n_requests,
                                  vectorize=vectorize)
        assert result.requested == n_requests, result.requested
        keys.append(result.aggregate_key())
        cloud.clock.advance(120.0)
    return keys


@contextlib.contextmanager
def lifted_aws_quota():
    """Swap the AWS adapter's quota for ``HardCapQuota(BATCH_QUOTA)``;
    accounts created inside the block admit the full burst."""
    adapter = provider_by_name("aws").adapter
    saved_quota = adapter.quota
    adapter.quota = HardCapQuota(BATCH_QUOTA)
    try:
        yield
    finally:
        adapter.quota = saved_quota


def measure_batch():
    """poll_100k_ms / batch_invoke_10k_us, plus the equality+speedup gate.

    Runs under a lifted AWS concurrency quota so the full 100k burst is
    actually admitted, and asserts on every poll that it was.  Aborts
    with :class:`AssertionError` if a burst was cut short, if the
    vectorized and looped paths diverge on seeded aggregates, or if the
    speedup fell below ``MIN_BATCH_SPEEDUP`` — a bench that silently
    recorded numbers for a smaller burst or a broken fast path would be
    worse than no bench.
    """
    with lifted_aws_quota():
        assert _batch_keys(True) == _batch_keys(False), \
            "vectorized poll_batch diverged from the looped spec"

        def time_path(vectorize, n_requests):
            cloud, deployment = _batch_cloud()

            def one_poll():
                result = cloud.poll_batch(deployment, n_requests,
                                          vectorize=vectorize)
                assert result.requested == n_requests, result.requested
                cloud.clock.advance(3600.0)  # expire capacity between

            return best_of(one_poll, repeats=BATCH_REPEATS)

        vectorized_s = time_path(True, BATCH_100K)
        looped_s = time_path(False, BATCH_100K)
        speedup = looped_s / vectorized_s
        assert speedup >= MIN_BATCH_SPEEDUP, \
            "vectorized poll_batch only {:.1f}x faster than looped at " \
            "n={} (need >= {}x)".format(speedup, BATCH_100K,
                                        MIN_BATCH_SPEEDUP)
        return {
            "poll_100k_ms": vectorized_s * 1e3,
            "poll_100k_loop_ms": looped_s * 1e3,
            "batch_invoke_10k_us": time_path(True, BATCH_10K) * 1e6,
        }


def _serve_gateway(batch_floor, seed=311):
    """A capacity-lifted serving rig: the gateway benchmark measures
    dispatch throughput, so the zones must not saturate at 10k rps."""
    from repro import Observability, SkyController
    from repro.sampling import CharacterizationBuilder
    from repro.serve import GatewayConfig, PoissonArrivals, ServeGateway

    cloud = build_sky(seed=seed, aws_only=True)
    account = cloud.create_account("bench-serve", "aws")
    zones = ["us-west-1a", "us-west-1b"]
    for zone_id in zones:
        for pool in cloud.zone(zone_id).pools.values():
            # ~20k slots per pool: 10k rps x 2.5s runtimes need ~25k
            # concurrent slots across the zones.
            if pool.slots_per_host > 0:
                pool.add_hosts(-(-20000 // pool.slots_per_host))
    controller = SkyController(cloud, account, zones,
                               obs=Observability(), sampling_count=2)
    for zone_id in zones:
        builder = CharacterizationBuilder(zone_id)
        builder.add_poll({key: pool.capacity
                          for key, pool in cloud.zone(zone_id).pools.items()
                          if pool.capacity > 0})
        profile = builder.snapshot()
        controller.store.put(profile)
        controller.tracker.observe(profile)
    workload = workload_by_name("sha1_hash")
    config = GatewayConfig(batch_floor=batch_floor)
    arrivals = PoissonArrivals(SERVE_RPS, seed=seed)
    return ServeGateway(controller, workload, arrivals, config=config)


def measure_serve():
    """serve_sustained_rps / serve_p99_ms, plus the coalescing gate.

    Two runs at the same 10k rps offered load: the default coalescing
    dispatcher, and the scalar per-request path (batch floor set above
    any batch size, so every flush falls back).  Sustained rate is
    requests resolved per *wall* second; the scalar leg runs a shorter
    sim window because it is the slow path being bounded, not measured
    at length.  Aborts if coalescing fell below ``MIN_SERVE_SPEEDUP`` x
    scalar, or if the account quota throttled any request (the run would
    then measure the quota, not dispatch).
    """
    with lifted_aws_quota():
        def time_run(batch_floor, sim_s, repeats):
            # Best-of over fresh gateways (a gateway can't re-run), same
            # min-over-repeats discipline as every cost metric above —
            # background load can only lower a rate, never raise it.
            best_rps, best_report = 0.0, None
            for _ in range(repeats):
                gateway = _serve_gateway(batch_floor)
                start = time.perf_counter()
                report = gateway.run_sync(sim_s)
                elapsed = time.perf_counter() - start
                throttled = gateway.controller.account.throttled_requests
                assert throttled == 0, \
                    "serve bench throttled {} requests".format(throttled)
                rps = (report.served + report.failed) / elapsed
                if rps > best_rps:
                    best_rps, best_report = rps, report
            return best_rps, best_report

        coalesced_rps, report = time_run(16, SERVE_SIM_S,
                                         SERVE_REPEATS)
        scalar_rps, _ = time_run(10 ** 9, SERVE_SCALAR_SIM_S, 2)
        speedup = coalesced_rps / scalar_rps
        assert speedup >= MIN_SERVE_SPEEDUP, \
            "coalesced dispatch only {:.1f}x the per-request path at " \
            "{:.0f} rps offered (need >= {}x)".format(
                speedup, SERVE_RPS, MIN_SERVE_SPEEDUP)
        assert report.served > 0, "serve bench served nothing"
        return {
            "serve_sustained_rps": coalesced_rps,
            "serve_scalar_rps": scalar_rps,
            "serve_p99_ms": report.quantile_ms(0.99),
        }


def measure_build():
    """Sky construction, down to the zones each build is named for.

    Zones build on first use, so ``CloudSpec.build()`` alone times only
    their registration.  ``cloud_build_ms`` is the full-catalog build
    (exercising the shared plan memo) plus every one of its 44 zones;
    ``sky_build_ms`` is ``build_sky(aws_only=True)`` plus the two zones
    the perfbench serve rig uses.
    """
    def full():
        cloud = CloudSpec(seed=17, aws_only=False).build()
        zone_ids = cloud.zone_ids()
        built = {zone_id: cloud.zone(zone_id) for zone_id in zone_ids}
        assert len(built) == CATALOG_ZONES, len(built)
        assert all(zone.zone_id == zone_id
                   for zone_id, zone in built.items())

    def sky():
        cloud = build_sky(seed=17, aws_only=True)
        for zone_id in SKY_ZONES:
            assert cloud.zone(zone_id).zone_id == zone_id

    return {"cloud_build_ms": best_of(full) * 1e3,
            "sky_build_ms": best_of(sky) * 1e3}


def measure():
    cloud = build_sky(seed=191, aws_only=True)
    account = cloud.create_account("bench", "aws")
    sleeper = cloud.deploy(account, "eu-central-1a", "sleeper", 2048,
                           handler=SleepHandler(0.25))
    dynamic = cloud.deploy(
        account, "eu-central-1a", "dynamic", 2048,
        handler=UniversalDynamicFunctionHandler(resolve_runtime_model))
    payload = workload_by_name("sha1_hash").payload()

    # Each loop asserts it ran the size it is named for, the way
    # measure_batch / measure_serve do: a poll cut short by the quota, an
    # invocation that ran nothing or a sweep cell that stopped early would
    # otherwise record a number for less work.
    def poll_loop():
        for _ in range(POLL_ITERS):
            result, _ = cloud.poll(sleeper, 1000)
            assert result.requested == 1000, result.requested
            cloud.clock.advance(400.0)  # let the FIs expire between rounds

    def invoke_loop():
        executed = 0
        for _ in range(INVOKE_ITERS):
            invocation = cloud.invoke(dynamic, payload=payload)
            executed += invocation.runtime_s > 0
            cloud.clock.advance(5.0)  # warm reuse on the next round
        assert executed == INVOKE_ITERS, executed

    def sweep_loop(workers=1):
        tasks = sweep_grid24_tasks()
        engine = SweepEngine(workers=workers)
        results = engine.run(tasks)
        assert engine.last_mode == ("pool" if workers > 1 else "serial"), \
            engine.last_mode
        assert len(results) == len(tasks) == 24, len(results)
        for cell in results:
            assert cell.polls_run == tasks[0].max_polls, cell.polls_run

    numbers = {
        "poll_1000_us": best_of(poll_loop) / POLL_ITERS * 1e6,
        "invoke_one_us": best_of(invoke_loop) / INVOKE_ITERS * 1e6,
        "sweep_grid24_ms": best_of(sweep_loop,
                                   repeats=SWEEP_REPEATS) * 1e3,
        "sweep_grid24_pool_ms": median_of(
            lambda: sweep_loop(workers=POOL_WORKERS),
            repeats=SWEEP_REPEATS) * 1e3,
        "calibration_us": calibration_us(),
    }
    numbers.update(measure_batch())
    numbers.update(measure_serve())
    numbers.update(measure_build())
    return numbers


def git_commit():
    try:
        return subprocess.check_output(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=os.path.dirname(TRAJECTORY),
            stderr=subprocess.DEVNULL).decode().strip()
    except Exception:
        return "unknown"


def load_trajectory():
    if not os.path.exists(TRAJECTORY):
        return {"schema": 1, "metrics": list(METRICS), "entries": []}
    with open(TRAJECTORY) as fh:
        return json.load(fh)


def append_entry(label, numbers, baseline=False, note=None):
    data = load_trajectory()
    entry = {
        "label": label,
        "commit": git_commit(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": "{}.{}.{}".format(*sys.version_info[:3]),
        "baseline": bool(baseline),
    }
    if note:
        entry["note"] = note
    entry.update({k: round(v, 3) for k, v in numbers.items()})
    data["entries"].append(entry)
    with open(TRAJECTORY, "w") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")
    return entry


def latest_baseline(data):
    for entry in reversed(data["entries"]):
        if entry.get("baseline"):
            return entry
    return None


def cmd_record(args):
    numbers = measure()
    entry = append_entry(args.label, numbers, baseline=args.baseline,
                         note=args.note)
    print("recorded {label} @ {commit}: poll_1000={poll:.2f}us "
          "invoke_one={invoke:.2f}us sweep_grid24={sweep:.1f}ms "
          "(pool {pool:.1f}ms) "
          "poll_100k={batch:.2f}ms (loop {loop:.1f}ms, {speed:.1f}x) "
          "batch_10k={b10k:.1f}us build={build:.2f}ms "
          "sky_build={sky:.2f}ms "
          "serve={srv:.0f}rps (scalar {scalar:.0f}rps, {srvx:.1f}x) "
          "serve_p99={p99:.1f}ms (calibration {cal:.4f}us)".format(
              label=entry["label"], commit=entry["commit"],
              poll=numbers["poll_1000_us"],
              invoke=numbers["invoke_one_us"],
              sweep=numbers["sweep_grid24_ms"],
              pool=numbers["sweep_grid24_pool_ms"],
              batch=numbers["poll_100k_ms"],
              loop=numbers["poll_100k_loop_ms"],
              speed=numbers["poll_100k_loop_ms"]
              / numbers["poll_100k_ms"],
              b10k=numbers["batch_invoke_10k_us"],
              build=numbers["cloud_build_ms"],
              sky=numbers["sky_build_ms"],
              srv=numbers["serve_sustained_rps"],
              scalar=numbers["serve_scalar_rps"],
              srvx=numbers["serve_sustained_rps"]
              / numbers["serve_scalar_rps"],
              p99=numbers["serve_p99_ms"],
              cal=numbers["calibration_us"]))
    return 0


def gate_ratio(metric, numbers, baseline):
    """Regression ratio for one metric (>1 means current is worse)."""
    if metric in SIM_METRICS:
        # Deterministic sim-domain number: no machine to cancel out,
        # gate the raw values directly.
        return numbers[metric] / baseline[metric]
    if metric in HIGHER_IS_BETTER:
        # Rate metric: per-op cost is 1/rate, so normalized cost is
        # calibration / rate — inverting the ratio keeps the
        # "ratio > 1 + slack means regression" convention.
        base_norm = baseline[metric] * baseline["calibration_us"]
        curr_norm = numbers[metric] * numbers["calibration_us"]
        return base_norm / curr_norm
    base_norm = baseline[metric] / baseline["calibration_us"]
    curr_norm = numbers[metric] / numbers["calibration_us"]
    return curr_norm / base_norm


def cmd_check(args):
    data = load_trajectory()
    baseline = latest_baseline(data)
    numbers = measure()
    if not args.no_record:
        append_entry(args.label, numbers)
    if baseline is None:
        print("no baseline entry in {}; recording only".format(
            os.path.basename(TRAJECTORY)))
        return 0
    limit = 1.0 + args.max_regression
    suspects = []
    for metric in METRICS:
        if metric not in baseline:
            # The metric postdates the baseline entry (e.g. sweep_grid24_ms
            # added after the baseline was recorded): nothing to gate yet.
            print("{}: {:.2f} (no baseline value; skipped)".format(
                metric, numbers[metric]))
            continue
        ratio = gate_ratio(metric, numbers, baseline)
        verdict = "ok"
        if ratio > limit:
            verdict = "SUSPECT"
            suspects.append(metric)
        print("{metric}: {curr:.2f} vs baseline {base:.2f} "
              "(normalized ratio {ratio:.3f}) {verdict}".format(
                  metric=metric, curr=numbers[metric],
                  base=baseline[metric], ratio=ratio, verdict=verdict))
    # A single timing draw on a busy or thermally-throttling machine
    # produces false regressions (that is exactly how a prior baseline
    # misread bench noise as a real slowdown).  A metric only counts as
    # regressed if it stays over the limit on independent re-measurement.
    for attempt in range(args.retries):
        if not suspects:
            break
        remeasured = measure()
        still = []
        for metric in suspects:
            ratio = gate_ratio(metric, remeasured, baseline)
            verdict = "ok" if ratio <= limit else "REGRESSION" \
                if attempt + 1 == args.retries else "SUSPECT"
            print("retry {n} {metric}: {curr:.2f} "
                  "(normalized ratio {ratio:.3f}) {verdict}".format(
                      n=attempt + 1, metric=metric,
                      curr=remeasured[metric], ratio=ratio,
                      verdict=verdict))
            if ratio > limit:
                still.append(metric)
        suspects = still
    failed = suspects
    if failed:
        print("perf gate failed: >{:.0%} regression vs baseline {} "
              "@ {} ({})".format(args.max_regression, baseline["label"],
                                 baseline["commit"], ", ".join(failed)))
        return 1
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    record = sub.add_parser("record", help="measure and append an entry")
    record.add_argument("--label", default="dev")
    record.add_argument("--baseline", action="store_true",
                        help="mark this entry as the gate's baseline")
    record.add_argument("--note", default=None,
                        help="free-form annotation stored on the entry "
                        "(e.g. why a baseline was re-recorded)")
    record.set_defaults(func=cmd_record)

    check = sub.add_parser("check", help="measure and gate vs baseline")
    check.add_argument("--label", default="ci-check")
    check.add_argument("--max-regression", type=float, default=0.20)
    check.add_argument("--retries", type=int, default=2,
                       help="re-measure suspect metrics this many times; "
                       "a regression must reproduce on every attempt")
    check.add_argument("--no-record", action="store_true")
    check.set_defaults(func=cmd_check)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
