"""Sweep workload: the paper's sampling method over the 24-cell grid.

Each cell is a saturation-style ``CampaignTask`` in its own private
cloud: 2 zones x 12 seeds, ``POLLS`` fixed polls per cell (the failure
threshold is off and a long inter-poll gap lets capacity expire, so every
cell runs every poll), ``summary=True``.  The grid runs through
``SweepEngine(workers=nproc)``; the result is checked cell by cell
against an untimed ``workers=1`` reference, which also counts the
requests the account quota throttled.
"""

import gc
import hashlib
import os
import pickle
import threading
import time

from repro import CampaignTask, CloudSpec, Grid, Observability, SweepEngine
from repro.common.errors import SweepError
from repro.cloudsim import CloudAccount

import layers
from stats import PeakRss, Summary, descendants, failed_share
from tracer import Tracer

NAME = "sweep-grid24"
ZONES = ("us-west-1a", "us-west-1b")
CELL_SEEDS = 12
POLLS = 400
ENDPOINTS = 30
REQUESTS_PER_POLL = 1000
#: Engine + task builds timed as one set-up sample before each parallel
#: sweep (the last one runs): one build takes a fraction of a
#: millisecond, too little to time alone.
SETUP_BUILDS = 40
#: Timed parallel sweeps never drop below this, whatever ``--seconds``.
MIN_REPEATS = 3
#: In a traced run, the share of ``--seconds`` spent on parallel sweeps.
UNTRACED_SHARE = 0.5
#: Seconds between samples of the workers' peak memory.
RSS_SAMPLE_S = 0.05


def workers():
    """The machine's usable cores: the sweep's worker count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build_tasks(seed):
    grid = Grid([("zone", list(ZONES)), ("seed", list(range(CELL_SEEDS)))],
                root_seed=seed, namespace="perfbench-sweep")
    tasks = []
    for cell in grid.cells():
        zone = dict(cell.key)["zone"]
        tasks.append(CampaignTask(
            CloudSpec.for_zones([zone], seed=cell.seed), zone,
            endpoints=ENDPOINTS, n_requests=REQUESTS_PER_POLL,
            max_polls=POLLS, failure_threshold=1.0, inter_poll_gap=400.0,
            summary=True))
    return tasks


def setup(seed, setups):
    """The timed set-up, ``SETUP_BUILDS`` times: the task grid and the
    engine that runs it.  Appends the time per build to ``setups``."""
    started = time.perf_counter()
    for _ in range(SETUP_BUILDS):
        tasks = build_tasks(seed)
        engine = SweepEngine(workers=workers())
    setups.append((time.perf_counter() - started) / SETUP_BUILDS)
    return tasks, engine


def run_parallel(engine, tasks):
    """One timed sweep; returns ``(results, failed cells, wall)``."""
    gc.collect()
    started = time.perf_counter()
    try:
        results, failed = engine.run(tasks), 0
    except SweepError as error:
        results, failed = None, len(error.failures)
    finally:
        wall = time.perf_counter() - started
    return results, failed, wall


def peak_rss(engine, tasks):
    """One untimed parallel sweep whose peak memory is sampled by a
    thread while the workers live; returns ``(results, peak MB)``.

    Kept out of the timed sweeps so the sampler costs them nothing.
    """
    peak = PeakRss()
    stop = threading.Event()

    def sample():
        while not stop.wait(RSS_SAMPLE_S):
            peak.sample()

    sampler = threading.Thread(target=sample, daemon=True)
    sampler.start()
    try:
        results = engine.run(tasks)
    except SweepError:
        results = None
    finally:
        stop.set()
        sampler.join()
    return results, peak.total_mb()


def stop_pool_helpers():
    """Stop and reap the fork server and resource tracker that the
    engine's pool left running, so the run ends with no live children."""
    from multiprocessing import forkserver, resource_tracker
    forkserver._forkserver._stop()
    resource_tracker._resource_tracker._stop()
    left = descendants(os.getpid())
    if left:
        raise RuntimeError("child processes still running: {}".format(left))


def run_serial(tasks, obs=None):
    started = time.perf_counter()
    results = SweepEngine(workers=1, obs=obs).run(tasks)
    return results, time.perf_counter() - started


def reference_run(tasks, obs):
    """The untimed ``workers=1`` sweep: warm-up and correctness reference.

    Returns ``(results, throttled requests)``.  Every cell is
    deterministic per seed, so the parallel sweeps throttle exactly as
    many requests as this one.
    """
    throttled = [0]

    def count_throttled(args, admitted):
        throttled[0] += args[1] - admitted

    with Tracer() as tracer:
        tracer.wrap_class(CloudAccount, "admit_batch",
                          "cloudsim.account.admit_batch", count_throttled)
        results, _ = run_serial(tasks, obs)
    return results, throttled[0]


def check(engine, results, reference):
    """Self-checks and correctness checks; returns failure messages."""
    problems = []
    if workers() > 1 and engine.last_mode != "pool":
        problems.append("the sweep ran {!r}, not a pool of {} workers"
                        .format(engine.last_mode, workers()))
    if results is None:
        return problems + ["the sweep raised SweepError"]
    if len(results) != len(reference):
        return ["{} results for {} cells".format(len(results),
                                                 len(reference))]
    for index, (cell, ref) in enumerate(zip(results, reference)):
        if cell.polls_run != POLLS:
            problems.append("cell {} ran {} polls, not {}".format(
                index, cell.polls_run, POLLS))
        if pickle.dumps(cell) != ref:
            problems.append("cell {} differs from the workers=1 "
                            "reference".format(index))
    return problems


def served(results):
    return sum(cell.profile.samples for cell in results)


def run(name, seed, seconds, trace, out, trace_path):
    """Run the sweep; returns ``(correct, attempted, failed, metrics)``."""
    setups = []
    tasks = build_tasks(seed)
    n_cells = len(tasks)
    # Untimed warm-up and correctness reference in one: workers=1.
    obs = Observability() if trace else None
    reference, throttled = reference_run(tasks, obs)
    pickles = [pickle.dumps(cell) for cell in reference]
    digest = hashlib.sha256(b"".join(pickles)).hexdigest()[:16]
    out.write("digest {} seed={} {}\n".format(name, seed, digest))
    total_served = served(reference)
    cost = sum(float(cell.total_cost) for cell in reference)

    budget = seconds * (UNTRACED_SHARE if trace else 1.0)
    problems = []
    if throttled:
        problems.append("{} requests throttled by the account quota".format(
            throttled))
    walls, attempted, failed = [], 0, 0
    deadline = time.perf_counter() + budget
    try:
        while len(walls) < MIN_REPEATS or time.perf_counter() < deadline:
            tasks, engine = setup(seed, setups)
            results, failed_cells, wall = run_parallel(engine, tasks)
            problems.extend(check(engine, results, pickles))
            walls.append(wall)
            attempted += n_cells
            failed += failed_cells
        if not trace:
            results, peak_mb = peak_rss(engine, tasks)
            problems.extend(check(engine, results, pickles))
    finally:
        stop_pool_helpers()
    for problem in sorted(set(problems)):
        out.write("check failed: {}\n".format(problem))
    share, _ = failed_share(attempted, 0, failed, attempted - failed)
    wall = Summary(walls)
    rps = Summary([total_served / w for w in walls])
    setup_s = Summary(setups)
    out.write("setup_s {}\n".format(setup_s.describe()))
    out.write("served_rps {}\n".format(rps.describe()))
    out.write("wall_s {} for {} cells at workers={}\n".format(
        wall.describe(), n_cells, workers()))
    out.write("cells={} failed={} failed_share={:.6f} polls_per_cell={} "
              "served_requests={} throttled={}\n".format(
                  attempted, failed, share, POLLS, total_served, throttled))
    correct = not problems
    if not trace:
        metrics = {
            # Fast quartiles: see the stats module.
            "setup_s": setup_s.q1,
            "served_rps": rps.q3,
            "cost_per_1k_usd": cost / total_served * 1000.0,
            "ok_share": 1.0 - share,
            "peak_rss_mb": peak_mb,
        }
        return correct, attempted, failed, metrics
    return (correct, attempted, failed,
            _layer_metrics(tasks, obs, seconds - budget, wall, throttled,
                           out, trace_path, name, seed))


def traced_serial(tasks):
    """One serial sweep with every layer wrapped at class level, since
    the cells build their own clouds; returns the tracer."""
    tracer = Tracer()
    layers.wrap(tracer)
    engine = SweepEngine(workers=1)
    tracer.wrap_instance(engine, "run", "engine.sweep")
    with tracer:
        engine.run(tasks)
    return tracer


def _layer_metrics(tasks, obs, budget, wall, throttled, out, trace_path,
                   name, seed):
    """Serial sweeps, untraced and traced in turn, for ``budget`` seconds.

    The engine numbers compare the parallel median wall time with the
    untraced serial median: ``fixed_overhead_s`` is the parallel time not
    explained by the cells' work spread over the workers.
    """
    cell_ms = [event.fields["wall_ms"]
               for event in obs.recorder.events("sweep.cell")]
    lanes = workers()
    serial, traced = [], []
    deadline = time.perf_counter() + budget
    while len(traced) < MIN_REPEATS or time.perf_counter() < deadline:
        serial.append(run_serial(tasks)[1])
        traced.append(traced_serial(tasks))
    serial = Summary(serial)
    traced_wall = Summary([t.layer("engine.sweep").total_s
                           for t in traced])
    overhead = traced_wall.median / serial.median - 1.0
    out.write("engine: serial {}, parallel {} at workers={}\n".format(
        serial.describe(), wall.describe(), lanes))
    out.write("trace: traced serial sweep {} against untraced median "
              "{:.4f} s: overhead {:+.1%}\n".format(
                  traced_wall.describe(), serial.median, overhead))
    tracer = traced[-1]
    layers.print_shares(tracer, "engine.sweep", out)
    tracer.dump(trace_path, meta={"workload": name, "seed": seed})
    out.write("trace: spans written to {}\n".format(trace_path))
    per_run = [layers.trace_metrics(t, "engine.sweep") for t in traced]
    metrics = {key: Summary([v[key] for v in per_run]).median
               for key in per_run[0]}
    metrics.update({
        "cloudsim.cloud.poll_batch.requests_per_call": 0.0,
        "core.health.record_failure.calls_per_failed": 0.0,
        "obs.bus.emit.calls_per_flush": 0.0,
        "serve.gateway.batch_mean": 0.0,
        "serve.gateway.flushes": 0,
        "serve.tick_p99_us": 0.0,
        "serve.sim_p50_ms": 0.0,
        "serve.sim_p99_ms": 0.0,
        "serve.unaccounted": 0,
        "core.health.zones_served": 0,
        "cloudsim.account.admit_batch.throttled": throttled,
        "sweep_cells_per_s": len(tasks) / wall.median,
        "engine.fixed_overhead_s": wall.median - serial.median / lanes,
        "engine.parallel_efficiency": serial.median / (lanes * wall.median),
        "engine.cell_ms_p50": Summary(cell_ms).median,
        "trace.overhead_share": overhead,
    })
    return metrics
