"""Parallel sweep benchmark: 24-cell campaign grid, serial vs. pool/remote.

Runs the reference 24-cell grid (2 zones x 12 seeds, fixed work per cell)
through :class:`repro.engine.SweepEngine` once serially and once with the
chosen parallel backend, then reports wall times, speedup, and — always —
verifies the headline guarantee: the parallel results are byte-identical
to the serial reference.

Usage::

    python benchmarks/bench_sweep.py [--workers 4] [--polls 800] [--check]
    python benchmarks/bench_sweep.py --backend remote --workers 4 --check

``--backend local`` (default) uses the in-box process pool;
``--backend remote`` stands up the socket coordinator on a loopback port
and spawns ``--workers`` ``sweep-worker`` subprocesses against it — the
distributed data path, minus the network.

The local pool is timed warm: one untimed pool run first starts the
fork server (which preloads ``repro`` once per process), and its wall
time is printed for information.  The fork server's start is a fixed
cost per process, not per sweep; left in the timed run it outweighs the
cells' work on a small machine, so the ratio would fall as the cells
get cheaper.  The remote run still spawns its workers inside the timed
run.

``--check`` turns the speedup into a gate.  The threshold is hardware
aware — the target is 2.5x for the pool and 2.0x for the remote backend
(socket framing and worker start-up cost real time), but a backend can't
beat the core count, so on machines with fewer than 4 usable cores the
requirement scales down (and on a single-core box the gate is skipped
outright, pass reported informationally): byte-equality is still
enforced everywhere.
"""

import argparse
import os
import pickle
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from repro.engine import SweepEngine  # noqa: E402

from perf_trajectory import sweep_grid24_tasks  # noqa: E402

#: Speedup targets per backend at 4+ usable cores.
TARGET_SPEEDUP = {"local": 2.5, "remote": 2.0}


def usable_cores():
    """CPUs this process may actually run on (cgroup/affinity aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def required_speedup(workers, cores, target):
    """Scale the speedup target to what the hardware can deliver.

    With ``min(workers, cores)`` effective lanes the ideal speedup is the
    lane count; we require half of it, capped at the backend's target (so
    4+ cores must hit the full target, 2 cores must hit 1.0x+, 1 core
    gates nothing).
    """
    lanes = min(workers, cores)
    if lanes < 2:
        return None
    return min(target, lanes / 2.0)


def timed_run(workers, polls, backend="local"):
    if backend == "remote":
        engine = SweepEngine(workers=workers, backend="remote",
                             remote_workers=workers, join_timeout_s=60.0)
    else:
        engine = SweepEngine(workers=workers)
    start = time.perf_counter()
    results = engine.run(sweep_grid24_tasks(max_polls=polls))
    return time.perf_counter() - start, results, engine.last_mode


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--polls", type=int, default=800,
                        help="polls per cell (sets per-cell work)")
    parser.add_argument("--backend", choices=("local", "remote"),
                        default="local",
                        help="parallel backend to race against serial "
                             "(remote = loopback socket workers)")
    parser.add_argument("--check", action="store_true",
                        help="gate: fail below the hardware-scaled "
                             "speedup threshold")
    args = parser.parse_args(argv)

    cores = usable_cores()
    print("bench_sweep: 24 cells, {} polls/cell, {} workers "
          "({} backend), {} usable core(s)".format(
              args.polls, args.workers, args.backend, cores))

    serial_s, serial_results, _ = timed_run(1, args.polls)
    runs = []
    if args.backend == "local":
        cold_s, cold_results, cold_mode = timed_run(args.workers,
                                                    args.polls)
        runs.append(cold_results)
        print("cold pool[{}] (starts the fork server, informational): "
              "{:.0f} ms".format(cold_mode, cold_s * 1e3))
    parallel_s, parallel_results, mode = timed_run(
        args.workers, args.polls, backend=args.backend)
    runs.append(parallel_results)

    if args.backend == "remote" and mode != "remote":
        print("FAIL: remote backend degraded to {!r}".format(mode))
        return 1

    # Compare cell by cell: pickling the whole list at once would also
    # compare pickle's memo structure (object sharing across cells), which
    # legitimately differs between in-process and round-tripped results.
    identical = all(
        len(serial_results) == len(results) and all(
            pickle.dumps(a) == pickle.dumps(b)
            for a, b in zip(serial_results, results))
        for results in runs)
    speedup = serial_s / parallel_s if parallel_s else float("inf")
    print("serial: {:.0f} ms   {}[{}]: {:.0f} ms   speedup: {:.2f}x   "
          "byte-identical: {}".format(serial_s * 1e3, args.backend, mode,
                                      parallel_s * 1e3, speedup,
                                      identical))

    if not identical:
        print("FAIL: {} results differ from the serial reference".format(
            args.backend))
        return 1

    threshold = required_speedup(args.workers, cores,
                                 TARGET_SPEEDUP[args.backend])
    if threshold is None:
        print("speedup gate skipped: single usable core (determinism "
              "still verified)")
        return 0
    if args.check and speedup < threshold:
        print("FAIL: speedup {:.2f}x below required {:.2f}x".format(
            speedup, threshold))
        return 1
    print("speedup gate{}: {:.2f}x vs required {:.2f}x".format(
        "" if args.check else " (informational)", speedup, threshold))
    return 0


if __name__ == "__main__":
    sys.exit(main())
