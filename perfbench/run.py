"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-overload-100k --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` gives the per-layer metrics from a separately traced run.
Human-readable lines (digest, medians with quartiles and sample counts,
check failures, the traced self-time table) come first; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Metric names and units are
those of ``BENCHMARK.json`` at the repository root.  The program under
test is imported from ``src/`` of the same checkout, never from an
installed copy.
"""

import argparse
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch output (traces, worker sockets) stays inside the checkout.
OUT_DIR = os.path.join(ROOT, ".perfbench")
#: Unix socket paths are limited to ~107 bytes; the worker pool's socket
#: adds ~35 to the temporary directory.
MAX_TMP_PATH = 70


def _import_program():
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit("perfbench: no program sources at {}".format(SRC))
    sys.path.insert(0, SRC)
    import repro
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit("perfbench: imported repro from {}, not {}".format(
            repro.__file__, SRC))


def _workloads():
    import serve_bench
    import sweep_bench
    return {serve_bench.NAME: serve_bench.run,
            sweep_bench.NAME: sweep_bench.run}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _import_program()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    workloads = _workloads()
    declared = [w["name"] for w in spec["workloads"]]
    if args.workload not in declared or args.workload not in workloads:
        parser.error("unknown workload {!r}; pick one of {}".format(
            args.workload, ", ".join(declared)))
    os.makedirs(OUT_DIR, exist_ok=True)
    tmp = os.path.join(OUT_DIR, "tmp")
    if len(tmp) <= MAX_TMP_PATH:
        os.makedirs(tmp, exist_ok=True)
        os.environ["TMPDIR"] = tmp
        tempfile.tempdir = tmp
    trace_path = os.path.join(OUT_DIR, "trace-{}-seed{}.json".format(
        args.workload, args.seed))

    out = sys.stdout
    out.write("perfbench {} seed={} seconds={:g} trace={}\n".format(
        args.workload, args.seed, args.seconds, args.trace))
    correct, attempted, failed, values = workloads[args.workload](
        args.workload, args.seed, args.seconds, bool(args.trace), out,
        trace_path)

    declared = spec["per_layer" if args.trace else "end_to_end"]
    names = [metric["name"] for metric in declared]
    if sorted(values) != sorted(names):
        raise SystemExit("perfbench: metrics {} do not match BENCHMARK.json "
                         "{}".format(sorted(values), sorted(names)))
    metrics = {metric["name"]: {"value": values[metric["name"]],
                                "unit": metric["unit"]}
               for metric in declared}
    out.write(json.dumps({"correct": bool(correct),
                          "attempted": int(attempted),
                          "failed": int(failed),
                          "metrics": metrics}, allow_nan=False) + "\n")
    out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
