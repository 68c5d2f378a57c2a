"""Command-line interface to the serverless sky toolkit.

Subcommands mirror the library's main flows::

    python -m repro catalog [--provider aws]
    python -m repro workloads
    python -m repro characterize us-west-1b [--polls 6] [--json out.json]
    python -m repro profile zipper --zone us-west-1b [--repetitions 2000]
    python -m repro study zipper --zones us-west-1a,us-west-1b,sa-east-1a \
        --days 7 [--json out.json]
    python -m repro sweep campaign --zones us-west-1a,us-west-1b \
        --seeds 0,1,2 --workers 4 [--json out.json]
    python -m repro sweep temporal --zones us-west-1b --seeds 0 \
        --temporal-mode hourly --periods 6
    python -m repro sweep campaign ... --backend remote --bind 0.0.0.0:7077 \
        --remote-workers 0   # serve external sweep-worker peers
    python -m repro sweep-worker --connect coordinator-host:7077
    python -m repro sweep campaign ... --telemetry --serve 9100 \
        --record runs/today        # merged worker telemetry + live
                                   # /metrics + flight recorder
    python -m repro obs serve --port 9100 --rounds 3
    python -m repro obs tail --connect 127.0.0.1:9100
    python -m repro serve --workload sha1_hash --profile diurnal \
        --rps 500 --duration 120 --serve 9100 --record runs/serve
                                   # always-on gateway: coalesced
                                   # dispatch + admission + live
                                   # re-characterization

Everything runs against the simulated sky; ``--seed`` makes runs
reproducible.  Grid-shaped experiments (``sweep``, multi-zone
``characterize``, multi-workload ``study``) accept ``--workers N`` and
fan out over a process pool; results are byte-identical to ``--workers
1`` because every cell's seed is spawn-keyed from the root seed, never
from scheduling order.
"""

import argparse
import contextlib
import os
import sys
from collections import namedtuple

from repro import (
    CampaignTask,
    CloudSpec,
    Grid,
    Observability,
    ProgressiveTask,
    SamplingCampaign,
    SkyController,
    SkyMesh,
    StudyTask,
    SweepEngine,
    TemporalTask,
    UniversalDynamicFunctionHandler,
    WorkloadRunner,
    workload_by_name,
)
from repro import reporting
from repro.common.errors import CharacterizationError
from repro.cloudsim.catalog import (
    catalog_region_names,
    provider_name_of_zone,
    zone_spec,
)
from repro.faults.schedule import PRESET_NAMES
from repro.workloads import all_workloads, resolve_runtime_model


#: Flags several subcommands share, declared once: every subcommand that
#: takes one adds it from here with :func:`_add_shared`, so a flag means
#: the same thing (same ``dest``, same help) wherever it appears.
SHARED_FLAGS = {
    "--zones": dict(default="us-west-1a,us-west-1b",
                    help="comma-separated zone ids"),
    "--workload": dict(default="sha1_hash"),
    "--workers": dict(type=int, default=1,
                      help="process-pool size (default 1 = serial)"),
    "--record": dict(metavar="DIR",
                     help="write a run manifest + events/metrics/trace "
                          "artifacts (flight recorder) to DIR; a sweep "
                          "adds a crash-safe chunks.jsonl journal"),
    "--serve": dict(type=int, default=None, metavar="PORT",
                    dest="serve_port",
                    help="expose live /metrics, /healthz, /runs on this "
                         "port while the run lasts (0 = any free port)"),
    "--json": dict(dest="json_path", metavar="PATH",
                   help="write the run's results as JSON"),
    "--prom": dict(dest="prom_path", metavar="PATH",
                   help="write the run's metrics as Prometheus text"),
    "--jsonl": dict(dest="jsonl_path", metavar="PATH",
                    help="write the run's event log as JSONL"),
    "--auth-token": dict(default=None,
                         help="shared secret for the sweep's HMAC "
                              "handshake; unauthenticated peers are "
                              "rejected before any pickle is read "
                              "(default: $REPRO_SWEEP_TOKEN, else "
                              "anonymous loopback mode)"),
}


def _add_shared(parser, *flags):
    """Add the named :data:`SHARED_FLAGS` to ``parser``."""
    for flag in flags:
        parser.add_argument(flag, **SHARED_FLAGS[flag])


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Serverless sky computing: characterize zones and "
                    "route workloads on a simulated multi-cloud sky.")
    parser.add_argument("--seed", type=int, default=42,
                        help="simulation seed (default 42)")
    commands = parser.add_subparsers(dest="command", required=True)

    catalog = commands.add_parser("catalog",
                                  help="list the 41-region catalog "
                                       "(plus opt-in scenario packs)")
    catalog.add_argument("--provider",
                         choices=("aws", "ibm", "do", "gcp", "azure",
                                  "openwhisk", "ce-caas", "spot"))

    workloads = commands.add_parser(
        "workloads", help="list (or actually execute) the 12 Table-1 "
                          "workloads")
    workloads.add_argument("--run", action="store_true",
                           help="execute each workload for real and time "
                                "it")
    workloads.add_argument("--scale", type=float, default=0.1)
    workloads.add_argument("--repetitions", type=int, default=2)

    characterize = commands.add_parser(
        "characterize", help="sample a zone's CPU distribution")
    characterize.add_argument("zone",
                              help="zone id (comma-separate several to "
                                   "sweep them as independent campaigns)")
    characterize.add_argument("--polls", type=int, default=6,
                              help="polls to run (default 6; 0 = until "
                                   "saturation)")
    _add_shared(characterize, "--workers", "--json", "--record")

    profile = commands.add_parser(
        "profile", help="per-CPU runtime profile of a workload in a zone")
    profile.add_argument("workload")
    profile.add_argument("--zone", default="us-west-1b")
    profile.add_argument("--repetitions", type=int, default=2000)

    advise = commands.add_parser(
        "advise", help="recommend a memory setting for a workload in a "
                       "zone")
    advise.add_argument("workload")
    advise.add_argument("--zone", default="us-west-1b")
    advise.add_argument("--polls", type=int, default=6)
    advise.add_argument("--objective", default="balanced",
                        choices=("cheapest", "fastest", "balanced"))

    study = commands.add_parser(
        "study", help="multi-day routing study (baseline vs. retry vs. "
                      "hybrid)")
    study.add_argument("workload",
                       help="workload name (comma-separate several to "
                            "sweep one independent study per workload)")
    _add_shared(study, "--zones", "--workers", "--json")
    study.set_defaults(zones="us-west-1a,us-west-1b,sa-east-1a")
    study.add_argument("--baseline-zone", default="us-west-1b")
    study.add_argument("--days", type=int, default=7)
    study.add_argument("--burst", type=int, default=1000)
    study.add_argument("--csv", dest="csv_path")

    sweep = commands.add_parser(
        "sweep", help="fan an experiment grid (zones x seeds x ...) over "
                      "a process pool or socket workers; byte-identical "
                      "at any worker count")
    sweep.add_argument("kind", choices=tuple(SWEEP_KINDS))
    _add_shared(sweep, "--zones", "--workers", "--serve", "--record",
                "--auth-token", "--json")
    sweep.add_argument("--seeds", default="0",
                       help="comma-separated seed tokens; each grid cell "
                            "derives its cloud seed from --seed and its "
                            "own (zone, seed-token) key")
    sweep.add_argument("--polls", type=int, default=6,
                       help="max polls per campaign cell (0 = until "
                            "saturation); temporal: polls per period "
                            "(>= 1)")
    sweep.add_argument("--endpoints", type=int, default=10,
                       help="sampling endpoints per campaign cell")
    sweep.add_argument("--requests", type=int, default=None,
                       help="requests per poll (default: provider quota "
                            "capped at 1000)")
    sweep.add_argument("--budgets", default="1,2,4,6",
                       help="progressive: report APE at these poll "
                            "budgets")
    sweep.add_argument("--workloads", default="sha1_hash",
                       help="study: comma-separated workloads (one study "
                            "cell per workload x seed)")
    sweep.add_argument("--baseline-zone", default=None,
                       help="study: fixed zone for the baseline/retry "
                            "policies (default: first of --zones)")
    sweep.add_argument("--days", type=int, default=3)
    sweep.add_argument("--burst", type=int, default=500)
    sweep.add_argument("--temporal-mode", default="daily",
                       choices=("daily", "hourly"),
                       help="temporal: daily campaign series or hourly "
                            "characterizations (default daily)")
    sweep.add_argument("--periods", type=int, default=3,
                       help="temporal: days (daily mode) or hours "
                            "(hourly mode) per cell (default 3)")
    sweep.add_argument("--chunk", type=int, default=None,
                       help="cells per dispatch chunk (default: "
                            "auto, ~4 chunks per worker)")
    sweep.add_argument("--backend", default="local",
                       choices=("local", "remote"),
                       help="executor backend: local process pool, or a "
                            "socket coordinator serving sweep-worker "
                            "processes (default local)")
    sweep.add_argument("--bind", default="127.0.0.1:0",
                       help="remote: coordinator listen address "
                            "(default 127.0.0.1:0 = loopback, any port)")
    sweep.add_argument("--remote-workers", type=int, default=None,
                       help="remote: loopback worker processes to spawn "
                            "(default: --workers; 0 = spawn none and "
                            "wait for external sweep-worker connects)")
    sweep.add_argument("--join-timeout", type=float, default=30.0,
                       help="remote: seconds to wait for the first "
                            "worker before degrading to the local pool "
                            "(default 30)")
    sweep.add_argument("--progress", action="store_true",
                       help="print per-cell progress to stderr")
    sweep.add_argument("--telemetry", action="store_true",
                       help="ship worker-side events/metrics/spans back "
                            "to the coordinator (merged trace + "
                            "worker-labeled series)")
    sweep.add_argument("--resume", metavar="DIR",
                       help="replay DIR's chunks.jsonl journal and run "
                            "only the chunks it is missing (same grid "
                            "flags required; output byte-identical to "
                            "an uninterrupted run)")
    sweep.add_argument("--worker-log-dir", metavar="DIR", default=None,
                       help="remote: write spawned workers' output to "
                            "worker-<n>.log under DIR instead of "
                            "discarding it")

    worker = commands.add_parser(
        "sweep-worker", help="serve a sweep coordinator: run task chunks "
                             "received over a socket until told to stop")
    worker.add_argument("--connect", required=True, metavar="HOST:PORT",
                        help="coordinator address to dial")
    worker.add_argument("--id", dest="worker_id", default=None,
                        help="worker name in events/gauges "
                             "(default worker-<pid>)")
    worker.add_argument("--heartbeat", type=float, default=1.0,
                        help="seconds between liveness heartbeats "
                             "(default 1.0)")
    worker.add_argument("--max-reconnects", type=int, default=8,
                        help="consecutive connection failures before "
                             "giving up (default 8)")
    _add_shared(worker, "--auth-token")
    worker.add_argument("--spool", metavar="DIR", default=None,
                        help="persist undeliverable results to DIR and "
                             "replay them on reconnect (survives "
                             "coordinator restarts)")

    obs = commands.add_parser(
        "obs", help="run a short routed burst with full observability and "
                    "print the metrics/trace summary; 'serve' exposes a "
                    "live Prometheus endpoint, 'tail' renders a running "
                    "sweep's /metrics")
    obs.add_argument("mode", nargs="?", default="demo",
                     choices=("demo", "serve", "tail"),
                     help="demo: one burst + summary (default); serve: "
                          "keep a live /metrics endpoint up across "
                          "--rounds bursts; tail: scrape --connect and "
                          "render sweep progress")
    obs.add_argument("--port", type=int, default=0,
                     help="serve: listen port (default 0 = any free "
                          "port)")
    obs.add_argument("--rounds", type=int, default=1,
                     help="serve/tail: bursts to run / scrapes to render "
                          "(default 1)")
    obs.add_argument("--interval", type=float, default=1.0,
                     help="serve/tail: seconds between rounds "
                          "(default 1.0)")
    obs.add_argument("--connect", metavar="URL",
                     help="tail: endpoint to scrape (host:port or full "
                          "/metrics URL)")
    _add_shared(obs, "--record", "--workload", "--zones")
    obs.add_argument("--requests", type=int, default=60)
    obs.add_argument("--polls", type=int, default=2,
                     help="profiling polls per zone refresh (default 2)")
    obs.add_argument("--poll-requests", type=int, default=400)
    _add_shared(obs, "--prom", "--jsonl")
    obs.add_argument("--csv", dest="csv_path",
                     help="write the metrics snapshot as CSV")

    serve = commands.add_parser(
        "serve", help="run the always-on serving gateway: open-loop "
                      "arrivals, coalesced dispatch, admission control, "
                      "live re-characterization")
    _add_shared(serve, "--workload", "--zones")
    serve.add_argument("--profile", default="poisson",
                       choices=("poisson", "diurnal"),
                       help="arrival process shape (default poisson)")
    serve.add_argument("--rps", type=float, default=500.0,
                       help="offered rate (poisson) or diurnal trough "
                            "(default 500)")
    serve.add_argument("--peak-rps", type=float, default=None,
                       help="diurnal: peak rate (default 4x --rps)")
    serve.add_argument("--period", type=float, default=86400.0,
                       help="diurnal: cycle length in sim seconds "
                            "(default one day)")
    serve.add_argument("--duration", type=float, default=60.0,
                       help="sim seconds to serve (default 60)")
    serve.add_argument("--batch-size", type=int, default=256,
                       help="coalescing flush size (default 256)")
    serve.add_argument("--flush-ms", type=float, default=2.0,
                       help="coalescing flush deadline in sim ms "
                            "(default 2)")
    serve.add_argument("--batch-floor", type=int, default=16,
                       help="below this many buffered requests a flush "
                            "takes the scalar path (default 16)")
    serve.add_argument("--rate-limit", type=float, default=None,
                       help="token-bucket admitted RPS cap (default: "
                            "unlimited)")
    serve.add_argument("--burst", type=float, default=None,
                       help="token-bucket burst (default: one second of "
                            "--rate-limit)")
    serve.add_argument("--max-queue", type=int, default=100000,
                       help="queue depth before 503-shedding "
                            "(default 100000)")
    serve.add_argument("--slo-ms", type=float, default=None,
                       help="latency SLO in ms (default: 3x the "
                            "workload's baseline runtime)")
    serve.add_argument("--report-every", type=float, default=1.0,
                       help="sim seconds between serve.report emissions "
                            "(default 1)")
    serve.add_argument("--pace", type=float, default=0.0,
                       help="wall seconds per sim second (0 = flat out; "
                            "1.0 = real time); sim results are identical "
                            "at any pace")
    serve.add_argument("--characterize", action="store_true",
                       help="run real sampling campaigns before serving "
                            "instead of bootstrapping profiles from "
                            "catalog capacity")
    serve.add_argument("--polls", type=int, default=2,
                       help="profiling polls per zone refresh (default 2)")
    _add_shared(serve, "--serve", "--record", "--json")

    chaos = commands.add_parser(
        "chaos", help="run a routed workload under a scripted fault "
                      "schedule: resilient vs. naive routing")
    chaos.add_argument("--preset", default="brownout",
                       choices=PRESET_NAMES,
                       help="fault scenario to inject (default brownout)")
    _add_shared(chaos, "--workload", "--zones")
    chaos.add_argument("--requests", type=int, default=400)
    chaos.add_argument("--interval", type=float, default=1.0,
                       help="sim seconds between requests (default 1.0)")
    chaos.add_argument("--fault-start", type=float, default=60.0)
    chaos.add_argument("--fault-duration", type=float, default=240.0)
    chaos.add_argument("--assert-availability", type=float, default=None,
                       metavar="FLOOR",
                       help="exit non-zero if resilient availability "
                            "falls below FLOOR (e.g. 0.99)")
    _add_shared(chaos, "--json", "--prom", "--jsonl", "--record")
    return parser


def cmd_catalog(args, out):
    for name in catalog_region_names(args.provider):
        # Region provider is implied by which spec table holds it.
        out.write("{}\n".format(name))
    return 0


def cmd_workloads(args, out):
    if getattr(args, "run", False):
        from repro.workloads.suite import WorkloadSuite
        suite = WorkloadSuite(scale=args.scale,
                              repetitions=args.repetitions,
                              seed=args.seed)
        report = suite.run()
        out.write("{:<24} {:>5} {:>6} {:>12} {:>12}\n".format(
            "name", "vCPUs", "runs", "mean (s)", "stdev (s)"))
        for row in report.rows:
            out.write("{:<24} {:>5} {:>6} {:>12.4f} {:>12.4f}\n".format(
                row.name, row.vcpus, row.runs, row.mean_seconds,
                row.stdev_seconds))
        out.write("total wall time: {:.2f}s at scale {}\n".format(
            report.total_seconds(), report.scale))
        return 0
    out.write("{:<24} {:>5}  {}\n".format("name", "vCPUs", "description"))
    for workload in all_workloads():
        out.write("{:<24} {:>5}  {}\n".format(
            workload.name, workload.vcpus, workload.description))
    return 0


def _zone_list(text):
    """Split a comma-separated zone list, failing fast on an unknown
    zone."""
    zones = [z.strip() for z in text.split(",") if z.strip()]
    for zone_id in zones:
        zone_spec(zone_id)
    return zones


def _workload_list(text):
    """Split a comma-separated workload list, failing fast on an unknown
    workload."""
    names = [w.strip() for w in text.split(",") if w.strip()]
    for name in names:
        workload_by_name(name)
    return names


def _run_seeds(args, axis, values, namespace):
    """The seeds of one run per value: one value runs on the root seed
    itself; several get spawn-keyed :class:`Grid` cells, so the output is
    byte-identical at any ``--workers`` setting.  Returns ``(seeds,
    grid_hash)``, the hash ``None`` for one value."""
    if len(values) == 1:
        return [args.seed], None
    grid = Grid([(axis, values)], root_seed=args.seed, namespace=namespace)
    return [cell.seed for cell in grid.cells()], grid.content_hash()


@contextlib.contextmanager
def _flight_record(args, out, kind, config, obs=None, guard=False):
    """``--record DIR``: a run manifest around the body of one command.

    The manifest is begun before the body runs.  The body fills the
    yielded dict: ``summary``, ``grid_hash`` when it has one, and
    ``obs`` when the facade is only made inside the body.  A body that
    raises finalizes the manifest ``status="failed"``; one that returns
    finalizes it and prints ``recorded DIR``.  ``guard`` stamps a
    Ctrl-C'd or SIGTERM'd run "interrupted" (a SIGKILL leaves
    "running").  Without ``--record`` the body just runs.
    """
    run = {"obs": obs, "summary": None, "grid_hash": None}
    if not args.record:
        yield run
        return
    from repro.obs.manifest import RunManifest
    record = RunManifest.begin(args.record, kind, seed=args.seed,
                               config=config)
    if guard:
        record.install_guard()
    try:
        yield run
    except BaseException:
        record.finalize(obs=run["obs"], status="failed")
        raise
    if run["grid_hash"] is not None:
        record.update(grid_hash=run["grid_hash"])
    record.finalize(obs=run["obs"], summary=run["summary"])
    out.write("recorded {}\n".format(record.directory))


@contextlib.contextmanager
def _live_endpoint(obs, port, out, banner):
    """Serve ``obs`` on /metrics, /healthz and /runs while the body runs
    (no-op when ``port`` is None); ``banner`` announces the URL."""
    if port is None:
        yield
        return
    from repro.obs.serve import ObsServer
    with ObsServer(obs, port=port) as server:
        out.write("{} {} (/metrics /healthz /runs)\n".format(
            banner, server.url("/")))
        out.flush()
        yield


def _write_artifacts(args, out, payload=None, obs=None):
    """Write ``--json`` (``payload``), then ``--prom`` and ``--jsonl``
    (from ``obs``), each followed by its ``wrote PATH`` line."""
    json_path = getattr(args, "json_path", None)
    if json_path:
        reporting.write_json(json_path, payload)
        out.write("wrote {}\n".format(json_path))
    prom_path = getattr(args, "prom_path", None)
    jsonl_path = getattr(args, "jsonl_path", None)
    if prom_path or jsonl_path:
        from repro.obs import export as obs_export
    if prom_path:
        with open(prom_path, "w") as handle:
            handle.write(obs_export.prometheus_text(obs.registry))
        out.write("wrote {}\n".format(prom_path))
    if jsonl_path:
        obs_export.write_events_jsonl(jsonl_path, obs.recorder.events())
        out.write("wrote {}\n".format(jsonl_path))


def _write_campaign_block(out, zone_id, result):
    profile = result.ground_truth()
    out.write("zone {} ({} drift class)\n".format(
        zone_id, zone_spec(zone_id).drift))
    out.write("observed {} FIs over {} polls, cost {}\n".format(
        result.total_fis, result.polls_run, result.total_cost))
    for cpu in profile.cpu_keys():
        out.write("  {:<18} {:6.1%}\n".format(cpu, profile.share(cpu)))


def cmd_characterize(args, out):
    zones = _zone_list(args.zone)
    observability = Observability() if args.record else None
    count = max(args.polls, 1) if args.polls else 100
    max_polls = args.polls if args.polls else None
    config = {"zones": args.zone, "polls": args.polls,
              "workers": args.workers}
    with _flight_record(args, out, "characterize", config,
                        obs=observability) as run:
        seeds, run["grid_hash"] = _run_seeds(args, "zone", zones,
                                             "characterize")
        tasks = [CampaignTask(CloudSpec.for_zones([zone_id], seed=seed),
                              zone_id, endpoints=count, max_polls=max_polls)
                 for zone_id, seed in zip(zones, seeds)]
        # A recording ships each cell's cloud events home.
        results = SweepEngine(workers=args.workers, obs=observability,
                              telemetry=observability is not None).run(tasks)
        for zone_id, result in zip(zones, results):
            _write_campaign_block(out, zone_id, result)
        payloads = [reporting.campaign_to_dict(r) for r in results]
        _write_artifacts(args, out,
                         payloads[0] if len(payloads) == 1 else payloads)
        run["summary"] = {"zones": len(zones)}
        if len(zones) == 1:
            run["summary"]["polls_run"] = results[0].polls_run
    return 0


def cmd_profile(args, out):
    cloud = CloudSpec.for_zones([args.zone], seed=args.seed).build()
    account = cloud.create_account("cli", "aws")
    workload = workload_by_name(args.workload)
    deployment = cloud.deploy(
        account, args.zone, "dynamic", 2048,
        handler=UniversalDynamicFunctionHandler(resolve_runtime_model))
    runner = WorkloadRunner(cloud)
    profile = runner.profile_workload(deployment, workload,
                                      args.repetitions)
    normalized = profile.normalized_to("xeon-2.5") \
        if "xeon-2.5" in profile.cpu_keys() else None
    out.write("{} in {} ({} repetitions)\n".format(
        workload.name, args.zone, args.repetitions))
    out.write("{:<12} {:>8} {:>12} {:>12}\n".format(
        "cpu", "count", "mean (s)", "vs 2.5GHz"))
    for cpu in profile.cpu_keys():
        ratio = ("{:.3f}".format(normalized[cpu])
                 if normalized else "-")
        out.write("{:<12} {:>8} {:>12.3f} {:>12}\n".format(
            cpu, profile.count(cpu), profile.mean_runtime(cpu), ratio))
    return 0


def cmd_advise(args, out):
    from repro.core import CharacterizationStore
    from repro.core.memory_advisor import MemoryAdvisor
    cloud = CloudSpec.for_zones([args.zone], seed=args.seed).build()
    account = cloud.create_account("cli", "aws")
    mesh = SkyMesh(cloud)
    endpoints = mesh.deploy_sampling_endpoints(account, args.zone,
                                               count=max(args.polls, 1))
    campaign = SamplingCampaign(cloud, endpoints, max_polls=args.polls)
    store = CharacterizationStore()
    store.put(campaign.run().ground_truth())
    workload = workload_by_name(args.workload)
    recommendation = MemoryAdvisor(cloud, store).recommend(workload,
                                                           args.zone)
    out.write("{} in {} (profile from {} polls)\n".format(
        workload.name, args.zone, args.polls))
    out.write("{:>9} {:>12} {:>14}\n".format("memory", "runtime (s)",
                                             "cost ($/inv)"))
    for row in recommendation.to_rows():
        out.write("{:>7}MB {:>12.3f} {:>14.8f}\n".format(
            row["memory_mb"], row["runtime_s"], row["cost_usd"]))
    out.write("cheapest: {}MB  fastest: {}MB  balanced: {}MB\n".format(
        recommendation.cheapest, recommendation.fastest,
        recommendation.balanced))
    out.write("recommended ({}): {}MB\n".format(
        args.objective, recommendation.pick(args.objective)))
    return 0


def _write_savings(out, result):
    """One line per policy: its savings against the baseline."""
    for name, summary in sorted(result.savings_summary().items()):
        out.write("  {:<22} cumulative {:6.1f}%  best day {:6.1f}%\n"
                  .format(name, summary["cumulative_pct"],
                          summary["max_daily_pct"]))


def _write_study_block(out, workload_name, args, result):
    out.write("{} over {} days, burst {} (baseline {})\n".format(
        workload_name, args.days, args.burst, args.baseline_zone))
    _write_savings(out, result)
    out.write("sampling spend: {}\n".format(result.sampling_cost))


def cmd_study(args, out):
    zones = _zone_list(args.zones)
    workloads = _workload_list(args.workload)
    seeds, _ = _run_seeds(args, "workload", workloads, "study")
    tasks = [StudyTask(
        CloudSpec.for_zones(zones, seed=seed), workload_name, zones,
        baseline_zone=args.baseline_zone, days=args.days,
        burst_size=args.burst, polls_per_day=6)
        for workload_name, seed in zip(workloads, seeds)]
    results = SweepEngine(workers=args.workers).run(tasks)
    for workload_name, result in zip(workloads, results):
        _write_study_block(out, workload_name, args, result)
    payloads = [reporting.study_result_to_dict(r) for r in results]
    _write_artifacts(args, out,
                     payloads[0] if len(payloads) == 1 else payloads)
    if args.csv_path:
        rows = []
        for result in results:
            rows.extend(reporting.study_to_rows(result))
        reporting.write_csv(args.csv_path, rows)
        out.write("wrote {}\n".format(args.csv_path))
    return 0


def _obs_controller(args):
    """Build the routed-burst fixture the obs modes share."""
    zones = _zone_list(args.zones)
    cloud = CloudSpec.for_zones(zones, seed=args.seed).build()
    account = cloud.create_account("cli", "aws")
    observability = Observability()
    controller = SkyController(
        cloud, account, zones, polls_per_refresh=args.polls,
        poll_requests=args.poll_requests,
        sampling_count=max(args.polls, 2), obs=observability)
    workload = workload_by_name(args.workload)
    return observability, controller, workload, zones


def _obs_record(args, out, kind, observability):
    """The flight recorder around one obs-mode run."""
    return _flight_record(args, out, kind,
                          {"workload": args.workload, "zones": args.zones,
                           "requests": args.requests}, obs=observability)


def cmd_obs(args, out):
    if args.mode == "serve":
        return _obs_serve(args, out)
    if args.mode == "tail":
        return _obs_tail(args, out)
    return _obs_demo(args, out)


def _obs_serve(args, out):
    """Run routed bursts while serving live /metrics, /healthz, /runs."""
    import time as time_module

    observability, controller, workload, _ = _obs_controller(args)
    rounds = max(args.rounds, 1)
    with _live_endpoint(observability, args.port, out, "obs: serving"), \
            _obs_record(args, out, "obs-serve", observability) as run:
        for round_index in range(rounds):
            for _ in range(args.requests):
                controller.submit(workload)
            out.write("round {}/{}: {} events, {} metrics, {} traces\n"
                      .format(round_index + 1, rounds,
                              len(observability.recorder),
                              len(observability.registry),
                              len(observability.tracer)))
            if round_index + 1 < args.rounds and args.interval > 0:
                time_module.sleep(args.interval)
        run["summary"] = {"rounds": rounds,
                          "requests_per_round": args.requests}
    return 0


def _obs_tail(args, out):
    """Scrape a live /metrics endpoint and render sweep progress."""
    import time as time_module

    from repro.obs.export import parse_prometheus_text
    from repro.obs.serve import render_tail, scrape
    if not args.connect:
        out.write("obs tail: --connect HOST:PORT (or a /metrics URL) is "
                  "required\n")
        return 2
    url = args.connect
    if "://" not in url:
        url = "http://" + url
    if not url.rstrip("/").endswith("/metrics"):
        url = url.rstrip("/") + "/metrics"
    for round_index in range(max(args.rounds, 1)):
        try:
            body = scrape(url)
        except OSError as error:
            out.write("obs tail: scrape of {} failed: {}\n".format(
                url, error))
            return 1
        out.write(render_tail(parse_prometheus_text(body)) + "\n")
        if round_index + 1 < args.rounds and args.interval > 0:
            time_module.sleep(args.interval)
    return 0


def _obs_demo(args, out):
    observability, controller, workload, zones = _obs_controller(args)
    with _obs_record(args, out, "obs-demo", observability) as run:
        _run_obs_demo(args, out, observability, controller, workload,
                      zones)
        run["summary"] = {"requests": args.requests}
    return 0


def _run_obs_demo(args, out, observability, controller, workload, zones):
    from repro.obs import export as obs_export
    from repro.obs.trace import format_trace
    for _ in range(args.requests):
        controller.submit(workload)

    telemetry = controller.telemetry
    out.write("routed {} x {} over {} zones (policy {})\n".format(
        args.requests, workload.name, len(zones), controller.policy.name))
    out.write("\nper-zone latency/cost:\n")
    header = "{:<14} {:>8} {:>8} {:>12} {:>9} {:>9} {:>9} {:>9}\n"
    row = "{:<14} {:>8} {:>8} {:>12.6f} {:>9.3f} {:>9.3f} {:>9.3f} {:>9.3f}\n"
    out.write(header.format("zone", "requests", "retries", "cost ($)",
                            "mean (s)", "p50 (s)", "p95 (s)", "p99 (s)"))
    for zone, stats in sorted(telemetry.by_zone().items()):
        out.write(row.format(zone, stats["requests"], stats["retries"],
                             stats["cost_usd"], stats["mean_latency_s"],
                             stats["p50_latency_s"], stats["p95_latency_s"],
                             stats["p99_latency_s"]))
    out.write("\nper-cpu latency/cost:\n")
    out.write(header.format("cpu", "requests", "retries", "cost ($)",
                            "mean (s)", "p50 (s)", "p95 (s)", "p99 (s)"))
    for cpu, stats in sorted(telemetry.by_cpu().items()):
        out.write(row.format(cpu, stats["requests"], stats["retries"],
                             stats["cost_usd"], stats["mean_latency_s"],
                             stats["p50_latency_s"], stats["p95_latency_s"],
                             stats["p99_latency_s"]))

    recorder = observability.recorder
    out.write("\ncloudsim events:\n")
    out.write("  placements: {}  saturation: {}  scale-ups: {}\n".format(
        recorder.count("az.placement"), recorder.count("az.saturation"),
        recorder.count("az.scale")))
    out.write("  slot churn: {} allocations, {} reuses, {} expiries\n"
              .format(recorder.count("host.allocate"),
                      recorder.count("host.reuse"),
                      recorder.count("host.expire")))
    out.write("  sampling polls: {}  profile refreshes: {}\n".format(
        recorder.count("sampling.poll"),
        recorder.count("controller.refresh")))
    out.write("  invocations: {}  retries: {}  holds: {}\n".format(
        recorder.count("cloud.invoke"), recorder.count("retry.attempt"),
        recorder.count("retry.hold")))
    out.write("sampling spend: {}\n".format(controller.sampling_cost))

    trace = observability.tracer.last_trace()
    if trace is not None:
        out.write("\nlast request trace:\n")
        out.write(format_trace(trace) + "\n")

    _write_artifacts(args, out, obs=observability)
    if args.csv_path:
        reporting.write_csv(args.csv_path,
                            obs_export.metrics_to_rows(
                                observability.registry))
        out.write("wrote {}\n".format(args.csv_path))


def cmd_serve(args, out):
    import signal

    from repro.sampling.characterization import CharacterizationBuilder
    from repro.serve import GatewayConfig, ServeGateway, build_arrivals

    zones = _zone_list(args.zones)
    providers = {provider_name_of_zone(z) for z in zones}
    if len(providers) != 1:
        out.write("serve: all zones must share one provider "
                  "(got {})\n".format(", ".join(sorted(providers))))
        return 2
    (provider_name,) = providers
    workload = workload_by_name(args.workload)
    cloud = CloudSpec.for_zones(zones, seed=args.seed).build()
    observability = Observability()
    account = cloud.create_account("serve", provider_name)
    controller = SkyController(
        cloud, account, zones, obs=observability,
        polls_per_refresh=max(args.polls, 1),
        sampling_count=max(args.polls, 2))
    if args.characterize:
        controller.refresh_due_zones(force=True)
    else:
        # Bootstrap characterizations from catalog capacity so serving
        # starts immediately; the live re-characterization loop replaces
        # these with sampled profiles as staleness/error signals fire.
        for zone_id in zones:
            builder = CharacterizationBuilder(zone_id)
            builder.add_poll(
                {key: pool.capacity
                 for key, pool in cloud.zone(zone_id).pools.items()
                 if pool.capacity > 0})
            controller.store.put(builder.snapshot())
    arrivals = build_arrivals(args.profile, args.rps, seed=args.seed,
                              peak_rps=args.peak_rps,
                              period_s=args.period)
    config = GatewayConfig(
        batch_size=args.batch_size,
        flush_deadline_s=args.flush_ms / 1000.0,
        batch_floor=args.batch_floor,
        rate_limit_rps=args.rate_limit,
        burst=args.burst,
        max_queue_depth=args.max_queue,
        slo_s=args.slo_ms / 1000.0 if args.slo_ms else None,
        report_every_s=args.report_every,
        wall_pace=args.pace)
    gateway = ServeGateway(controller, workload, arrivals, config,
                           obs=observability)

    # SIGTERM/SIGINT = graceful drain: buffered batches flush, the report
    # and manifest finalize, exit 0 — the sweep-worker lifecycle contract
    # applied to the serving plane.
    def _drain_handler(signum, frame):
        gateway.request_drain()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(signum, _drain_handler)
        except (ValueError, OSError):
            pass  # not the main thread; drain stays manual

    config = {"workload": args.workload, "zones": args.zones,
              "profile": args.profile, "rps": args.rps,
              "duration": args.duration, "batch_size": args.batch_size}
    with _flight_record(args, out, "serve", config,
                        obs=observability) as run:
        with _live_endpoint(observability, args.serve_port, out,
                            "serve: metrics on"):
            out.write("serve: {} on {} ({} arrivals at {:g} rps, {} "
                      "sim-s)\n".format(workload.name, ",".join(zones),
                                         args.profile, args.rps,
                                         args.duration))
            out.flush()
            report = gateway.run_sync(args.duration)
        run["summary"] = _write_serve_report(args, out, report)
    return 0


def _write_serve_report(args, out, report):
    """Print the gateway report, write ``--json``; returns its dict."""
    summary = report.to_dict()
    out.write("served {} of {} offered ({} shed, {} failed) over "
              "{:.1f} sim-s\n".format(
                  report.served, report.offered, report.shed,
                  report.failed, report.sim_seconds))
    out.write("goodput {:.1f} rps, shed rate {:.2%}, SLO attainment "
              "{:.2%} (SLO {:.0f} ms)\n".format(
                  report.goodput_rps, report.shed_rate,
                  report.slo_attainment, report.slo_s * 1000.0))
    out.write("latency p50 {:.1f} ms  p95 {:.1f} ms  p99 {:.1f} ms\n"
              .format(summary["p50_ms"], summary["p95_ms"],
                      summary["p99_ms"]))
    out.write("batches: {} coalesced, {} scalar; {} re-characterizations; "
              "drained {}\n".format(
                  report.batches_coalesced, report.batches_scalar,
                  report.recharacterizations, report.drained))
    out.write("serving cost: ${:.6f}\n".format(report.cost_usd))
    _write_artifacts(args, out, summary)
    return summary


def cmd_chaos(args, out):
    from repro.faults.harness import ChaosExperiment

    zones = _zone_list(args.zones)
    config = {"zones": args.zones, "workload": args.workload,
              "requests": args.requests}
    with _flight_record(args, out, "chaos-" + args.preset, config) as run:
        experiment = ChaosExperiment(zones=zones, workload=args.workload,
                                     seed=args.seed,
                                     requests=args.requests,
                                     interval_s=args.interval)
        resilient, naive = experiment.run_preset(
            args.preset, start=args.fault_start,
            duration=args.fault_duration)
        run["obs"] = resilient.obs
        _write_chaos_report(args, out, zones, resilient, naive)
        run["summary"] = {"availability": resilient.availability,
                          "faults": sum(resilient.fault_counts.values())}

    if args.assert_availability is not None:
        floor = args.assert_availability
        if resilient.availability < floor:
            out.write("FAIL: resilient availability {:.2%} below the "
                      "{:.2%} floor\n".format(resilient.availability,
                                              floor))
            return 1
        out.write("OK: resilient availability {:.2%} >= {:.2%} floor "
                  "(naive: {:.2%})\n".format(resilient.availability, floor,
                                             naive.availability))
    return 0


def _write_chaos_report(args, out, zones, resilient, naive):
    out.write("chaos preset {!r} on {} ({} requests @ {}s)\n".format(
        args.preset, ",".join(zones), args.requests, args.interval))
    out.write("faults injected: {}\n".format(
        sum(resilient.fault_counts.values())))
    row = "{:<12} {:>13} {:>9} {:>9} {:>8} {:>8} {:>7} {:>10}\n"
    out.write(row.format("run", "availability", "p50 (s)", "p99 (s)",
                         "retries", "hedges", "f/overs", "backoff"))
    for report in (resilient, naive):
        out.write(row.format(
            report.label,
            "{:.2%}".format(report.availability),
            "{:.3f}".format(report.latency_percentile(0.50)),
            "{:.3f}".format(report.latency_percentile(0.99)),
            report.retries, report.hedges, report.failovers,
            "{:.2f}s".format(report.backoff_s)))

    if resilient.breaker_transitions:
        out.write("\nbreaker transitions:\n")
        for zone, when, old, new in resilient.breaker_transitions:
            out.write("  t={:>7.1f}s  {:<14} {} -> {}\n".format(
                when, zone, old, new))

    _write_artifacts(args, out, {"preset": args.preset,
                                 "resilient": resilient.to_dict(),
                                 "naive": naive.to_dict()},
                     obs=resilient.obs)


def _sweep_engine(args):
    """Build the engine (and optional stderr progress) for a sweep.

    An observability facade is attached whenever anything will consume
    it — progress printing, telemetry merging, the live endpoint, or
    the flight recorder.
    """
    from repro.engine import SweepProgress
    obs = None
    if (args.progress or args.telemetry or args.record
            or args.serve_port is not None):
        observability = Observability()
        on_cell = None
        if args.progress:
            def on_cell(done, total):
                sys.stderr.write("sweep: cell {}/{} done\n".format(done,
                                                                   total))

        SweepProgress(observability.bus, on_cell=on_cell)
        obs = observability
    remote_workers = None
    if args.backend == "remote":
        # Default to spawning --workers loopback processes; 0 means
        # "serve whoever connects" (external sweep-worker peers).
        remote_workers = (args.workers if args.remote_workers is None
                          else args.remote_workers)
    return SweepEngine(workers=args.workers, chunk_size=args.chunk,
                       obs=obs, backend=args.backend, bind=args.bind,
                       remote_workers=remote_workers,
                       join_timeout_s=args.join_timeout,
                       telemetry=args.telemetry,
                       auth_token=_sweep_token(args),
                       journal=args.record, resume=args.resume,
                       worker_log_dir=args.worker_log_dir)


def _sweep_token(args):
    """The shared sweep secret: --auth-token, else $REPRO_SWEEP_TOKEN."""
    from repro.engine.remote import TOKEN_ENV
    return args.auth_token or os.environ.get(TOKEN_ENV) or None


def cmd_sweep_worker(args, out):
    import signal
    import threading

    from repro.common.errors import TransportError
    from repro.engine.protocol import parse_address
    from repro.engine.remote import SweepWorker
    host, port = parse_address(args.connect)
    worker = SweepWorker(host, port, worker_id=args.worker_id,
                         heartbeat_s=args.heartbeat,
                         max_reconnects=args.max_reconnects,
                         token=_sweep_token(args), spool=args.spool)
    # SIGTERM = graceful drain: finish the chunk in hand, send a leave
    # frame, exit 0.  Elastic fleets (autoscalers, spot reclaims with
    # notice) shrink without burning the coordinator's requeue budget.
    drain = threading.Event()
    try:
        signal.signal(signal.SIGTERM,
                      lambda signum, frame: drain.set())
    except (ValueError, OSError):
        pass  # not the main thread; drain stays manual
    try:
        chunks = worker.run(drain=drain)
    except TransportError as error:
        out.write("sweep-worker: {}\n".format(error))
        return 1
    if drain.is_set():
        out.write("sweep-worker: drained ({} chunk(s) "
                  "served)\n".format(chunks))
    else:
        out.write("sweep-worker: done ({} chunk(s) "
                  "served)\n".format(chunks))
    return 0


def cmd_sweep(args, out):
    if args.resume and not args.record:
        # Resuming a recorded run continues recording into the same
        # directory (fresh manifest attempt, same chunk journal).
        args.record = args.resume
    engine = _sweep_engine(args)
    config = {"zones": args.zones, "seeds": args.seeds,
              "workers": args.workers, "backend": args.backend}
    # However the run ends, the chunk journal makes it resumable with
    # --resume.
    with _flight_record(args, out, "sweep-" + args.kind, config,
                        obs=engine.obs, guard=True) as run:
        with _live_endpoint(engine.obs, args.serve_port, out,
                            "obs: serving"):
            grid, json_cells = _dispatch_sweep(args, out, engine)
        run["grid_hash"] = grid.content_hash()
        run["summary"] = {"kind": args.kind, "cells": len(json_cells)}
    return 0


def _dispatch_sweep(args, out, engine):
    """Run the :data:`SWEEP_KINDS` row ``args.kind`` names over its axis
    x ``--seeds`` grid; returns ``(grid, json_cells)``."""
    kind = SWEEP_KINDS[args.kind]
    values = kind.values(args)
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    grid = Grid([(kind.axis, values), ("seed", seeds)],
                root_seed=args.seed, namespace="sweep-" + args.kind)
    cells = list(grid.cells())
    tasks = [kind.task(args, dict(cell.key)[kind.axis], cell.seed)
             for cell in cells]
    results = engine.run(tasks, grid_hash=grid.content_hash())
    out.write(kind.header(args, "{} cells ({} {}s x {} seeds)".format(
        len(grid), len(values), kind.axis, len(seeds))))
    json_cells = []
    for cell, result in zip(cells, results):
        key = dict(cell.key)
        kind.write_cell(out, args, key, result)
        json_cells.append(dict(key, cell_seed=cell.seed,
                               **kind.payload(args, result)))
    _write_artifacts(args, out, {"kind": args.kind, "root_seed": args.seed,
                                 "cells": json_cells})
    return grid, json_cells


def _zone_campaign(task_type):
    """The task factory for a one-zone campaign cell of ``task_type``."""
    def task(args, zone_id, seed):
        return task_type(CloudSpec.for_zones([zone_id], seed=seed), zone_id,
                         endpoints=args.endpoints, n_requests=args.requests,
                         max_polls=args.polls or None)
    return task


def _write_campaign_cell(out, args, key, result):
    out.write("{:<16} {:>6} {:>6} {:>6} {:>9} {:>10} {:>12.6f}  {}\n".format(
        key["zone"], key["seed"], result.polls_run, result.total_fis,
        result.total_requests, "yes" if result.saturated else "no",
        float(result.total_cost), result.ground_truth().dominant_cpu()))


def _budgets(args):
    return [int(b) for b in args.budgets.split(",") if b.strip()]


def _progressive_header(args, shape):
    header = "{:<16} {:>6} {:>6}".format("zone", "seed", "polls")
    header += "".join(" {:>9}".format("ape@{}".format(b))
                      for b in _budgets(args))
    return "progressive sweep: {}\n{} {:>9}\n".format(shape, header,
                                                     "to-95%")


def _write_progressive_cell(out, args, key, analysis):
    campaign = analysis.campaign
    row = "{:<16} {:>6} {:>6}".format(key["zone"], key["seed"],
                                      campaign.polls_run)
    for budget in _budgets(args):
        try:
            ape = analysis.ape_after(min(budget, campaign.polls_run))
            row += " {:>9.3f}".format(ape)
        except CharacterizationError:
            row += " {:>9}".format("-")
    polls_to = analysis.polls_to_accuracy(95.0)
    out.write(row + " {:>9}\n".format(polls_to if polls_to is not None
                                      else "-"))


def _progressive_payload(args, analysis):
    return {"ape_curve": [[polls, fis, round(ape, 6)]
                          for polls, fis, ape in analysis.ape_curve()],
            "polls_to_95": analysis.polls_to_accuracy(95.0),
            "campaign": reporting.campaign_to_dict(analysis.campaign)}


def _temporal_task(args, zone_id, seed):
    return TemporalTask(CloudSpec.for_zones([zone_id], seed=seed), zone_id,
                        mode=args.temporal_mode, periods=args.periods,
                        polls_per_period=args.polls,
                        endpoints=args.endpoints, n_requests=args.requests)


def _write_temporal_cell(out, args, key, series):
    out.write("[{} seed={}]\n".format(key["zone"], key["seed"]))
    if args.temporal_mode == "daily":
        out.write("  {:>4} {:>6} {:>6} {:>10} {:>12}  {}\n".format(
            "day", "polls", "FIs", "saturated", "cost ($)", "dominant cpu"))
        for day, result in enumerate(series, start=1):
            out.write("  {:>4} {:>6} {:>6} {:>10} {:>12.6f}  {}\n".format(
                day, result.polls_run, result.total_fis,
                "yes" if result.saturated else "no",
                float(result.total_cost),
                result.ground_truth().dominant_cpu()))
    else:
        out.write("  {:>4} {:>8} {:>6}  {}\n".format(
            "hour", "samples", "polls", "dominant cpu"))
        for hour, profile in enumerate(series):
            out.write("  {:>4} {:>8} {:>6}  {}\n".format(
                hour, profile.samples, profile.polls,
                profile.dominant_cpu()))


def _temporal_payload(args, series):
    to_dict = (reporting.campaign_to_dict if args.temporal_mode == "daily"
               else reporting.characterization_to_dict)
    return {"mode": args.temporal_mode,
            "series": [to_dict(period) for period in series]}


def _study_task(args, workload_name, seed):
    zones = _zone_list(args.zones)
    return StudyTask(CloudSpec.for_zones(zones, seed=seed), workload_name,
                     zones, baseline_zone=args.baseline_zone,
                     days=args.days, burst_size=args.burst)


def _write_study_cell(out, args, key, result):
    out.write("[{} seed={}]\n".format(key["workload"], key["seed"]))
    _write_savings(out, result)
    out.write("  sampling spend: {}\n".format(result.sampling_cost))


#: One ``repro sweep`` kind: the grid axis it varies next to ``--seeds``
#: (``values(args)`` lists its values), ``task(args, axis_value,
#: cell_seed)`` builds a cell's task, ``header(args, shape)`` is the text
#: above the cells (``shape`` reads "N cells (Z zones x S seeds)"),
#: ``write_cell(out, args, key, result)`` writes one cell's text and
#: ``payload(args, result)`` its JSON fields after ``{axis, "seed",
#: "cell_seed"}``.
SweepKind = namedtuple("SweepKind",
                       "axis values task header write_cell payload")

SWEEP_KINDS = {
    "campaign": SweepKind(
        "zone", lambda args: _zone_list(args.zones),
        _zone_campaign(CampaignTask),
        lambda args, shape: "campaign sweep: {}\n{}".format(
            shape, "{:<16} {:>6} {:>6} {:>6} {:>9} {:>10} {:>12}  {}\n"
            .format("zone", "seed", "polls", "FIs", "requests", "saturated",
                    "cost ($)", "dominant cpu")),
        _write_campaign_cell,
        lambda args, result: reporting.campaign_to_dict(result)),
    "progressive": SweepKind(
        "zone", lambda args: _zone_list(args.zones),
        _zone_campaign(ProgressiveTask), _progressive_header,
        _write_progressive_cell, _progressive_payload),
    "study": SweepKind(
        "workload", lambda args: _workload_list(args.workloads),
        _study_task,
        lambda args, shape: "study sweep: {}, {} days, burst {}\n".format(
            shape, args.days, args.burst),
        _write_study_cell,
        lambda args, result: reporting.study_result_to_dict(result)),
    "temporal": SweepKind(
        "zone", lambda args: _zone_list(args.zones), _temporal_task,
        lambda args, shape: "temporal sweep ({}): {}, {} periods\n".format(
            args.temporal_mode, shape, args.periods),
        _write_temporal_cell, _temporal_payload),
}


_COMMANDS = {
    "catalog": cmd_catalog,
    "workloads": cmd_workloads,
    "characterize": cmd_characterize,
    "profile": cmd_profile,
    "advise": cmd_advise,
    "study": cmd_study,
    "sweep": cmd_sweep,
    "sweep-worker": cmd_sweep_worker,
    "obs": cmd_obs,
    "serve": cmd_serve,
    "chaos": cmd_chaos,
}


def main(argv=None, out=None):
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args, out)


if __name__ == "__main__":
    sys.exit(main())
