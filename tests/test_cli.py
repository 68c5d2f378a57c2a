"""The command-line interface."""

import io
import json

import pytest

from repro import cli
from repro.common.errors import ConfigurationError


def run_cli(*argv):
    out = io.StringIO()
    code = cli.main(list(argv), out=out)
    return code, out.getvalue()


class TestCatalog(object):
    def test_lists_41_regions(self):
        code, output = run_cli("catalog")
        assert code == 0
        assert len(output.strip().splitlines()) == 41

    def test_provider_filter(self):
        code, output = run_cli("catalog", "--provider", "ibm")
        assert code == 0
        lines = output.strip().splitlines()
        assert len(lines) == 4
        assert "eu-de" in lines


class TestSharedFlags(object):
    def test_serve_port_has_one_dest(self):
        parser = cli.build_parser()
        for argv in (["serve", "--serve", "0"],
                     ["sweep", "campaign", "--serve", "0"]):
            assert parser.parse_args(argv).serve_port == 0


class TestWorkloads(object):
    def test_lists_twelve(self):
        code, output = run_cli("workloads")
        assert code == 0
        assert "zipper" in output
        assert "logistic_regression" in output
        # Header plus twelve rows.
        assert len(output.strip().splitlines()) == 13


class TestWorkloadsRun(object):
    def test_executes_suite(self):
        code, output = run_cli("workloads", "--run", "--scale", "0.05",
                               "--repetitions", "1")
        assert code == 0
        assert "mean (s)" in output
        assert "total wall time" in output
        # Twelve data rows between header and the total line.
        assert len(output.strip().splitlines()) == 14


class TestCharacterize(object):
    def test_prints_shares(self):
        code, output = run_cli("--seed", "3", "characterize",
                               "us-east-2a", "--polls", "2")
        assert code == 0
        assert "xeon-2.5" in output
        assert "100.0%" in output

    def test_json_export(self, tmp_path):
        path = tmp_path / "zone.json"
        code, output = run_cli("characterize", "us-east-2a", "--polls",
                               "2", "--json", str(path))
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["zone"] == "us-east-2a"
        assert payload["trace"]

    def test_unknown_zone_fails_fast(self):
        with pytest.raises(Exception):
            run_cli("characterize", "atlantis-1a")

    def test_negative_polls_rejected(self):
        with pytest.raises(ConfigurationError, match="max_polls"):
            run_cli("characterize", "us-west-1b", "--polls", "-1")


class TestProfile(object):
    def test_profile_table(self):
        code, output = run_cli("--seed", "5", "profile", "zipper",
                               "--repetitions", "400")
        assert code == 0
        assert "vs 2.5GHz" in output
        assert "xeon-3.0" in output


class TestAdvise(object):
    def test_prints_ladder_and_recommendation(self):
        code, output = run_cli("--seed", "7", "advise", "sha1_hash",
                               "--zone", "us-east-2a", "--polls", "2")
        assert code == 0
        assert "cheapest" in output
        assert "recommended (balanced)" in output
        # Header + 9 ladder rungs + 2 summary lines + title.
        assert "10240MB" in output

    def test_objective_flag(self):
        code, output = run_cli("--seed", "7", "advise", "sha1_hash",
                               "--zone", "us-east-2a", "--polls", "2",
                               "--objective", "fastest")
        assert code == 0
        assert "recommended (fastest)" in output

    def test_zero_polls_rejected(self):
        with pytest.raises(ConfigurationError, match="max_polls"):
            run_cli("advise", "sha1_hash", "--polls", "0")


class TestStudy(object):
    def test_study_summary_and_exports(self, tmp_path):
        json_path = tmp_path / "study.json"
        csv_path = tmp_path / "study.csv"
        code, output = run_cli(
            "--seed", "5", "study", "zipper", "--days", "2", "--burst",
            "200", "--json", str(json_path), "--csv", str(csv_path))
        assert code == 0
        assert "hybrid_focus_fastest" in output
        payload = json.loads(json_path.read_text())
        assert payload["workload"] == "zipper"
        assert len(payload["daily_costs_usd"]["baseline"]) == 2
        assert "savings_vs_baseline" in payload
        lines = csv_path.read_text().strip().splitlines()
        # header + 4 policies x 2 days
        assert len(lines) == 1 + 4 * 2

    def test_baseline_outside_candidates_rejected(self):
        # The default --baseline-zone us-west-1b is not among these
        # candidates: the study fails before any cell runs, naming both.
        with pytest.raises(ConfigurationError,
                           match="'us-west-1b'.*us-east-1a, eu-west-1a"):
            run_cli("--seed", "5", "study", "sha1_hash", "--zones",
                    "us-east-1a,eu-west-1a", "--days", "1")


class TestObs(object):
    def test_prints_metrics_events_and_trace(self):
        code, output = run_cli("--seed", "11", "obs", "--requests", "25",
                               "--poll-requests", "200")
        assert code == 0
        assert "per-zone" in output
        assert "per-cpu" in output
        assert "p95" in output
        assert "cloudsim events" in output
        assert "placements:" in output
        assert "slot churn:" in output
        assert "invocations: 25" in output
        assert "request" in output and "dispatch" in output
        assert "complete" in output  # the printed trace finished

    def test_exports(self, tmp_path):
        prom = tmp_path / "metrics.prom"
        jsonl = tmp_path / "events.jsonl"
        csv_path = tmp_path / "metrics.csv"
        code, _ = run_cli("--seed", "11", "obs", "--requests", "10",
                          "--poll-requests", "200",
                          "--prom", str(prom), "--jsonl", str(jsonl),
                          "--csv", str(csv_path))
        assert code == 0
        assert "# TYPE invocations_total counter" in prom.read_text()
        first_event = json.loads(
            jsonl.read_text().strip().splitlines()[0])
        assert "event" in first_event and "timestamp" in first_event
        assert csv_path.read_text().startswith("metric,kind,labels")


class TestModuleEntryPoint(object):
    def test_python_dash_m_repro(self):
        import subprocess
        import sys
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "catalog", "--provider",
             "do"], capture_output=True, text=True)
        assert completed.returncode == 0
        assert "nyc1" in completed.stdout

    def test_usage_error_exits_nonzero(self):
        import subprocess
        import sys
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "frobnicate"],
            capture_output=True, text=True)
        assert completed.returncode != 0


class TestSweep(object):
    def _campaign_args(self, *extra):
        return ("--seed", "5", "sweep", "campaign",
                "--zones", "us-west-1a,us-west-1b", "--seeds", "0,1",
                "--polls", "2", "--endpoints", "3",
                "--requests", "150") + extra

    def test_campaign_sweep_table(self):
        code, output = run_cli(*self._campaign_args())
        assert code == 0
        assert "campaign sweep: 4 cells (2 zones x 2 seeds)" in output
        assert output.count("us-west-1a") >= 2

    def test_workers_do_not_change_output(self, tmp_path):
        serial_json = str(tmp_path / "serial.json")
        pooled_json = str(tmp_path / "pooled.json")
        code1, out1 = run_cli(*self._campaign_args(
            "--workers", "1", "--json", serial_json))
        code2, out2 = run_cli(*self._campaign_args(
            "--workers", "2", "--json", pooled_json))
        assert code1 == code2 == 0
        # Identical table (the trailing "wrote <path>" line differs only
        # by the path we chose).
        strip = lambda text: [line for line in text.splitlines()  # noqa: E731
                              if not line.startswith("wrote ")]
        assert strip(out1) == strip(out2)
        with open(serial_json) as f1, open(pooled_json) as f2:
            assert f1.read() == f2.read()

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_non_positive_workers_rejected(self, workers):
        from repro.common.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            run_cli(*self._campaign_args("--workers", workers))

    def test_progressive_sweep(self):
        code, output = run_cli("--seed", "2", "sweep", "progressive",
                               "--zones", "us-west-1a", "--seeds", "0",
                               "--endpoints", "4", "--requests", "150",
                               "--budgets", "1,2")
        assert code == 0
        assert "ape@1" in output

    def test_study_sweep(self):
        code, output = run_cli("--seed", "4", "sweep", "study",
                               "--zones", "us-west-1a,us-west-1b",
                               "--workloads", "sha1_hash", "--seeds", "0",
                               "--days", "1", "--burst", "50")
        assert code == 0
        assert "sha1_hash" in output

    def test_json_payload_shape(self, tmp_path):
        path = str(tmp_path / "sweep.json")
        code, _ = run_cli(*self._campaign_args("--json", path))
        assert code == 0
        with open(path) as handle:
            payload = json.load(handle)
        assert payload["kind"] == "campaign"
        assert payload["root_seed"] == 5
        assert len(payload["cells"]) == 4
        assert all("cell_seed" in cell for cell in payload["cells"])

    def test_remote_backend_matches_serial(self, tmp_path):
        serial_json = str(tmp_path / "serial.json")
        remote_json = str(tmp_path / "remote.json")
        code1, _ = run_cli(*self._campaign_args(
            "--workers", "1", "--json", serial_json))
        code2, _ = run_cli(*self._campaign_args(
            "--workers", "2", "--backend", "remote",
            "--json", remote_json))
        assert code1 == code2 == 0
        with open(serial_json) as f1, open(remote_json) as f2:
            assert f1.read() == f2.read()


class TestTemporalSweep(object):
    def _args(self, mode, *extra):
        return ("--seed", "9", "sweep", "temporal",
                "--zones", "us-west-1a", "--seeds", "0",
                "--temporal-mode", mode, "--periods", "2",
                "--polls", "2", "--endpoints", "3",
                "--requests", "100") + extra

    def test_hourly_table(self):
        code, output = run_cli(*self._args("hourly"))
        assert code == 0
        assert ("temporal sweep (hourly): 1 cells (1 zones x 1 seeds), "
                "2 periods") in output
        assert "dominant cpu" in output
        assert "[us-west-1a seed=0]" in output

    def test_daily_table_and_json(self, tmp_path):
        path = str(tmp_path / "temporal.json")
        code, output = run_cli(*self._args("daily", "--json", path))
        assert code == 0
        assert "cost ($)" in output
        with open(path) as handle:
            payload = json.load(handle)
        assert payload["kind"] == "temporal"
        cell = payload["cells"][0]
        assert cell["mode"] == "daily"
        assert len(cell["series"]) == 2

    def test_zero_polls_rejected(self):
        # 0 means "until saturation" for a campaign cell; a temporal
        # series polls a fixed number of times per period, so it refuses
        # 0 instead of running 1.
        args = list(self._args("daily"))
        args[args.index("--polls") + 1] = "0"
        with pytest.raises(ConfigurationError, match="polls_per_period"):
            run_cli(*args)

    def test_workers_do_not_change_temporal_output(self, tmp_path):
        serial_json = str(tmp_path / "serial.json")
        pooled_json = str(tmp_path / "pooled.json")
        code1, _ = run_cli(*self._args("daily", "--workers", "1",
                                       "--json", serial_json))
        code2, _ = run_cli(*self._args("daily", "--workers", "2",
                                       "--json", pooled_json))
        assert code1 == code2 == 0
        with open(serial_json) as f1, open(pooled_json) as f2:
            assert f1.read() == f2.read()


class TestSweepWorkerCommand(object):
    def test_unreachable_coordinator_fails_cleanly(self):
        import socket
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()  # nothing listens here any more
        code, output = run_cli("sweep-worker", "--connect",
                               "127.0.0.1:{}".format(port),
                               "--max-reconnects", "0")
        assert code == 1
        assert "could not join coordinator" in output

    def test_malformed_address_rejected(self):
        from repro.common.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            run_cli("sweep-worker", "--connect", "nonsense")


class TestMultiZoneCharacterize(object):
    def test_comma_separated_zones(self):
        code, output = run_cli("--seed", "3", "characterize",
                               "us-east-2a,us-west-1a", "--polls", "2",
                               "--workers", "2")
        assert code == 0
        assert "us-east-2a" in output
        assert "us-west-1a" in output


class TestMultiWorkloadStudy(object):
    def test_comma_separated_workloads(self):
        code, output = run_cli("--seed", "6", "study",
                               "sha1_hash,zipper", "--days", "1",
                               "--burst", "50", "--workers", "2")
        assert code == 0
        assert "sha1_hash" in output
        assert "zipper" in output


class TestTelemetryAndRecorder(object):
    def _campaign_args(self, *extra):
        return ("--seed", "5", "sweep", "campaign",
                "--zones", "us-west-1a,us-west-1b", "--seeds", "0,1",
                "--polls", "2", "--endpoints", "3",
                "--requests", "150") + extra

    def test_telemetry_and_record_do_not_change_output(self, tmp_path):
        serial_json = str(tmp_path / "serial.json")
        shipped_json = str(tmp_path / "shipped.json")
        record_dir = str(tmp_path / "run")
        code1, _ = run_cli(*self._campaign_args(
            "--workers", "1", "--json", serial_json))
        code2, output = run_cli(*self._campaign_args(
            "--workers", "2", "--telemetry", "--record", record_dir,
            "--json", shipped_json))
        assert code1 == code2 == 0
        assert "recorded {}".format(record_dir) in output
        with open(serial_json) as f1, open(shipped_json) as f2:
            assert f1.read() == f2.read()

    def test_record_artifacts_round_trip(self, tmp_path):
        from repro.obs.manifest import RunManifest
        record_dir = str(tmp_path / "run")
        code, _ = run_cli(*self._campaign_args(
            "--workers", "2", "--telemetry", "--record", record_dir))
        assert code == 0
        manifest = RunManifest.load(record_dir)
        assert manifest.data["status"] == "complete"
        assert manifest.data["kind"] == "sweep-campaign"
        assert manifest.data["seed"] == 5
        assert manifest.data["grid_hash"]
        assert manifest.data["summary"] == {"kind": "campaign",
                                            "cells": 4}
        events = {event["event"] for event in manifest.events()}
        assert "sweep.start" in events
        assert "sweep.cell" in events
        assert "sweep.telemetry" in events
        metrics = manifest.metrics()
        assert metrics[("sweep_cells_total",)] == 4.0
        traces = manifest.traces()
        roots = [spans[0]["name"] for spans in traces if spans]
        assert "sweep" in roots

    def test_sweep_serve_flag_announces_endpoint(self):
        code, output = run_cli(*self._campaign_args("--serve", "0"))
        assert code == 0
        assert "obs: serving http://127.0.0.1:" in output

    def test_record_on_failure_is_marked_failed(self, tmp_path):
        from repro.obs.manifest import RunManifest
        record_dir = str(tmp_path / "run")
        with pytest.raises(Exception):
            run_cli("--seed", "5", "sweep", "campaign",
                    "--zones", "no-such-zone", "--seeds", "0",
                    "--record", record_dir)
        manifest = RunManifest.load(record_dir)
        assert manifest.data["status"] == "failed"

    def test_characterize_record(self, tmp_path):
        from repro.obs.manifest import RunManifest
        record_dir = str(tmp_path / "run")
        code, output = run_cli("--seed", "3", "characterize",
                               "us-east-2a", "--polls", "2",
                               "--record", record_dir)
        assert code == 0
        assert "recorded" in output
        manifest = RunManifest.load(record_dir)
        assert manifest.data["kind"] == "characterize"
        assert manifest.data["status"] == "complete"
        # The single-zone path installs the facade on the cloud, so the
        # recorded event log holds the campaign's cloudsim activity.
        assert manifest.events()


class TestObsModes(object):
    def test_demo_record(self, tmp_path):
        from repro.obs.manifest import RunManifest
        record_dir = str(tmp_path / "run")
        code, output = run_cli("--seed", "7", "obs", "--requests", "10",
                               "--polls", "2", "--record", record_dir)
        assert code == 0
        assert "recorded {}".format(record_dir) in output
        manifest = RunManifest.load(record_dir)
        assert manifest.data["kind"] == "obs-demo"
        assert manifest.data["status"] == "complete"
        assert manifest.events()
        assert manifest.traces()

    def test_serve_runs_rounds_and_exits(self):
        code, output = run_cli("--seed", "7", "obs", "serve",
                               "--port", "0", "--rounds", "2",
                               "--interval", "0", "--requests", "5",
                               "--polls", "2")
        assert code == 0
        assert "obs: serving http://127.0.0.1:" in output
        assert "round 1/2" in output
        assert "round 2/2" in output

    def test_tail_renders_live_endpoint(self):
        from repro.obs import Observability, ObsServer
        obs = Observability()
        obs.registry.counter("sweep_cells_total").inc(3)
        with ObsServer(obs, port=0) as server:
            address = "{}:{}".format(*server.address)
            code, output = run_cli("obs", "tail", "--connect", address,
                                   "--rounds", "1")
        assert code == 0
        assert "cells: 3 done" in output

    def test_tail_requires_connect(self):
        code, output = run_cli("obs", "tail")
        assert code == 2
        assert "--connect" in output

    def test_tail_unreachable_endpoint_fails_cleanly(self):
        code, output = run_cli("obs", "tail", "--connect",
                               "127.0.0.1:9", "--rounds", "1")
        assert code == 1
        assert "scrape" in output
