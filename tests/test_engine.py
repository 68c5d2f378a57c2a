"""The deterministic parallel experiment engine.

The headline contract is verified here: for a mixed grid of campaign,
progressive, and routing-study cells, ``workers=4`` produces output
byte-identical to the serial reference executor.
"""

import json
import multiprocessing
import os
import pickle
import subprocess
import sys
import textwrap

import pytest

import repro
from repro import reporting
from repro.common.errors import (
    ConfigurationError,
    SweepError,
    SweepFailure,
)
from repro.engine import (
    CampaignTask,
    CloudSpec,
    Grid,
    ProgressiveTask,
    StudyTask,
    SweepEngine,
    SweepProgress,
    SweepTask,
    TemporalTask,
)
from repro.obs import Observability


# -- CloudSpec ----------------------------------------------------------------

class TestCloudSpec(object):
    def test_build_restricted_regions(self):
        spec = CloudSpec.for_zones(["us-west-1a", "eu-north-1a"], seed=3)
        cloud = spec.build()
        assert sorted(cloud.regions) == ["eu-north-1", "us-west-1"]
        assert cloud.seed == 3

    def test_for_zones_infers_provider(self):
        assert CloudSpec.for_zones(["us-west-1a"]).aws_only
        assert not CloudSpec.for_zones(["us-west-1a", "lon1"]).aws_only

    def test_with_seed_is_a_fresh_value(self):
        spec = CloudSpec.for_zones(["us-west-1a"], seed=1)
        other = spec.with_seed(9)
        assert other.seed == 9 and spec.seed == 1
        assert other.regions == spec.regions

    def test_value_semantics_and_dict_round_trip(self):
        spec = CloudSpec(seed=5, aws_only=False, regions=("us-west-1",))
        assert spec == CloudSpec.from_dict(spec.to_dict())
        assert spec != spec.with_seed(6)
        assert len({spec, CloudSpec.from_dict(spec.to_dict())}) == 1

    def test_build_with_account_matches_zone_provider(self):
        cloud, account = CloudSpec.for_zones(["lon1"]).build_with_account(
            "lon1")
        assert account.provider.name == "do"
        assert "lon1" in cloud.regions

    def test_for_zones_needs_zones(self):
        with pytest.raises(ConfigurationError):
            CloudSpec.for_zones([])


# -- Grid ---------------------------------------------------------------------

class TestGrid(object):
    def test_row_major_enumeration(self):
        grid = Grid([("zone", ["a", "b"]), ("seed", [0, 1, 2])])
        cells = list(grid.cells())
        assert len(grid) == 6 == len(cells)
        assert [c.index for c in cells] == list(range(6))
        assert cells[0].key == (("zone", "a"), ("seed", 0))
        assert cells[3].key == (("zone", "b"), ("seed", 0))

    def test_random_access_matches_iteration(self):
        grid = Grid([("zone", ["a", "b", "c"]), ("seed", [0, 1]),
                     ("policy", ["x", "y"])], root_seed=7)
        for cell in grid.cells():
            assert grid.cell(cell.index) == cell
        with pytest.raises(ConfigurationError):
            grid.cell(len(grid))

    def test_seed_depends_on_key_not_order(self):
        forward = Grid([("zone", ["a", "b"]), ("seed", [0, 1])],
                       root_seed=42)
        seeds = {cell.key: cell.seed for cell in forward.cells()}
        # The same key yields the same seed regardless of where it falls
        # in the enumeration (axis values reordered).
        shuffled = Grid([("zone", ["b", "a"]), ("seed", [1, 0])],
                        root_seed=42)
        for cell in shuffled.cells():
            key = tuple(sorted(cell.key))
            match = next(k for k in seeds if tuple(sorted(k)) == key)
            assert seeds[match] == cell.seed

    def test_namespace_partitions_seed_streams(self):
        a = Grid([("zone", ["a"])], root_seed=1, namespace="x")
        b = Grid([("zone", ["a"])], root_seed=1, namespace="y")
        assert a.cell(0).seed != b.cell(0).seed

    def test_distinct_cells_distinct_seeds(self):
        grid = Grid([("zone", ["a", "b", "c", "d"]),
                     ("seed", list(range(50)))])
        seeds = [cell.seed for cell in grid.cells()]
        assert len(set(seeds)) == len(seeds)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Grid([])
        with pytest.raises(ConfigurationError):
            Grid([("zone", [])])
        with pytest.raises(ConfigurationError):
            Grid([("zone", ["a"]), ("zone", ["b"])])


# -- tasks --------------------------------------------------------------------

def _tiny_campaign_task(seed=0, zone="us-west-1a"):
    return CampaignTask(CloudSpec.for_zones([zone], seed=seed), zone,
                        endpoints=3, n_requests=150, max_polls=2)


class TestTasks(object):
    def test_tasks_pickle(self):
        tasks = [
            _tiny_campaign_task(),
            ProgressiveTask(CloudSpec.for_zones(["us-west-1b"], seed=1),
                            "us-west-1b", endpoints=3, n_requests=100),
            TemporalTask(CloudSpec.for_zones(["us-west-1a"], seed=2),
                         "us-west-1a", mode="hourly", periods=2,
                         polls_per_period=2, endpoints=3, n_requests=100),
            StudyTask(CloudSpec.for_zones(["us-west-1a", "us-west-1b"],
                                          seed=3),
                      "sha1_hash", ("us-west-1a", "us-west-1b"), days=1,
                      burst_size=50, sampling_count=3),
        ]
        clones = pickle.loads(pickle.dumps(tasks))
        assert [t.kind for t in clones] == ["campaign", "progressive",
                                            "temporal", "study"]

    def test_campaign_task_runs_in_process(self):
        result = _tiny_campaign_task(seed=11).run()
        assert result.polls_run == 2
        assert result.total_requests == 300

    def test_auto_requests_respects_quota(self):
        # DigitalOcean's quota is far below 1000; auto must clamp to it.
        task = CampaignTask(CloudSpec.for_zones(["lon1"], seed=0), "lon1",
                            endpoints=2, max_polls=1)
        result = task.run()
        cloud = CloudSpec.for_zones(["lon1"]).build()
        quota = cloud.region_of_zone("lon1").provider.adapter.quota.ceiling
        assert result.total_requests == min(1000, quota)

    def test_temporal_mode_validation(self):
        with pytest.raises(ConfigurationError):
            TemporalTask(CloudSpec.for_zones(["us-west-1a"]), "us-west-1a",
                         mode="weekly")

    @pytest.mark.parametrize("polls", [0, -1])
    def test_temporal_polls_per_period_validation(self, polls):
        with pytest.raises(ConfigurationError, match="polls_per_period"):
            TemporalTask(CloudSpec.for_zones(["us-west-1a"]), "us-west-1a",
                         polls_per_period=polls)

    def test_study_task_needs_zones(self):
        with pytest.raises(ConfigurationError):
            StudyTask(CloudSpec(seed=0), "sha1_hash", ())

    def test_study_baseline_must_be_a_candidate(self):
        zones = ["us-east-1a", "eu-west-1a"]
        with pytest.raises(ConfigurationError,
                           match="'us-west-1b'.*us-east-1a, eu-west-1a"):
            StudyTask(CloudSpec.for_zones(zones), "sha1_hash", zones,
                      baseline_zone="us-west-1b")

    def test_task_rejects_raw_seed(self):
        with pytest.raises(ConfigurationError):
            SweepTask(42)


# -- engine determinism -------------------------------------------------------

def _mixed_tasks(root_seed=21):
    grid = Grid([("zone", ["us-west-1a", "us-west-1b"]),
                 ("seed", [0, 1])], root_seed=root_seed, namespace="mixed")
    cells = list(grid.cells())
    spec = lambda cell, zones: CloudSpec.for_zones(zones, seed=cell.seed)  # noqa: E731
    zone_of = lambda cell: dict(cell.key)["zone"]  # noqa: E731
    return [
        CampaignTask(spec(cells[0], [zone_of(cells[0])]),
                     zone_of(cells[0]), endpoints=3, n_requests=150,
                     max_polls=2),
        ProgressiveTask(spec(cells[1], [zone_of(cells[1])]),
                        zone_of(cells[1]), endpoints=4, n_requests=150),
        CampaignTask(spec(cells[2], [zone_of(cells[2])]),
                     zone_of(cells[2]), endpoints=3, n_requests=150,
                     max_polls=2),
        StudyTask(spec(cells[3], ["us-west-1a", "us-west-1b"]),
                  "sha1_hash", ("us-west-1a", "us-west-1b"), days=1,
                  burst_size=50, sampling_count=3),
    ]


def _serialize(results):
    payload = []
    for result in results:
        if hasattr(result, "savings_summary"):
            payload.append(reporting.study_result_to_dict(result))
        elif hasattr(result, "ape_curve"):
            payload.append({
                "campaign": reporting.campaign_to_dict(result.campaign),
                "curve": result.ape_curve(),
            })
        else:
            payload.append(reporting.campaign_to_dict(result))
    return json.dumps(payload, sort_keys=True).encode()


class TestEngineDeterminism(object):
    def test_mixed_grid_workers4_byte_identical_to_serial(self):
        serial = SweepEngine(workers=1).run(_mixed_tasks())
        pooled = SweepEngine(workers=4).run(_mixed_tasks())
        assert _serialize(serial) == _serialize(pooled)

    def test_chunk_size_does_not_change_results(self):
        baseline = _serialize(SweepEngine(workers=1).run(_mixed_tasks()))
        for chunk_size in (1, 2, 10):
            engine = SweepEngine(workers=2, chunk_size=chunk_size)
            assert _serialize(engine.run(_mixed_tasks())) == baseline

    def test_results_keep_task_order(self):
        tasks = [_tiny_campaign_task(seed=s) for s in range(6)]
        expected = [t.run().ground_truth().shares() for t in tasks]
        pooled = SweepEngine(workers=3).run(tasks)
        assert [r.ground_truth().shares() for r in pooled] == expected


# -- engine mechanics ---------------------------------------------------------

class FailingTask(SweepTask):
    kind = "failing"

    def __init__(self, message="boom"):
        super().__init__(CloudSpec(seed=0))
        self.message = message

    def run(self):
        raise ValueError(self.message)


class UnpicklableResultTask(SweepTask):
    """Runs fine, but its result cannot travel back across a process
    boundary — the pool loses the whole chunk, not just the cell."""

    kind = "unpicklable-result"

    def __init__(self):
        super().__init__(CloudSpec(seed=0))

    def run(self):
        return lambda: None


class TestEngineMechanics(object):
    def test_empty_sweep(self):
        assert SweepEngine(workers=4).run([]) == []

    def test_serial_mode_reported(self):
        engine = SweepEngine(workers=1)
        engine.run([_tiny_campaign_task()])
        assert engine.last_mode == "serial"

    def test_pool_mode_reported(self):
        engine = SweepEngine(workers=2)
        engine.run([_tiny_campaign_task(s) for s in (0, 1)])
        assert engine.last_mode == "pool"

    def test_graceful_fallback_without_pool(self, monkeypatch):
        monkeypatch.setattr(SweepEngine, "_make_pool",
                            lambda self, workers: None)
        engine = SweepEngine(workers=2)
        results = engine.run([_tiny_campaign_task(s) for s in (0, 1)])
        assert engine.last_mode == "serial-fallback"
        assert _serialize(results) == _serialize(
            SweepEngine(workers=1).run(
                [_tiny_campaign_task(s) for s in (0, 1)]))

    def test_failures_collected_deterministically(self):
        tasks = [FailingTask("second"), _tiny_campaign_task(),
                 FailingTask("first-by-index")]
        tasks[0].message = "a"
        tasks[2].message = "b"
        with pytest.raises(SweepError) as excinfo:
            SweepEngine(workers=2).run(tasks)
        failures = excinfo.value.failures
        assert [index for index, _, _ in failures] == [0, 2]
        assert failures[0][1] == "ValueError"
        assert [failure.message for failure in failures] == ["a", "b"]

    def test_serial_also_raises_sweep_error(self):
        with pytest.raises(SweepError) as excinfo:
            SweepEngine(workers=1).run([FailingTask("serial does not "
                                                    "eat errors")])
        failure = excinfo.value.failures[0]
        assert failure.error_type == "ValueError"
        assert failure.message == "serial does not eat errors"

    def test_chunk_size_validation(self):
        with pytest.raises(ValueError):
            SweepEngine(workers=2, chunk_size=0)

    def test_fractional_chunk_size_rejected(self):
        with pytest.raises(ValueError):
            SweepEngine(workers=2, chunk_size=2.5)

    @pytest.mark.parametrize("workers", [0, -3, 2.7, 0.5])
    def test_bad_worker_count_rejected(self, workers):
        # Never clamped to serial or truncated to fewer lanes.
        with pytest.raises(ConfigurationError):
            SweepEngine(workers=workers)

    def test_integral_worker_count_accepted(self):
        assert SweepEngine(workers=2.0).workers == 2
        assert SweepEngine(workers=2, chunk_size=3.0).chunk_size == 3

    @pytest.mark.parametrize("setting, value", [
        ("heartbeat_s", 0.0),
        ("heartbeat_s", -1.0),
        ("heartbeat_s", float("nan")),
        ("max_requeues", -1),
        ("join_timeout_s", 0.0),
        ("join_timeout_s", -5.0),
        ("chunk_deadline_s", 0.0),
        ("chunk_deadline_s", -0.5),
        ("remote_workers", -1),
    ])
    def test_bad_engine_setting_rejected(self, setting, value):
        # Refused at construction, naming the setting: a negative worker
        # count used to spawn nothing and wait out the join timeout.
        with pytest.raises(ConfigurationError, match=setting):
            SweepEngine(workers=2, backend="remote", **{setting: value})

    def test_journal_and_resume_must_name_one_directory(self, tmp_path):
        with pytest.raises(ConfigurationError, match="journal"):
            SweepEngine(journal=str(tmp_path / "a"),
                        resume=str(tmp_path / "b"))
        same = str(tmp_path / "a")
        assert SweepEngine(journal=same, resume=same + os.sep).resume

    def test_unset_optional_settings_accepted(self):
        engine = SweepEngine(backend="remote", remote_workers=0,
                             chunk_deadline_s=None, max_requeues=0)
        assert engine.remote_workers is None
        assert engine.chunk_deadline_s is None


class TestChunkHook(object):
    """``chunk_hook`` fires once per accepted chunk on every local path."""

    @pytest.mark.parametrize("workers, no_pool, journaled, mode", [
        (1, False, False, "serial"),
        (1, False, True, "serial"),
        (2, True, False, "serial-fallback"),
        (2, False, False, "pool"),
    ], ids=["serial", "serial-journal", "serial-fallback", "pool"])
    def test_fires_once_per_accepted_chunk(self, tmp_path, monkeypatch,
                                           workers, no_pool, journaled,
                                           mode):
        if no_pool:
            monkeypatch.setattr(SweepEngine, "_make_pool",
                                lambda self, workers: None)
        fired = []
        engine = SweepEngine(
            workers=workers,
            journal=str(tmp_path) if journaled else None,
            chunk_hook=lambda chunk_id, records: fired.append(
                (chunk_id, [record[0] for record in records])))
        engine.run([_tiny_campaign_task(s) for s in range(4)])
        assert engine.last_mode == mode
        assert sorted(fired) == [(0, [0]), (1, [1]), (2, [2]), (3, [3])]


# -- start-method selection -----------------------------------------------------

class TestStartMethod(object):
    def test_forkserver_preferred_when_available(self):
        engine = SweepEngine(workers=2)
        resolved = engine._resolve_start_method()
        available = multiprocessing.get_all_start_methods()
        if "forkserver" in available:
            assert resolved == "forkserver"
        else:
            assert resolved in available

    def test_explicit_start_method_wins(self):
        engine = SweepEngine(workers=2, start_method="spawn")
        assert engine._resolve_start_method() == "spawn"

    def test_unknown_start_method_raises(self):
        with pytest.raises(ConfigurationError, match="no-such-method"):
            SweepEngine(workers=2, start_method="no-such-method")

    def test_start_method_surfaced_in_sweep_start_event(self):
        obs = Observability()
        engine = SweepEngine(workers=2, obs=obs)
        engine.run([_tiny_campaign_task(s) for s in (0, 1)])
        start = obs.recorder.events("sweep.start")[0]
        assert start.fields["backend"] == "local"
        assert start.fields["start_method"] == \
            engine._resolve_start_method()

    def test_serial_runs_report_serial_start_method(self):
        obs = Observability()
        SweepEngine(workers=1, obs=obs).run([_tiny_campaign_task()])
        start = obs.recorder.events("sweep.start")[0]
        assert start.fields["start_method"] == "serial"


# -- the preloaded fork server ------------------------------------------------

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: Runs in a fresh interpreter with PYTHONPATH unset, putting ``src`` on
#: ``sys.path`` by hand as perfbench does, and prints a JSON report.  Pool
#: workers re-run this main module before they unpickle any work, so its
#: first line records whether the fork server had already imported repro.
SWEEP_SCRIPT = textwrap.dedent("""\
    import gc, sys
    PRELOADED = "repro" in sys.modules
    PRELOADED_RANDOM = "numpy.random" in sys.modules
    PRELOADED_FUTURES = "concurrent.futures.process" in sys.modules
    FROZEN = gc.get_freeze_count()
    _catalog = sys.modules.get("repro.cloudsim.catalog")
    CATALOG_WARM = _catalog is not None and _catalog._CATALOG is not None

    import json, os, pickle
    sys.path.insert(0, sys.argv[1])

    import repro
    from repro.engine import CampaignTask, CloudSpec, SweepEngine, SweepTask


    def _server_threads():
        # Workers fork from the fork server, so it is their parent.
        try:
            with open("/proc/{}/status".format(os.getppid())) as status:
                for line in status:
                    if line.startswith("Threads:"):
                        return int(line.split()[1])
        except OSError:
            return None


    class ProbeTask(SweepTask):
        kind = "probe"

        def __init__(self, seed):
            super().__init__(CloudSpec(seed=seed))

        def run(self):
            return {"preloaded": PRELOADED,
                    "preloaded_random": PRELOADED_RANDOM,
                    "preloaded_futures": PRELOADED_FUTURES,
                    "frozen": FROZEN,
                    "catalog_warm": CATALOG_WARM,
                    "repro": repro.__file__,
                    "server_threads": _server_threads()}


    def cells():
        return [CampaignTask(CloudSpec.for_zones(["us-west-1a"], seed=s),
                             "us-west-1a", endpoints=3, n_requests=150,
                             max_polls=2) for s in range(3)]


    def main(mode):
        report = {"repro": repro.__file__}
        if mode == "unpreloaded":
            import multiprocessing.forkserver
            multiprocessing.forkserver.set_forkserver_preload([])
            multiprocessing.forkserver.ensure_running()
            serial = [pickle.dumps(r)
                      for r in SweepEngine(workers=1).run(cells())]
            report["equal"] = {}
            for method in ("forkserver", "fork", "spawn"):
                pooled = SweepEngine(workers=2, start_method=method)
                report["equal"][method] = [
                    pickle.dumps(r) for r in pooled.run(cells())] == serial
        environ = dict(os.environ)
        engine = SweepEngine(workers=2, chunk_size=1)
        report["probes"] = engine.run([ProbeTask(s) for s in range(2)])
        report["mode"] = engine.last_mode
        report["environ_kept"] = dict(os.environ) == environ
        json.dump(report, sys.stdout)


    if __name__ == "__main__":
        main(sys.argv[2])
    """)


def _probe_sweep(tmp_path, mode, *flags):
    """Run SWEEP_SCRIPT in a fresh interpreter; returns (report, stderr)."""
    (tmp_path / "sweep_probe.py").write_text(SWEEP_SCRIPT)
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable] + list(flags) + ["sweep_probe.py", SRC, mode],
        cwd=str(tmp_path), env=env, capture_output=True, text=True,
        timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout), done.stderr


needs_forkserver = pytest.mark.skipif(
    "forkserver" not in multiprocessing.get_all_start_methods(),
    reason="no forkserver start method on this platform")


@needs_forkserver
class TestForkserverPreload(object):
    def test_workers_fork_with_repro_loaded_without_pythonpath(self,
                                                               tmp_path):
        report, _ = _probe_sweep(tmp_path, "preload")
        assert report["mode"] == "pool"
        assert report["environ_kept"]
        for probe in report["probes"]:
            assert probe["preloaded"]
            assert probe["preloaded_random"]
            assert probe["preloaded_futures"]
            assert probe["frozen"] > 1000  # the preloaded heap
            assert probe["catalog_warm"]
            assert probe["repro"] == report["repro"]

    def test_unpreloaded_server_and_other_methods_match_serial(self,
                                                               tmp_path):
        report, _ = _probe_sweep(tmp_path, "unpreloaded")
        assert report["equal"] == {"forkserver": True, "fork": True,
                                   "spawn": True}
        # The sweep went through the server started without the
        # preload: slower, same results.
        assert report["mode"] == "pool"
        assert not any(probe["preloaded"] or probe["preloaded_futures"]
                       for probe in report["probes"])
        assert not any(probe["frozen"] or probe["catalog_warm"]
                       for probe in report["probes"])

    def test_pool_runs_with_deprecation_warnings_as_errors(self, tmp_path):
        # Python 3.12 warns when a multi-threaded process forks.  The
        # preloaded server holds numpy, whose OpenBLAS stops its thread
        # pool before every fork, so the server forks single-threaded.
        report, stderr = _probe_sweep(tmp_path, "preload",
                                      "-W", "error::DeprecationWarning")
        assert report["mode"] == "pool"
        assert "DeprecationWarning" not in stderr
        for probe in report["probes"]:
            assert probe["preloaded"]
            assert probe["server_threads"] in (None, 1)

    def test_environ_unchanged_after_run(self, monkeypatch):
        import multiprocessing.forkserver

        seen = []
        start = multiprocessing.forkserver.ensure_running

        def recording_start():
            seen.append(os.environ["PYTHONPATH"])
            start()

        monkeypatch.setattr(multiprocessing.forkserver, "ensure_running",
                            recording_start)
        environ = dict(os.environ)
        engine = SweepEngine(workers=2)
        engine.run([_tiny_campaign_task(s) for s in (0, 1)])
        assert engine.last_mode == "pool"
        assert dict(os.environ) == environ
        assert seen and seen[0].split(os.pathsep)[0] == SRC

    def test_environ_restored_when_pool_start_fails(self, monkeypatch):
        import multiprocessing.forkserver

        def failing_start():
            raise OSError("no fork server today")

        monkeypatch.setattr(multiprocessing.forkserver, "ensure_running",
                            failing_start)
        for pythonpath in (None, "/somewhere/else"):
            if pythonpath is None:
                monkeypatch.delenv("PYTHONPATH", raising=False)
            else:
                monkeypatch.setenv("PYTHONPATH", pythonpath)
            environ = dict(os.environ)
            engine = SweepEngine(workers=2)
            engine.run([_tiny_campaign_task(s) for s in (0, 1)])
            assert engine.last_mode == "serial-fallback"
            assert dict(os.environ) == environ


# -- chunk-loss vs task-bug failures --------------------------------------------

class TestChunkFailureMarker(object):
    def test_pool_chunk_loss_is_tagged(self):
        tasks = [UnpicklableResultTask(), _tiny_campaign_task(seed=1)]
        with pytest.raises(SweepError) as excinfo:
            SweepEngine(workers=2, chunk_size=1).run(tasks)
        error = excinfo.value
        assert len(error.chunk_failures()) == 1
        assert error.task_failures() == []
        failure = error.chunk_failures()[0]
        assert failure.index == 0 and failure.chunk_failure
        assert "[chunk lost]" in str(error)

    def test_task_bug_is_not_tagged(self):
        tasks = [FailingTask(), _tiny_campaign_task()]
        with pytest.raises(SweepError) as excinfo:
            SweepEngine(workers=2, chunk_size=1).run(tasks)
        error = excinfo.value
        assert error.chunk_failures() == []
        assert [f.error_type for f in error.task_failures()] == \
            ["ValueError"]
        assert "[chunk lost]" not in str(error)

    def test_sweep_failure_unpacks_as_a_plain_triple(self):
        failure = SweepFailure(3, "ValueError", "boom", chunk_failure=True)
        index, error_type, message = failure
        assert (index, error_type, message) == (3, "ValueError", "boom")
        assert failure == (3, "ValueError", "boom")
        assert failure.chunk_failure

    def test_sweep_failure_pickle_keeps_the_marker(self):
        failure = SweepFailure(1, "E", "m", chunk_failure=True)
        clone = pickle.loads(pickle.dumps(failure))
        assert clone == (1, "E", "m")
        assert clone.chunk_failure

    def test_chunk_failure_flag_rides_the_cell_event(self):
        obs = Observability()
        with pytest.raises(SweepError):
            SweepEngine(workers=2, chunk_size=1, obs=obs).run(
                [UnpicklableResultTask(), _tiny_campaign_task(seed=1)])
        flags = {c.fields["index"]: c.fields["chunk_failure"]
                 for c in obs.recorder.events("sweep.cell")}
        assert flags == {0: True, 1: False}


# -- observability integration ------------------------------------------------

class TestEngineObservability(object):
    def test_events_metrics_and_progress(self):
        obs = Observability()
        seen = []
        progress = SweepProgress(obs.bus,
                                 on_cell=lambda d, t: seen.append((d, t)))
        tasks = [_tiny_campaign_task(s) for s in range(3)]
        SweepEngine(workers=2, obs=obs).run(tasks)
        assert progress.total == 3
        assert progress.done == 3
        assert progress.failed == 0
        assert progress.mode == "pool"
        assert 0.0 < progress.utilization <= 1.0
        assert seen == [(1, 3), (2, 3), (3, 3)]
        registry = obs.registry
        assert registry.counter("sweep_cells_total").value == 3
        assert registry.gauge("sweep_workers").value == 2
        assert 0.0 < registry.gauge("sweep_worker_utilization").value <= 1.0
        assert registry.histogram("sweep_cell_wall_ms").count == 3
        summary = progress.summary()
        assert summary["cells"] == 3 and summary["mode"] == "pool"

    def test_fallback_event_recorded(self, monkeypatch):
        monkeypatch.setattr(SweepEngine, "_make_pool",
                            lambda self, workers: None)
        obs = Observability()
        progress = SweepProgress(obs.bus)
        engine = SweepEngine(workers=2, obs=obs)
        engine.run([_tiny_campaign_task(s) for s in (0, 1)])
        assert progress.fallback_reason == "process pool unavailable"
        assert progress.mode == "serial-fallback"
        assert obs.registry.counter("sweep_fallbacks_total").value == 1

    def test_failure_counted(self):
        obs = Observability()
        progress = SweepProgress(obs.bus)
        with pytest.raises(SweepError):
            SweepEngine(workers=1, obs=obs).run([FailingTask()])
        assert progress.failed == 1
        assert obs.registry.counter(
            "sweep_cell_failures_total").value == 1

    def test_progress_detach(self):
        obs = Observability()
        progress = SweepProgress(obs.bus)
        progress.detach()
        SweepEngine(workers=1, obs=obs).run([_tiny_campaign_task()])
        assert progress.done == 0
