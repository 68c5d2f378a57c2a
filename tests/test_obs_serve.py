"""The live observability endpoint and the ``obs tail`` renderer."""

import json
import urllib.error
import urllib.request

import pytest

from repro.common.errors import ConfigurationError
from repro.obs import Observability
from repro.obs.export import parse_prometheus_text, prometheus_text
from repro.obs.manifest import RunManifest, RunRegistry
from repro.obs.serve import (
    ObsServer,
    bucket_quantile,
    render_tail,
    scrape,
)

INF = float("inf")


def _facade():
    obs = Observability()
    obs.registry.counter("demo_total", kind="x").inc(4)
    obs.bus.emit("demo.event", 0.1, zone="z1")
    return obs


# -- HTTP endpoint -------------------------------------------------------------

class TestObsServer(object):
    def test_metrics_healthz_runs_and_404(self, tmp_path):
        obs = _facade()
        registry = RunRegistry()
        manifest = RunManifest.begin(str(tmp_path / "run"), "sweep",
                                     seed=7, registry=registry)
        with ObsServer(obs, port=0, runs=registry) as server:
            body = scrape(server.url("/metrics"))
            assert 'demo_total{kind="x"} 4.0' in body
            samples = parse_prometheus_text(body)
            assert samples[("demo_total", ("kind", "x"))] == 4.0

            health = json.loads(scrape(server.url("/healthz")))
            assert health["status"] == "ok"
            assert health["enabled"] is True
            assert health["events"] == 1
            assert health["metrics"] == 1

            runs = json.loads(scrape(server.url("/runs")))
            assert len(runs["runs"]) == 1
            assert runs["runs"][0]["kind"] == "sweep"
            assert runs["runs"][0]["status"] == "running"

            with pytest.raises(urllib.error.HTTPError) as excinfo:
                scrape(server.url("/nope"))
            assert excinfo.value.code == 404
        assert manifest.data["status"] == "running"

    def test_content_type_is_prometheus_text(self):
        with ObsServer(_facade(), port=0) as server:
            response = urllib.request.urlopen(server.url("/metrics"),
                                              timeout=5)
            assert response.headers["Content-Type"].startswith(
                "text/plain; version=0.0.4")

    def test_registry_mutation_between_scrapes_is_visible(self):
        obs = _facade()
        with ObsServer(obs, port=0) as server:
            before = scrape(server.url("/metrics"))
            obs.registry.counter("late_total").inc()
            after = scrape(server.url("/metrics"))
        assert "late_total" not in before
        assert "late_total 1.0" in after

    def test_url_requires_start(self):
        server = ObsServer(_facade())
        with pytest.raises(ConfigurationError):
            server.url()

    def test_port_collision_is_a_configuration_error(self):
        with ObsServer(_facade(), port=0) as server:
            taken = server.address[1]
            with pytest.raises(ConfigurationError):
                ObsServer(_facade(), port=taken).start()

    def test_close_releases_the_port(self):
        server = ObsServer(_facade(), port=0).start()
        url = server.url("/healthz")
        server.close()
        with pytest.raises(OSError):
            urllib.request.urlopen(url, timeout=1)


# -- quantile estimation -------------------------------------------------------

class TestBucketQuantile(object):
    def test_interpolates_inside_the_winning_bucket(self):
        buckets = [(1.0, 2.0), (5.0, 4.0), (INF, 6.0)]
        # target q=0.5 → 3rd of 6 → halfway through the (1, 5] bucket.
        assert bucket_quantile(buckets, 0.5) == 3.0

    def test_inf_bucket_degrades_to_last_finite_upper(self):
        buckets = [(1.0, 2.0), (5.0, 4.0), (INF, 6.0)]
        assert bucket_quantile(buckets, 0.99) == 5.0

    def test_empty_histogram_is_none(self):
        assert bucket_quantile([], 0.5) is None
        assert bucket_quantile([(1.0, 0.0), (INF, 0.0)], 0.5) is None

    def test_all_mass_in_first_bucket(self):
        buckets = [(1.0, 10.0), (5.0, 10.0), (INF, 10.0)]
        estimate = bucket_quantile(buckets, 0.5)
        assert 0.0 <= estimate <= 1.0


# -- tail rendering ------------------------------------------------------------

class TestRenderTail(object):
    def test_no_metrics_yet(self):
        assert render_tail({}) == "no sweep metrics yet"

    def test_sweep_lines(self):
        samples = {
            ("sweep_cells_total",): 7.0,
            ("sweep_cell_failures_total",): 1.0,
            ("sweep_cells_inflight",): 2.0,
            ("sweep_chunks_requeued_total",): 1.0,
            ("sweep_workers_joined_total",): 3.0,
            ("sweep_workers_lost_total",): 1.0,
            ("sweep_worker_utilization",): 0.82,
            ("sweep_cell_wall_ms_bucket", ("le", "10.0")): 4.0,
            ("sweep_cell_wall_ms_bucket", ("le", "100.0")): 7.0,
            ("sweep_cell_wall_ms_bucket", ("le", "+Inf")): 7.0,
            ("sweep_shipped_events_total", ("worker", "w1")): 40.0,
            ("sweep_shipped_events_total", ("worker", "w2")): 20.0,
            ("sweep_telemetry_dropped_total", ("worker", "w2")): 5.0,
        }
        block = render_tail(samples)
        lines = block.splitlines()
        assert lines[0] == ("cells: 7 done (1 failed), 2 in flight, "
                            "1 chunks requeued")
        assert lines[1] == "workers: 3 joined, 1 lost, utilization 82%"
        assert lines[2].startswith("cell wall: p50 ")
        assert "p95" in lines[2] and "p99" in lines[2]
        assert lines[3] == "shipped: w1=40ev, w2=20ev(+5 dropped)"

    def test_sweep_started_but_no_cell_done_yet(self):
        # Mid-first-cell a live sweep exports only the inflight gauge;
        # that is a started sweep, not "no metrics".
        samples = {("sweep_cells_inflight",): 4.0}
        block = render_tail(samples)
        assert block.splitlines()[0] == ("cells: 0 done (0 failed), "
                                         "4 in flight, 0 chunks requeued")

    def test_cells_slower_than_300ms_estimate_from_ms_buckets(self):
        # sweep_cell_wall_ms uses millisecond buckets; on the seconds
        # ladder every cell past 300 ms landed in +Inf and read "300ms".
        obs = Observability()
        for index, wall_ms in enumerate(range(400, 2000, 16)):
            obs.bus.emit("sweep.cell", 0.0, index=index, ok=True,
                         wall_ms=float(wall_ms))
        samples = parse_prometheus_text(prometheus_text(obs.registry))
        line = render_tail(samples).splitlines()[1]
        estimates = dict(part.split() for part in
                         line[len("cell wall: "):].split("  "))
        p50, p95, p99 = (float(estimates[tag][:-2])
                         for tag in ("p50", "p95", "p99"))
        assert 1000.0 <= p50 <= 1300.0
        assert 1500.0 <= p95 <= p99 <= 2500.0

    def test_degrades_without_worker_series(self):
        samples = {("sweep_cells_total",): 3.0}
        block = render_tail(samples)
        assert block.startswith("cells: 3 done")
        assert "workers:" not in block
