"""Cross-process telemetry shipping: capture, payloads, merge, engine.

The shipping layer's contract has two halves.  Capture: worker-side
buffers are bounded, drain to plain picklable payloads, and activate
ambiently so task code needs no API changes.  Merge: replaying payloads
on the coordinator regenerates the same events/metrics/spans a local run
would have produced — under ``worker``/``chunk`` labels, with no double
counting, and without perturbing sweep results by a single byte.
"""

import pickle

import pytest

from repro.common.errors import ConfigurationError
from repro.engine import CampaignTask, CloudSpec, SweepEngine
from repro.engine.tasks import run_task
from repro.obs import Observability
from repro.obs.ship import (
    PAYLOAD_VERSION,
    WALL_MS_BUCKETS,
    TelemetryCapture,
    TelemetryMerge,
    current_capture,
)


def _tiny_task(seed=0, zone="us-west-1a"):
    return CampaignTask(CloudSpec.for_zones([zone], seed=seed), zone,
                        endpoints=3, n_requests=150, max_polls=2)


def _task_grid(n):
    zones = ("us-west-1a", "us-west-1b")
    return [_tiny_task(seed=index, zone=zones[index % 2])
            for index in range(n)]


def _dumps(results):
    return [pickle.dumps(result) for result in results]


# -- worker-side capture -------------------------------------------------------

class TestTelemetryCapture(object):
    def test_buffers_events_and_resets_on_drain(self):
        capture = TelemetryCapture(worker_id="w0")
        capture.bus.emit("demo.one", 0.5, a=1)
        capture.bus.emit("demo.two", 0.7, b="x")
        payload = capture.drain(cell=3)
        assert payload["v"] == PAYLOAD_VERSION
        assert payload["worker"] == "w0"
        assert payload["cell"] == 3
        assert payload["events"] == [("demo.one", 0.5, {"a": 1}),
                                     ("demo.two", 0.7, {"b": "x"})]
        # Drain is snapshot-and-reset: the capture is empty and reusable.
        assert capture.drain()["events"] == []

    def test_overflow_counts_drops_instead_of_growing(self):
        capture = TelemetryCapture(worker_id="w0", max_events=2)
        for index in range(5):
            capture.bus.emit("demo", float(index))
        payload = capture.drain()
        assert len(payload["events"]) == 2
        assert payload["dropped_events"] == 3
        # The bound applies per drain window, not once per capture.
        capture.bus.emit("demo", 9.0)
        follow_up = capture.drain()
        assert len(follow_up["events"]) == 1
        assert follow_up["dropped_events"] == 0

    def test_max_events_validated(self):
        with pytest.raises(ConfigurationError):
            TelemetryCapture(max_events=0)

    def test_cell_metrics_and_span(self):
        capture = TelemetryCapture(worker_id="w0")
        capture.begin_cell(0, _tiny_task())
        capture.end_cell(True, 10.0)
        capture.begin_cell(1)
        capture.end_cell(False, 20.0)
        payload = capture.drain()
        by_name = {name: state for name, _, _, state
                   in payload["metrics"]}
        assert by_name["sweep_worker_cells_total"] == 2
        assert by_name["sweep_worker_cell_failures_total"] == 1
        histogram = by_name["sweep_worker_cell_wall_ms"]
        assert histogram["count"] == 2
        assert histogram["sum"] == 30.0
        assert tuple(histogram["buckets"]) == WALL_MS_BUCKETS
        # Both cell spans shipped complete, tagged with the verdict.
        assert len(payload["traces"]) == 2
        roots = [spans[0] for spans in payload["traces"]]
        assert [root["name"] for root in roots] == ["cell", "cell"]
        assert roots[0]["tags"]["task"] == "CampaignTask"
        assert roots[0]["tags"]["ok"] is True
        assert roots[1]["tags"]["ok"] is False
        assert all(root["end"] is not None for root in roots)

    def test_payload_pickles_cleanly(self):
        capture = TelemetryCapture(worker_id="w0")
        capture.bus.emit("demo", 0.1, zone="z")
        capture.begin_cell(0)
        capture.end_cell(True, 12.5)
        payload = capture.drain(cell=0)
        assert pickle.loads(pickle.dumps(payload)) == payload

    def test_ambient_activation_hooks_cloudspec_build(self):
        capture = TelemetryCapture(worker_id="w0")
        assert current_capture() is None
        with capture:
            assert current_capture() is capture
            run_task(_tiny_task())
        assert current_capture() is None
        payload = capture.drain()
        names = {name for name, _, _ in payload["events"]}
        # The task built its own private cloud, yet its events landed in
        # the ambient capture with zero parameter threading.
        assert "host.allocate" in names
        assert "sampling.poll" in names

    def test_no_bridge_on_the_capture_registry(self):
        # Bridged metrics must NOT ship: the coordinator regenerates them
        # from the replayed events, so shipping them too would double
        # count.  The capture registry only ever holds directly-written
        # series.
        capture = TelemetryCapture(worker_id="w0")
        capture.bus.emit("az.placement", 0.1, zone="z1", requested=4,
                         served=4, failed=0, occupancy=0.5)
        payload = capture.drain()
        shipped = {name for name, _, _, _ in payload["metrics"]}
        assert "placements_total" not in shipped


# -- coordinator-side merge ----------------------------------------------------

class TestTelemetryMerge(object):
    def test_unrecognized_payload_rejected(self):
        merge = TelemetryMerge(Observability())
        with pytest.raises(ConfigurationError):
            merge.merge({"v": 99})
        with pytest.raises(ConfigurationError):
            merge.merge("not a payload")

    def test_events_replay_with_worker_and_chunk_fields(self):
        obs = Observability()
        merge = TelemetryMerge(obs)
        capture = TelemetryCapture(worker_id="w7")
        capture.bus.emit("demo.metric", 0.2, value=1)
        merge.merge(capture.drain(), chunk=4)
        event = obs.recorder.events("demo.metric")[0]
        assert event.fields["worker"] == "w7"
        assert event.fields["chunk"] == 4
        assert event.fields["value"] == 1
        assert obs.recorder.count("sweep.telemetry") == 1
        assert merge.events_merged == 1

    def test_metric_deltas_fold_under_worker_label(self):
        obs = Observability()
        merge = TelemetryMerge(obs)
        capture = TelemetryCapture(worker_id="w7")
        for index in range(2):
            capture.begin_cell(index)
            capture.end_cell(True, 10.0 * (index + 1))
            merge.merge(capture.drain(cell=index))
        counter = obs.registry.counter("sweep_worker_cells_total",
                                       worker="w7")
        assert counter.value == 2
        histogram = obs.registry.histogram(
            "sweep_worker_cell_wall_ms", buckets=WALL_MS_BUCKETS,
            worker="w7")
        assert histogram.count == 2
        assert histogram.sum == 30.0

    def test_bridged_metrics_regenerate_exactly_once(self):
        obs = Observability()
        merge = TelemetryMerge(obs)
        capture = TelemetryCapture(worker_id="w7")
        capture.bus.emit("az.placement", 0.1, zone="z1", requested=4,
                         served=4, failed=0, occupancy=0.5)
        merge.merge(capture.drain())
        # One worker event → exactly one bridged increment at home.
        assert obs.registry.counter("placements_total",
                                    zone="z1").value == 1

    def test_spans_graft_under_chunk_and_root(self):
        obs = Observability()
        root = obs.tracer.start_trace("sweep", 0.0, cells=2)
        merge = TelemetryMerge(obs, clock=lambda: 1.5, root_span=root)
        capture = TelemetryCapture(worker_id="w7")
        capture.begin_cell(0)
        capture.end_cell(True, 10.0)
        capture.begin_cell(1)
        capture.end_cell(True, 20.0)
        merge.merge(capture.drain(), chunk=0)
        merge.finish()
        trace = obs.tracer.last_trace()
        assert trace.root.name == "sweep"
        assert not trace.root.is_open
        chunks = trace.children(trace.root.span_id)
        assert [span.name for span in chunks] == ["chunk"]
        assert chunks[0].tags == {"worker": "w7", "chunk": 0}
        cells = trace.children(chunks[0].span_id)
        assert [span.name for span in cells] == ["cell", "cell"]
        assert trace.complete
        # Rebasing preserves durations and keeps children inside the
        # chunk span's window.
        for cell in cells:
            assert cell.start >= chunks[0].start
            assert cell.end <= chunks[0].end

    def test_dropped_events_surface_as_event_and_counter(self):
        obs = Observability()
        merge = TelemetryMerge(obs)
        capture = TelemetryCapture(worker_id="w7", max_events=1)
        capture.bus.emit("demo", 0.1)
        capture.bus.emit("demo", 0.2)
        capture.bus.emit("demo", 0.3)
        merge.merge(capture.drain())
        assert merge.events_dropped == 2
        dropped = obs.recorder.events("sweep.telemetry_dropped")[0]
        assert dropped.fields["dropped"] == 2
        assert obs.registry.counter("sweep_telemetry_dropped_total",
                                    worker="w7").value == 2

    def test_finish_closes_root_without_payloads(self):
        obs = Observability()
        root = obs.tracer.start_trace("sweep", 0.0, cells=0)
        TelemetryMerge(obs, clock=lambda: 2.0, root_span=root).finish()
        assert not root.is_open
        assert root.end == 2.0


# -- engine integration: telemetry never perturbs results ---------------------

class TestEngineTelemetry(object):
    def test_serial_telemetry_byte_identical(self):
        reference = _dumps(SweepEngine(workers=1).run(_task_grid(4)))
        obs = Observability()
        engine = SweepEngine(workers=1, obs=obs, telemetry=True)
        results = engine.run(_task_grid(4))
        assert _dumps(results) == reference
        assert obs.recorder.count("sweep.telemetry") == 4
        assert obs.registry.counter("sweep_worker_cells_total",
                                    worker="serial").value == 4
        trace = obs.tracer.last_trace()
        assert trace.root.name == "sweep"
        assert trace.complete
        names = sorted(span.name for span in trace.spans)
        assert names.count("cell") == 4
        assert names.count("chunk") == 4

    def test_pool_telemetry_byte_identical_per_element(self):
        reference = _dumps(SweepEngine(workers=1).run(_task_grid(4)))
        obs = Observability()
        engine = SweepEngine(workers=2, chunk_size=1, obs=obs,
                             telemetry=True)
        results = engine.run(_task_grid(4))
        assert engine.last_mode in ("pool", "serial")
        assert _dumps(results) == reference
        assert obs.recorder.count("sweep.telemetry") == 4
        # Worker-labeled series exist for the pool's child processes.
        workers = {labels["worker"] for labels in
                   obs.registry.labels_of("sweep_worker_cells_total")}
        assert workers
        assert all(worker.startswith("pid-") for worker in workers)

    @pytest.mark.parametrize("workers, chunk_size", [(1, None), (2, 2)],
                             ids=["serial", "pool"])
    def test_two_cell_chunks_merge_under_plan_chunk_ids(self, workers,
                                                        chunk_size):
        # 8 cells in 2-cell chunks (the serial plan's default for 8
        # cells), so chunk ids and cell indexes differ.
        reference = _dumps(SweepEngine(workers=1).run(_task_grid(8)))
        obs = Observability()
        engine = SweepEngine(workers=workers, chunk_size=chunk_size,
                             obs=obs, telemetry=True)
        results = engine.run(_task_grid(8))
        assert _dumps(results) == reference
        telemetry = obs.recorder.events("sweep.telemetry")
        assert len(telemetry) == 8
        assert sorted(event.fields["chunk"] for event in telemetry) == \
            [0, 0, 1, 1, 2, 2, 3, 3]
        assert {event.fields["chunk"]
                for event in obs.recorder.events("sampling.poll")} == \
            {0, 1, 2, 3}
        trace = obs.tracer.last_trace()
        chunks = [span for span in trace.spans if span.name == "chunk"]
        assert chunks
        for chunk in chunks:
            cells = trace.children(chunk.span_id)
            assert cells
            assert all(cell.tags["index"] // 2 == chunk.tags["chunk"]
                       for cell in cells)

    def test_telemetry_without_obs_is_inert(self):
        reference = _dumps(SweepEngine(workers=1).run(_task_grid(2)))
        engine = SweepEngine(workers=1, telemetry=True)
        assert _dumps(engine.run(_task_grid(2))) == reference
