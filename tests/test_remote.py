"""The distributed sweep backend: protocol, coordinator, workers, chaos.

The acceptance bar mirrors the engine's headline contract: records that
crossed a socket — under any worker count, a mid-sweep worker kill, or a
seeded ``FaultyTransport`` chaos run — merge into results byte-identical
to the ``workers=1`` serial reference.
"""

import itertools
import pickle
import socket
import threading

import pytest

from repro.common.errors import (
    ConfigurationError,
    TransportError,
    TransportTimeout,
)
from repro.engine import (
    CampaignTask,
    CloudSpec,
    FaultyTransport,
    SweepCoordinator,
    SweepEngine,
    SweepWorker,
    Transport,
    spawn_local_workers,
)
from repro.engine import protocol
from repro.engine.executor import _chunk, _run_chunk
from repro.engine.protocol import connect, encode_frame, parse_address
from repro.obs import Observability
from tests.helpers import accepted_records


def _tiny_task(seed=0, zone="us-west-1a"):
    return CampaignTask(CloudSpec.for_zones([zone], seed=seed), zone,
                        endpoints=3, n_requests=150, max_polls=2)


def _task_grid(n):
    zones = ("us-west-1a", "us-west-1b")
    return [_tiny_task(seed=index, zone=zones[index % 2])
            for index in range(n)]


def _dumps(results):
    return [pickle.dumps(result) for result in results]


def _serial_reference(n):
    return _dumps(SweepEngine(workers=1).run(_task_grid(n)))


def _pair():
    left, right = socket.socketpair()
    return Transport(left), Transport(right)


# -- wire protocol -------------------------------------------------------------

class TestProtocol(object):
    def test_send_recv_round_trip(self):
        a, b = _pair()
        a.send(("task", 3, [(0, "payload")]))
        assert b.recv(timeout=1.0) == ("task", 3, [(0, "payload")])
        b.send(("heartbeat", "w1"))
        assert a.recv(timeout=1.0) == ("heartbeat", "w1")
        a.close()
        b.close()

    def test_recv_timeout_is_typed_and_survivable(self):
        a, b = _pair()
        with pytest.raises(TransportTimeout):
            b.recv(timeout=0.05)
        # A timeout is not a link failure: the next frame still arrives.
        a.send(("bye",))
        assert b.recv(timeout=1.0) == ("bye",)

    def test_peer_close_raises_transport_error(self):
        a, b = _pair()
        a.close()
        with pytest.raises(TransportError):
            b.recv(timeout=1.0)
        assert b.closed

    def test_send_on_closed_transport_refused(self):
        a, _ = _pair()
        a.close()
        with pytest.raises(TransportError):
            a.send(("bye",))

    def test_oversized_frame_refused_at_encode(self, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 16)
        with pytest.raises(TransportError):
            encode_frame(b"x" * 64)

    def test_oversized_header_refused_at_recv(self):
        left, right = socket.socketpair()
        transport = Transport(right)
        left.sendall(protocol.HEADER.pack(protocol.MAX_FRAME_BYTES + 1))
        with pytest.raises(TransportError):
            transport.recv(timeout=1.0)

    def test_corrupt_frame_is_a_transport_error(self):
        left, right = socket.socketpair()
        transport = Transport(right)
        left.sendall(protocol.HEADER.pack(4) + b"\x80junk"[:4])
        with pytest.raises(TransportError):
            transport.recv(timeout=1.0)

    def test_parse_address(self):
        assert parse_address("127.0.0.1:7077") == ("127.0.0.1", 7077)
        for bad in ("localhost", ":1", "host:", "host:seven"):
            with pytest.raises(ConfigurationError):
                parse_address(bad)


class TestTaskFrame(object):
    @staticmethod
    def _worker():
        def run_chunk(chunk, ship=False, worker_id=None, flush=None):
            return [(index, True, "ok", 0.0, 1) for index, _ in chunk], []

        return SweepWorker("127.0.0.1", 1, heartbeat_s=0.05,
                           run_chunk=run_chunk)

    def test_worker_serves_the_fixed_frame(self):
        coordinator_side, worker_side = _pair()
        coordinator_side.send(("task", 5, [(0, None), (1, None)], False))
        coordinator_side.send(("bye",))
        assert self._worker()._session(worker_side) is True
        message = coordinator_side.recv(timeout=1.0)
        while message[0] == "heartbeat":
            message = coordinator_side.recv(timeout=1.0)
        assert message == ("result", 5, [(0, True, "ok", 0.0, 1),
                                         (1, True, "ok", 0.0, 1)])
        coordinator_side.close()

    @pytest.mark.parametrize("frame", [("task", 5, [(0, None)]),
                                       ("task", 5, [(0, None)], False,
                                        True)])
    def test_malformed_task_frame_fails_loudly(self, frame):
        coordinator_side, worker_side = _pair()
        coordinator_side.send(frame)
        with pytest.raises(TransportError, match="malformed task frame"):
            self._worker()._session(worker_side)
        assert worker_side.closed
        coordinator_side.close()


class TestFaultyTransport(object):
    def test_seeded_drops_are_reproducible(self):
        import random
        rng = random.Random(99)
        decisions = [rng.random() < 0.5 for _ in range(8)]
        a, b = _pair()
        faulty = FaultyTransport(a, seed=99, drop=0.5)
        for index in range(8):
            faulty.send(("msg", index))
        kept = [i for i, dropped in enumerate(decisions) if not dropped]
        for index in kept:
            assert b.recv(timeout=1.0) == ("msg", index)
        with pytest.raises(TransportTimeout):
            b.recv(timeout=0.05)
        assert faulty.faults_injected == decisions.count(True)

    def test_disconnect_closes_and_raises(self):
        a, _ = _pair()
        faulty = FaultyTransport(a, seed=0, disconnect=1.0)
        with pytest.raises(TransportError):
            faulty.send(("hello", "w", 1))
        assert faulty.closed
        assert faulty.faults_injected == 1

    def test_probability_validation(self):
        a, _ = _pair()
        with pytest.raises(ConfigurationError):
            FaultyTransport(a, drop=1.5)
        with pytest.raises(ConfigurationError):
            FaultyTransport(a, disconnect=-0.1)


# -- coordinator mechanics -----------------------------------------------------

class TestCoordinator(object):
    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            SweepCoordinator(heartbeat_s=0.0)
        with pytest.raises(ConfigurationError):
            SweepCoordinator(max_requeues=-1)

    def test_no_workers_raises_after_join_timeout(self):
        coordinator = SweepCoordinator(join_timeout_s=0.3)
        with coordinator:
            with pytest.raises(TransportError):
                list(accepted_records(coordinator,
                                      _chunk([(0, _tiny_task())], 1)))

    def test_requeue_once_then_complete(self):
        events = []
        coordinator = SweepCoordinator(
            heartbeat_s=1.0, join_timeout_s=10.0, max_requeues=1,
            emit=lambda name, **fields: events.append((name, fields)))
        chunks = _chunk(list(enumerate([_tiny_task()])), 1)
        records = []
        with coordinator:
            driver = threading.Thread(
                target=lambda: records.extend(
                    accepted_records(coordinator, chunks)),
                daemon=True)
            driver.start()
            # First worker takes the chunk, then vanishes mid-flight.
            flaky = connect(*coordinator.address)
            flaky.send(("hello", "flaky", 111))
            assert flaky.recv(timeout=5.0)[0] == "task"
            flaky.close()
            # Second worker picks up the requeued chunk and finishes it.
            solid = connect(*coordinator.address)
            solid.send(("hello", "solid", 222))
            message = solid.recv(timeout=5.0)
            # One fixed frame shape, telemetry on or off.
            assert message == ("task", 0, message[2], False)
            solid.send(("result", message[1], _run_chunk(message[2])[0]))
            driver.join(timeout=10.0)
            assert not driver.is_alive()
            assert solid.recv(timeout=5.0) == ("bye",)
            solid.close()
        assert [record[1] for record in records] == [True]
        names = [name for name, _ in events]
        assert names.count("sweep.worker_joined") == 2
        lost = [fields for name, fields in events
                if name == "sweep.worker_lost"]
        assert lost and lost[0]["worker"] == "flaky"
        requeued = [fields for name, fields in events
                    if name == "sweep.chunk_requeued"]
        assert requeued == [{"chunk": 0, "cells": 1, "worker": "flaky"}]
        stats = {s["worker"]: s for s in coordinator.worker_stats()}
        assert stats["flaky"]["losses"] == 1
        assert stats["solid"]["chunks_done"] == 1

    def test_requeue_budget_exhausted_becomes_chunk_failure(self):
        coordinator = SweepCoordinator(heartbeat_s=1.0, join_timeout_s=10.0,
                                       max_requeues=0)
        chunks = _chunk(list(enumerate([_tiny_task()])), 1)
        records = []
        with coordinator:
            driver = threading.Thread(
                target=lambda: records.extend(
                    accepted_records(coordinator, chunks)),
                daemon=True)
            driver.start()
            flaky = connect(*coordinator.address)
            flaky.send(("hello", "flaky", 1))
            assert flaky.recv(timeout=5.0)[0] == "task"
            flaky.close()
            driver.join(timeout=10.0)
            assert not driver.is_alive()
        index, ok, payload, wall_ms, pid = records[0]
        assert (index, ok, wall_ms, pid) == (0, False, 0.0, -1)
        assert payload[0] == "TransportError"
        assert payload[2] is True  # infrastructure loss, not a task bug

    def test_chunk_deadline_requeues_a_hung_worker(self):
        events = []
        coordinator = SweepCoordinator(
            heartbeat_s=0.2, chunk_deadline_s=0.5, join_timeout_s=10.0,
            max_requeues=1,
            emit=lambda name, **fields: events.append(name))
        chunks = _chunk(list(enumerate([_tiny_task()])), 1)
        records = []
        with coordinator:
            driver = threading.Thread(
                target=lambda: records.extend(
                    accepted_records(coordinator, chunks)),
                daemon=True)
            driver.start()
            # A worker that heartbeats forever but never produces results.
            hung = connect(*coordinator.address)
            hung.send(("hello", "hung", 1))
            assert hung.recv(timeout=5.0)[0] == "task"
            stop = threading.Event()

            def beat():
                while not stop.wait(0.1):
                    try:
                        hung.send(("heartbeat", "hung"))
                    except TransportError:
                        return

            beater = threading.Thread(target=beat, daemon=True)
            beater.start()
            solid = connect(*coordinator.address)
            solid.send(("hello", "solid", 2))
            message = solid.recv(timeout=10.0)
            assert message[0] == "task"
            solid.send(("result", message[1], _run_chunk(message[2])[0]))
            driver.join(timeout=15.0)
            stop.set()
            assert not driver.is_alive()
            solid.close()
            hung.close()
        assert [record[1] for record in records] == [True]
        assert "sweep.chunk_requeued" in events


# -- distributed determinism ---------------------------------------------------

class TestDistributedDeterminism(object):
    def test_socket_workers_byte_identical_to_serial(self):
        reference = _serial_reference(6)
        tasks = _task_grid(6)
        coordinator = SweepCoordinator(heartbeat_s=0.5, join_timeout_s=15.0)
        with coordinator:
            host, port = coordinator.address
            threads = []
            for lane in range(3):
                worker = SweepWorker(host, port,
                                     worker_id="t{}".format(lane),
                                     heartbeat_s=0.1)
                thread = threading.Thread(target=worker.run, daemon=True)
                thread.start()
                threads.append(thread)
            results = [None] * len(tasks)
            chunks = _chunk(list(enumerate(tasks)), 1)
            accepted = accepted_records(coordinator, chunks)
            for index, ok, payload, _, _ in accepted:
                assert ok, payload
                results[index] = payload
            for thread in threads:
                thread.join(timeout=10.0)
        assert _dumps(results) == reference
        assert 1 <= coordinator.workers_seen <= 3

    def test_worker_kill_mid_sweep_byte_identical(self):
        reference = _serial_reference(6)
        tasks = _task_grid(6)
        coordinator = SweepCoordinator(heartbeat_s=0.3, join_timeout_s=30.0,
                                       max_requeues=2)
        with coordinator:
            processes = spawn_local_workers(
                coordinator.address, 2, extra_args=("--heartbeat", "0.1"))
            try:
                results = [None] * len(tasks)
                chunks = _chunk(list(enumerate(tasks)), 1)
                killed = False
                accepted = accepted_records(coordinator, chunks)
                for index, ok, payload, _, _ in accepted:
                    assert ok, payload
                    results[index] = payload
                    if not killed:
                        processes[0].kill()  # SIGKILL, mid-sweep
                        killed = True
                assert killed
            finally:
                for process in processes:
                    process.kill()
                for process in processes:
                    process.wait(timeout=10.0)
        assert _dumps(results) == reference

    def test_chaos_transport_byte_identical(self):
        reference = _serial_reference(4)
        tasks = _task_grid(4)
        coordinator = SweepCoordinator(heartbeat_s=0.2,
                                       chunk_deadline_s=2.5,
                                       join_timeout_s=15.0,
                                       max_requeues=50)
        faults = []

        def chaos_factory(base_seed, drop, disconnect):
            counter = itertools.count()

            def factory(host, port):
                transport = FaultyTransport(
                    connect(host, port),
                    seed=base_seed + 97 * next(counter),
                    drop=drop, disconnect=disconnect)
                faults.append(transport)
                return transport

            return factory

        stop = threading.Event()
        with coordinator:
            host, port = coordinator.address
            # Seed 1's first draw is 0.134 < 0.3: the chaotic worker's
            # very first hello is guaranteed to hit an injected
            # disconnect, so the chaos path is exercised every run.
            specs = [("chaotic", chaos_factory(1, 0.05, 0.3)),
                     ("steady", chaos_factory(2, 0.02, 0.02))]
            threads = []
            for worker_id, factory in specs:
                worker = SweepWorker(host, port, worker_id=worker_id,
                                     heartbeat_s=0.1, max_reconnects=200,
                                     transport_factory=factory)
                thread = threading.Thread(target=worker.run, args=(stop,),
                                          daemon=True)
                thread.start()
                threads.append(thread)
            results = [None] * len(tasks)
            chunks = _chunk(list(enumerate(tasks)), 1)
            accepted = accepted_records(coordinator, chunks)
            for index, ok, payload, _, _ in accepted:
                assert ok, payload
                results[index] = payload
            stop.set()
            for thread in threads:
                thread.join(timeout=5.0)
        assert _dumps(results) == reference
        assert sum(t.faults_injected for t in faults) > 0


# -- engine integration --------------------------------------------------------

class TestEngineRemoteBackend(object):
    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepEngine(backend="carrier-pigeon")

    def test_remote_backend_byte_identical_with_spawned_workers(self):
        reference = _serial_reference(4)
        obs = Observability()
        engine = SweepEngine(workers=2, backend="remote", remote_workers=2,
                             chunk_size=1, heartbeat_s=0.5,
                             join_timeout_s=30.0, obs=obs)
        results = engine.run(_task_grid(4))
        assert engine.last_mode == "remote"
        assert _dumps(results) == reference
        start = obs.recorder.events("sweep.start")[0]
        assert start.fields["backend"] == "remote"
        assert start.fields["start_method"] == "remote"
        assert obs.recorder.count("sweep.worker_joined") >= 1
        assert obs.registry.counter(
            "sweep_workers_joined_total").value >= 1
        assert obs.registry.labels_of("sweep_remote_worker_utilization")
        done = obs.recorder.events("sweep.done")[0]
        assert done.fields["mode"] == "remote"

    def test_remote_degrades_to_pool_when_no_workers_join(self):
        reference = _serial_reference(2)
        obs = Observability()
        engine = SweepEngine(workers=2, backend="remote",
                             join_timeout_s=0.4, obs=obs)
        results = engine.run(_task_grid(2))
        assert engine.last_mode == "pool"
        assert _dumps(results) == reference
        assert obs.registry.counter("sweep_fallbacks_total").value == 1
        fallback = obs.recorder.events("sweep.fallback")[0]
        assert "no workers joined" in fallback.fields["reason"]


# -- telemetry shipping over the wire ------------------------------------------

class TestRemoteTelemetry(object):
    def test_remote_telemetry_byte_identical_and_merged(self):
        reference = _serial_reference(4)
        obs = Observability()
        engine = SweepEngine(workers=2, backend="remote", remote_workers=2,
                             chunk_size=1, heartbeat_s=0.5,
                             join_timeout_s=30.0, obs=obs, telemetry=True)
        results = engine.run(_task_grid(4))
        assert engine.last_mode == "remote"
        assert _dumps(results) == reference
        assert obs.recorder.count("sweep.telemetry") == 4
        # Shipped series land under the shipping worker's label.
        workers = {labels["worker"] for labels in
                   obs.registry.labels_of("sweep_worker_cells_total")}
        assert workers
        assert all(worker.startswith("worker-") for worker in workers)
        # One coherent trace: sweep -> per-chunk -> per-cell, all closed.
        trace = obs.tracer.last_trace()
        assert trace.root.name == "sweep"
        assert trace.complete
        names = [span.name for span in trace.spans]
        assert names.count("cell") == 4
        assert names.count("chunk") == 4
        # Worker events replayed onto the parent bus with attribution.
        polls = obs.recorder.events("sampling.poll")
        assert polls
        assert all("worker" in event.fields and "chunk" in event.fields
                   for event in polls)

    def test_worker_kill_telemetry_attributed_to_accepting_worker(self):
        reference = _serial_reference(6)
        tasks = _task_grid(6)
        merged = []
        coordinator = SweepCoordinator(
            heartbeat_s=0.3, join_timeout_s=30.0, max_requeues=2,
            telemetry=True,
            telemetry_sink=lambda worker, chunk, payloads:
                merged.append((worker, chunk, payloads)))
        with coordinator:
            processes = spawn_local_workers(
                coordinator.address, 2, extra_args=("--heartbeat", "0.1"))
            try:
                results = [None] * len(tasks)
                pids = [None] * len(tasks)
                chunks = _chunk(list(enumerate(tasks)), 1)
                killed = False
                accepted = accepted_records(coordinator, chunks)
                for index, ok, payload, _, pid in accepted:
                    assert ok, payload
                    results[index] = payload
                    pids[index] = pid
                    if not killed:
                        processes[0].kill()  # SIGKILL, mid-sweep
                        killed = True
                assert killed
            finally:
                for process in processes:
                    process.kill()
                for process in processes:
                    process.wait(timeout=10.0)
        assert _dumps(results) == reference
        # Every chunk's telemetry merged exactly once — requeue losers and
        # the killed worker's half-shipped chunks are discarded.
        assert sorted(chunk for _, chunk, _ in merged) == list(range(6))
        # With chunk_size=1, chunk ids equal cell indexes: telemetry for a
        # chunk must come from the worker whose records were accepted.
        for worker_id, chunk_id, payloads in merged:
            assert payloads
            assert worker_id == "worker-{}".format(pids[chunk_id])
            assert all(payload["worker"] == worker_id
                       for payload in payloads)
            assert all(payload["cell"] == chunk_id
                       for payload in payloads)

    def test_plain_peers_interoperate_without_telemetry(self):
        # A coordinator not asked for telemetry sends 3-tuple task frames;
        # a default worker must not ship TELEMETRY frames back.
        coordinator = SweepCoordinator(heartbeat_s=0.5, join_timeout_s=10.0)
        chunks = _chunk(list(enumerate([_tiny_task()])), 1)
        records = []
        with coordinator:
            driver = threading.Thread(
                target=lambda: records.extend(
                    accepted_records(coordinator, chunks)),
                daemon=True)
            driver.start()
            worker = SweepWorker(*coordinator.address, worker_id="plain",
                                 heartbeat_s=0.1)
            thread = threading.Thread(target=worker.run, daemon=True)
            thread.start()
            driver.join(timeout=15.0)
            assert not driver.is_alive()
            thread.join(timeout=10.0)
        assert [record[1] for record in records] == [True]
        assert coordinator._telemetry == {}
