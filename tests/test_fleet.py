"""Crash-safe resumable sweeps over an authenticated, elastic fleet.

Covers the chunk journal + resume path (in-process simulated crashes and
a real SIGKILLed subprocess), the HMAC transport handshake (including
the reject-before-pickle guarantee), graceful worker drain, result
spooling across coordinator loss, the hang-not-crash requeue path, the
coordinator close() lifecycle, and the seeded FleetChaos schedule.
"""

import base64
import io
import json
import os
import pickle
import signal
import socket
import subprocess
import sys
import threading
import time
import zlib

import pytest

from repro.common.errors import (
    AuthenticationError,
    ConfigurationError,
    SweepError,
    TransportError,
)
from repro.engine import (
    CampaignTask,
    ChunkJournal,
    CloudSpec,
    SweepCoordinator,
    SweepEngine,
    SweepWorker,
    Transport,
    guard_hash_for_tasks,
)
from repro.engine.journal import CHUNKS_FILE
from repro.engine.protocol import (
    PROTOCOL_VERSION,
    client_auth,
    server_auth,
)
from repro.faults import CoordinatorCrash, FleetChaos, FleetEvent
from tests.helpers import accepted_records


def _tiny_task(seed=0, zone="us-west-1a"):
    return CampaignTask(CloudSpec.for_zones([zone], seed=seed), zone,
                        endpoints=3, n_requests=150, max_polls=2)


def _task_grid(n):
    return [_tiny_task(seed=seed) for seed in range(n)]


def _dumps(results):
    return [pickle.dumps(result) for result in results]


def _serial_reference(n):
    return _dumps(SweepEngine(workers=1).run(_task_grid(n)))


#: A pickle whose first opcode imports a module that is gone, as a
#: record written by an older release can be.
MISSING_MODULE_PICKLE = b"crepro.engine.no_such_module\nGone\n."


def _bad_crc(line):
    return line.replace('"crc32": ', '"crc32": 1')


def _missing_module_records(line):
    entry = json.loads(line)
    entry["records"] = base64.b64encode(MISSING_MODULE_PICKLE).decode()
    entry["crc32"] = zlib.crc32(MISSING_MODULE_PICKLE) & 0xFFFFFFFF
    return json.dumps(entry, sort_keys=True)


# ---------------------------------------------------------------------------
# chunk journal unit behavior
# ---------------------------------------------------------------------------

class TestChunkJournal:
    RECORDS = {0: [(0, True, "r0", 1.0, 42), (1, True, "r1", 2.0, 42)],
               1: [(2, True, "r2", 1.5, 43)]}

    def _write(self, directory, upto=2):
        journal = ChunkJournal(str(directory))
        journal.begin("guard-a", cells=3, chunk_size=2, chunks=2)
        for chunk_id in range(upto):
            indexes = [r[0] for r in self.RECORDS[chunk_id]]
            journal.append(chunk_id, indexes, self.RECORDS[chunk_id],
                           worker="w")
        journal.close()
        return journal

    def test_round_trip(self, tmp_path):
        self._write(tmp_path)
        loaded = ChunkJournal(str(tmp_path)).load(guard="guard-a",
                                                  cells=3)
        assert len(loaded) == 2
        assert loaded.replayed[0] == ([0, 1], self.RECORDS[0])
        assert loaded.replayed[1] == ([2], self.RECORDS[1])

    def test_guard_mismatch_refused(self, tmp_path):
        self._write(tmp_path)
        with pytest.raises(ConfigurationError, match="does not match"):
            ChunkJournal(str(tmp_path)).load(guard="guard-b")

    def test_cell_count_mismatch_refused(self, tmp_path):
        self._write(tmp_path)
        with pytest.raises(ConfigurationError, match="cells"):
            ChunkJournal(str(tmp_path)).load(guard="guard-a", cells=99)

    def test_truncated_tail_tolerated(self, tmp_path):
        self._write(tmp_path)
        path = os.path.join(str(tmp_path), CHUNKS_FILE)
        with open(path) as handle:
            lines = handle.read().splitlines()
        with open(path, "w") as handle:
            handle.write("\n".join(lines[:2]) + "\n" + lines[2][:37])
        loaded = ChunkJournal(str(tmp_path)).load(guard="guard-a")
        assert sorted(loaded.replayed) == [0]  # chunk 1 simply reruns

    def test_corrupt_payload_skips_only_its_line(self, tmp_path):
        # A CRC mismatch, and a CRC-valid pickle naming a module that no
        # longer exists: either way the line is undecodable and its
        # chunk reruns, while the chunk after it still replays.
        for damage in (_bad_crc, _missing_module_records):
            self._write(tmp_path)
            path = os.path.join(str(tmp_path), CHUNKS_FILE)
            with open(path) as handle:
                lines = handle.read().splitlines()
            lines[1] = damage(lines[1])
            with open(path, "w") as handle:
                handle.write("\n".join(lines) + "\n")
            loaded = ChunkJournal(str(tmp_path)).load(guard="guard-a")
            assert sorted(loaded.replayed) == [1], damage.__name__

    def test_append_after_torn_tail_starts_a_new_line(self, tmp_path):
        self._write(tmp_path)
        path = os.path.join(str(tmp_path), CHUNKS_FILE)
        with open(path) as handle:
            lines = handle.read().splitlines()
        with open(path, "w") as handle:
            handle.write("\n".join(lines[:2]) + "\n" + lines[2][:37])
        journal = ChunkJournal(str(tmp_path))
        journal.load(guard="guard-a")
        journal.reopen_for_append()
        journal.append(1, [2], self.RECORDS[1], worker="w")
        journal.close()
        loaded = ChunkJournal(str(tmp_path)).load(guard="guard-a")
        assert loaded.replayed[1] == ([2], self.RECORDS[1])
        assert sorted(loaded.replayed) == [0, 1]

    def test_append_requires_open_handle(self, tmp_path):
        journal = self._write(tmp_path)
        with pytest.raises(ConfigurationError, match="not open"):
            journal.append(5, [9], [(9, True, "x", 0.0, 1)])

    def test_guard_hash_is_deterministic(self):
        tasks = _task_grid(2)
        assert guard_hash_for_tasks(tasks) == \
            guard_hash_for_tasks(_task_grid(2))
        assert guard_hash_for_tasks(tasks) != \
            guard_hash_for_tasks(_task_grid(3))
        assert guard_hash_for_tasks(tasks).startswith("tasks:")


# ---------------------------------------------------------------------------
# journal + resume through the engine
# ---------------------------------------------------------------------------

class TestResume:
    def test_journaled_serial_run_matches_plain(self, tmp_path):
        n = 4
        journaled = SweepEngine(workers=1,
                                journal=str(tmp_path)).run(_task_grid(n))
        assert _dumps(journaled) == _serial_reference(n)
        loaded = ChunkJournal(str(tmp_path)).load()
        assert len(loaded) == loaded.header["chunks"]

    def test_crash_then_resume_is_byte_identical(self, tmp_path):
        n = 6
        reference = _serial_reference(n)

        calls = []

        def crash_after_two(chunk_id, records):
            calls.append(chunk_id)
            if len(calls) == 2:
                raise CoordinatorCrash(2)

        engine = SweepEngine(workers=1, chunk_size=1,
                             journal=str(tmp_path),
                             chunk_hook=crash_after_two)
        with pytest.raises(CoordinatorCrash):
            engine.run(_task_grid(n))
        assert len(ChunkJournal(str(tmp_path)).load()) == 2

        resumed = SweepEngine(workers=1,
                              resume=str(tmp_path)).run(_task_grid(n))
        assert _dumps(resumed) == reference
        # The journal is now complete and a second resume replays
        # everything without running a single cell.
        ran = []
        again = SweepEngine(workers=1, resume=str(tmp_path),
                            chunk_hook=lambda c, r: ran.append(c)
                            ).run(_task_grid(n))
        assert _dumps(again) == reference
        assert ran == []

    def test_damaged_middle_line_reruns_once(self, tmp_path):
        # Only the damaged chunk reruns, its rerun lands on a line of its
        # own, and the next resume finds the journal complete.
        from repro.cli import main

        run_dir = str(tmp_path / "run")
        path = os.path.join(run_dir, CHUNKS_FILE)
        base = ["--seed", "7", "sweep", "campaign",
                "--zones", "us-west-1a,us-west-1b", "--seeds", "0,1,2,3",
                "--chunk", "1", "--workers", "1", "--polls", "2",
                "--endpoints", "3", "--requests", "150"]
        reference = str(tmp_path / "reference.json")
        assert main(base + ["--record", run_dir, "--json", reference],
                    out=io.StringIO()) == 0

        def journal_lines():
            with open(path) as handle:
                return handle.read().splitlines()

        lines = journal_lines()
        assert len(lines) == 9  # header + 8 chunks
        chunk_two = next(i for i, line in enumerate(lines)
                         if json.loads(line).get("chunk") == 2)
        lines[chunk_two] = _bad_crc(lines[chunk_two])
        with open(path, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        resumed = str(tmp_path / "resumed.json")
        for _ in range(2):
            assert main(base + ["--resume", run_dir, "--json", resumed],
                        out=io.StringIO()) == 0
            with open(reference, "rb") as ref, open(resumed, "rb") as got:
                assert got.read() == ref.read()
            appended = journal_lines()[len(lines):]
            assert [json.loads(line)["chunk"] for line in appended] == [2]

    def test_resume_into_pool_backend(self, tmp_path):
        n = 6
        reference = _serial_reference(n)
        calls = []

        def crash_after_three(chunk_id, records):
            calls.append(chunk_id)
            if len(calls) == 3:
                raise CoordinatorCrash(3)

        with pytest.raises(CoordinatorCrash):
            SweepEngine(workers=1, chunk_size=1, journal=str(tmp_path),
                        chunk_hook=crash_after_three).run(_task_grid(n))
        resumed = SweepEngine(workers=2,
                              resume=str(tmp_path)).run(_task_grid(n))
        assert _dumps(resumed) == reference

    def test_resume_respects_grid_hash_guard(self, tmp_path):
        SweepEngine(workers=1, journal=str(tmp_path)).run(
            _task_grid(2), grid_hash="grid-one")
        with pytest.raises(ConfigurationError, match="does not match"):
            SweepEngine(workers=1, resume=str(tmp_path)).run(
                _task_grid(2), grid_hash="grid-two")

    def test_resume_without_journal_refused(self, tmp_path):
        with pytest.raises(ConfigurationError, match="no chunk journal"):
            SweepEngine(workers=1,
                        resume=str(tmp_path / "nope")).run(_task_grid(2))

    def test_infra_failures_are_not_journaled(self, tmp_path):
        # Chunk-failure placeholder records (pid -1 + chunk_failure flag)
        # must be retried on resume, not replayed as gospel.
        fired = []
        engine = SweepEngine(workers=1, chunk_size=1,
                             journal=str(tmp_path),
                             chunk_hook=lambda c, r: fired.append(c))
        tasks = _task_grid(2)
        records = [(0, False, ("TransportError", "lost", True), 0.0, -1)]
        state = {"results": [None, None], "failures": [], "busy_ms": 0.0}
        engine._journal = ChunkJournal(str(tmp_path)).begin(
            "g", 2, 1, 2)
        engine._accept_chunk(0, [(0, tasks[0])], records, state, 0.0,
                             worker=None)
        engine._journal.close()
        assert len(ChunkJournal(str(tmp_path)).load()) == 0
        assert fired == []
        assert state["failures"][0].chunk_failure

    def test_replay_emits_resumed_event(self, tmp_path):
        from repro.obs import Observability

        n = 4
        with pytest.raises(CoordinatorCrash):
            SweepEngine(workers=1, chunk_size=1, journal=str(tmp_path),
                        chunk_hook=lambda c, r: (_ for _ in ()).throw(
                            CoordinatorCrash(1))).run(_task_grid(n))
        obs = Observability()
        events = []
        obs.bus.subscribe(lambda e: events.append(e), "sweep.resumed")
        SweepEngine(workers=1, resume=str(tmp_path),
                    obs=obs).run(_task_grid(n))
        assert len(events) == 1
        assert events[0].fields["chunks"] == 1
        assert events[0].fields["cells"] == 1
        cell_events = obs.recorder.events("sweep.cell")
        replayed = [e for e in cell_events
                    if e.fields.get("replayed")]
        assert len(cell_events) == n
        assert len(replayed) == 1


# ---------------------------------------------------------------------------
# authenticated transport
# ---------------------------------------------------------------------------

def _auth_pair(server_token, client_token):
    server_sock, client_sock = socket.socketpair()
    box = {}

    def serve():
        try:
            box["server"] = server_auth(server_sock, server_token,
                                        timeout=5.0)
        except AuthenticationError as error:
            box["server_error"] = error
            server_sock.close()  # unblock the peer immediately

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        box["client"] = client_auth(client_sock, client_token,
                                    timeout=5.0)
    except AuthenticationError as error:
        box["client_error"] = error
    thread.join(timeout=5.0)
    return box, server_sock, client_sock


class TestAuth:
    def test_handshake_round_trip(self):
        box, server_sock, client_sock = _auth_pair("tok", "tok")
        assert box.get("server") == PROTOCOL_VERSION
        assert box.get("client") == PROTOCOL_VERSION
        # The sockets still carry framed pickles afterwards.
        Transport(client_sock).send(("hello", "w", 1))
        assert Transport(server_sock).recv(timeout=5.0) == \
            ("hello", "w", 1)

    def test_wrong_token_rejected(self):
        box, _, _ = _auth_pair("tok", "wrong")
        assert "server_error" in box

    def test_anonymous_peer_rejected_before_any_pickle(self, monkeypatch):
        # A legacy peer sends a framed pickled hello; the token-protected
        # coordinator must drop it without ever calling pickle.loads.
        import repro.engine.protocol as protocol

        loads_calls = []
        real_loads = protocol.pickle.loads

        def spying_loads(*args, **kwargs):
            loads_calls.append(args)
            return real_loads(*args, **kwargs)

        monkeypatch.setattr(protocol.pickle, "loads", spying_loads)
        rejected = []
        coordinator = SweepCoordinator(
            auth_token="tok", heartbeat_s=0.1,
            emit=lambda name, **fields: rejected.append(name)
            if name == "sweep.auth_rejected" else None).start()
        try:
            raw = socket.create_connection(coordinator.address,
                                           timeout=5.0)
            # Speak the anonymous protocol at an authenticated port.
            Transport(raw).send(("hello", "legacy", 123))
            raw.settimeout(5.0)
            # Drain until the coordinator hangs up on us.
            while True:
                try:
                    if raw.recv(4096) == b"":
                        break
                except OSError:
                    break
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and not rejected:
                time.sleep(0.02)
            assert rejected == ["sweep.auth_rejected"]
            assert coordinator.workers_seen == 0
            assert loads_calls == []
        finally:
            coordinator.close()

    def test_worker_with_wrong_token_raises(self):
        coordinator = SweepCoordinator(auth_token="right",
                                       heartbeat_s=0.1).start()
        try:
            worker = SweepWorker(*coordinator.address, token="wrong",
                                 heartbeat_s=0.1, max_reconnects=1)
            with pytest.raises(AuthenticationError):
                worker.run()
            assert coordinator.workers_seen == 0
        finally:
            coordinator.close()

    def test_anonymous_worker_fails_fast_not_forever(self):
        # A token-less worker dialing a token-protected coordinator sees
        # the AUTH preamble where a frame header should be.  That is a
        # configuration error, not a flaky link: it must surface as
        # AuthenticationError instead of burning the reconnect budget
        # (or, with the old retry-reset behaviour, looping forever).
        coordinator = SweepCoordinator(auth_token="tok",
                                       heartbeat_s=0.1).start()
        try:
            worker = SweepWorker(*coordinator.address,
                                 worker_id="anon", heartbeat_s=0.1,
                                 max_reconnects=8)
            start = time.monotonic()
            with pytest.raises(AuthenticationError):
                worker.run()
            assert time.monotonic() - start < 10.0
            assert coordinator.workers_seen == 0
        finally:
            coordinator.close()

    def test_end_to_end_authenticated_sweep(self):
        n = 4
        reference = _serial_reference(n)
        results = SweepEngine(workers=2, backend="remote",
                              remote_workers=2, heartbeat_s=0.1,
                              join_timeout_s=30.0,
                              auth_token="s3cret").run(_task_grid(n))
        assert _dumps(results) == reference


# ---------------------------------------------------------------------------
# elastic workers: drain + spool
# ---------------------------------------------------------------------------

class TestElasticity:
    def test_graceful_drain_leaves_without_requeue(self):
        from repro.engine.executor import _run_chunk

        n = 6
        chunks = [[(i, _tiny_task(seed=i))] for i in range(n)]
        events = []
        coordinator = SweepCoordinator(
            heartbeat_s=0.1, join_timeout_s=30.0,
            emit=lambda name, **fields: events.append((name, fields)))
        coordinator.start()
        drain = threading.Event()

        def drain_after_first(chunk, **options):
            # Finish the chunk in hand, then ask to leave — the SIGTERM
            # drain path, minus the signal.
            outcome = _run_chunk(chunk, **options)
            drain.set()
            return outcome

        records = []
        consumer = threading.Thread(
            target=lambda: records.extend(
                accepted_records(coordinator, chunks)),
            daemon=True)
        consumer.start()
        stayer = SweepWorker(*coordinator.address, worker_id="stay",
                             heartbeat_s=0.1)
        leaver = SweepWorker(*coordinator.address, worker_id="leave",
                             heartbeat_s=0.1,
                             run_chunk=drain_after_first)
        stay_thread = threading.Thread(target=stayer.run, daemon=True)
        leave_thread = threading.Thread(
            target=lambda: leaver.run(drain=drain), daemon=True)
        stay_thread.start()
        leave_thread.start()
        consumer.join(timeout=60.0)
        coordinator.close()
        leave_thread.join(timeout=10.0)
        assert not consumer.is_alive()
        assert not leave_thread.is_alive()
        assert sorted(r[0] for r in records) == list(range(n))
        names = [name for name, _ in events]
        assert "sweep.worker_left" in names
        assert "sweep.chunk_requeued" not in names

    def test_spooled_result_replays_after_reconnect(self, tmp_path):
        # First connection: the transport dies on the result send, so
        # the worker spools the finished chunk.  Second connection is
        # healthy and must replay the spool before serving new work.
        spool_dir = str(tmp_path / "spool")
        chunk = [(0, _tiny_task())]
        coordinator = SweepCoordinator(heartbeat_s=0.2,
                                       join_timeout_s=30.0,
                                       max_requeues=1)
        coordinator.start()
        from repro.engine.protocol import connect as real_connect
        dial_count = [0]

        class ResultDropper(object):
            def __init__(self, inner):
                self._inner = inner

            def send(self, message):
                if isinstance(message, tuple) \
                        and message[0] == "result":
                    self._inner.close()
                    raise TransportError("injected loss on result send")
                self._inner.send(message)

            def recv(self, timeout=None):
                return self._inner.recv(timeout=timeout)

            def close(self):
                self._inner.close()

            @property
            def closed(self):
                return self._inner.closed

        def factory(host, port):
            dial_count[0] += 1
            transport = real_connect(host, port)
            if dial_count[0] == 1:
                return ResultDropper(transport)
            return transport

        worker = SweepWorker(*coordinator.address, worker_id="spooler",
                             heartbeat_s=0.2, spool=spool_dir,
                             transport_factory=factory)
        records = []
        consumer = threading.Thread(
            target=lambda: records.extend(
                accepted_records(coordinator, [chunk])),
            daemon=True)
        consumer.start()
        worker_thread = threading.Thread(target=worker.run, daemon=True)
        worker_thread.start()
        consumer.join(timeout=60.0)
        coordinator.close()
        assert not consumer.is_alive()
        assert [r[0] for r in records] == [0]
        assert all(ok for _, ok, _, _, _ in records)
        # The spool file was consumed on replay.
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and os.listdir(spool_dir):
            time.sleep(0.02)
        assert os.listdir(spool_dir) == []

    def test_spool_write_and_replay_roundtrip(self, tmp_path):
        worker = SweepWorker("127.0.0.1", 1, spool=str(tmp_path))
        records = [(3, True, "payload", 1.0, 99)]
        worker._spool_result(7, records)
        assert worker._spooled_chunks() == [7]
        sent = []

        class FakeTransport(object):
            def send(self, message):
                sent.append(message)

        worker._replay_spool(FakeTransport())
        assert sent == [("result", 7, records)]
        assert worker._spooled_chunks() == []

    def test_undecodable_spool_entry_is_skipped(self, tmp_path):
        # A spool file whose pickle names a module that no longer
        # exists is left alone like any corrupt entry; its chunk reruns
        # and the readable entries still replay.
        worker = SweepWorker("127.0.0.1", 1, spool=str(tmp_path))
        records = [(3, True, "payload", 1.0, 99)]
        worker._spool_result(7, records)
        with open(worker._spool_path(4), "wb") as handle:
            handle.write(MISSING_MODULE_PICKLE)
        sent = []

        class FakeTransport(object):
            def send(self, message):
                sent.append(message)

        worker._replay_spool(FakeTransport())
        assert sent == [("result", 7, records)]
        assert worker._spooled_chunks() == [4]


# ---------------------------------------------------------------------------
# hang (not crash): deadline requeue, exactly once
# ---------------------------------------------------------------------------

class TestHangPath:
    def test_stalled_worker_requeues_once_and_output_is_identical(self):
        from repro.engine.executor import _run_chunk

        n = 3
        reference = _serial_reference(n)
        chunks = [[(i, task)] for i, task in enumerate(_task_grid(n))]
        events = []
        coordinator = SweepCoordinator(
            heartbeat_s=0.1, chunk_deadline_s=0.6, join_timeout_s=30.0,
            max_requeues=1,
            emit=lambda name, **fields: events.append((name, fields)))
        coordinator.start()
        stalled = threading.Event()

        def stalling_run_chunk(chunk, **options):
            if not stalled.is_set():
                stalled.set()
                # Accept the first chunk, then hang well past the
                # deadline while heartbeats keep flowing: a live-but-
                # stuck worker, not a dead one.  After the coordinator
                # cuts the connection the worker reconnects and behaves.
                time.sleep(2.0)
            return _run_chunk(chunk, **options)

        # A single worker keeps the schedule deterministic: it stalls on
        # chunk 0, the deadline requeues it, and the same worker serves
        # everything after its reconnect.
        hanger = SweepWorker(*coordinator.address, worker_id="hanger",
                             heartbeat_s=0.1,
                             run_chunk=stalling_run_chunk)
        records = []
        consumer = threading.Thread(
            target=lambda: records.extend(
                accepted_records(coordinator, chunks)),
            daemon=True)
        consumer.start()
        threading.Thread(target=hanger.run, daemon=True).start()
        consumer.join(timeout=60.0)
        coordinator.close()
        assert not consumer.is_alive()
        merged = [None] * n
        for index, ok, payload, _, _ in records:
            assert ok
            merged[index] = payload
        assert _dumps(merged) == reference
        requeues = [f for name, f in events
                    if name == "sweep.chunk_requeued"]
        assert len(requeues) == 1
        assert requeues[0]["chunk"] == 0


# ---------------------------------------------------------------------------
# coordinator lifecycle
# ---------------------------------------------------------------------------

class TestLifecycle:
    def test_close_joins_accept_thread(self):
        coordinator = SweepCoordinator(heartbeat_s=0.1).start()
        accept_thread = coordinator._accept_thread
        coordinator.close()
        assert not accept_thread.is_alive()
        assert coordinator._accept_thread is None

    def test_finished_handlers_are_pruned(self):
        coordinator = SweepCoordinator(heartbeat_s=0.1).start()
        try:
            for _ in range(5):
                raw = socket.create_connection(coordinator.address,
                                               timeout=5.0)
                transport = Transport(raw)
                transport.send(("hello", "hit-and-run", 1))
                transport.close()
                time.sleep(0.05)
            # One more connect triggers the prune of the dead five.
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                raw = socket.create_connection(coordinator.address,
                                               timeout=5.0)
                raw.close()
                time.sleep(0.1)
                if len(coordinator._handlers) <= 3:
                    break
            assert len(coordinator._handlers) <= 3
        finally:
            coordinator.close()


# ---------------------------------------------------------------------------
# fleet chaos schedule
# ---------------------------------------------------------------------------

class TestFleetChaos:
    def test_seeded_schedule_is_deterministic(self):
        one = FleetChaos.seeded(7, chunks=10, workers=3).plan()
        two = FleetChaos.seeded(7, chunks=10, workers=3).plan()
        other = FleetChaos.seeded(8, chunks=10, workers=3).plan()
        assert one == two
        assert one != other
        for event in one:
            assert 1 <= event["at_chunk"] <= 10
            assert event["target"].startswith("worker-")

    def test_chunk_hook_fires_events_in_order(self):
        fired = []
        chaos = FleetChaos(
            [FleetEvent(2, "kill_worker", target="worker-0"),
             FleetEvent(3, "term_worker", target="worker-1")],
            on_event=lambda event: fired.append(event.kind))
        for chunk_id in range(4):
            chaos.chunk_hook(chunk_id, [])
        assert fired == ["kill_worker", "term_worker"]
        assert not chaos.pending()

    def test_coordinator_crash_raises_through_hook(self):
        chaos = FleetChaos([FleetEvent(1, "coordinator_crash")])
        with pytest.raises(CoordinatorCrash):
            chaos.chunk_hook(0, [])

    def test_unregistered_target_is_skipped(self):
        chaos = FleetChaos([FleetEvent(1, "kill_worker",
                                       target="worker-9")])
        chaos.chunk_hook(0, [])  # must not raise
        assert chaos.events[0].fired

    def test_chaos_crash_plus_resume_is_byte_identical(self, tmp_path):
        n = 6
        reference = _serial_reference(n)
        chaos = FleetChaos([FleetEvent(2, "coordinator_crash")])
        with pytest.raises(CoordinatorCrash):
            SweepEngine(workers=1, chunk_size=1, journal=str(tmp_path),
                        chunk_hook=chaos.chunk_hook).run(_task_grid(n))
        assert len(ChunkJournal(str(tmp_path)).load()) == 2
        resumed = SweepEngine(workers=1,
                              resume=str(tmp_path)).run(_task_grid(n))
        assert _dumps(resumed) == reference


# ---------------------------------------------------------------------------
# the real thing: SIGKILL a recorded subprocess sweep, then --resume
# ---------------------------------------------------------------------------

_PARK_AFTER_FIRST_CHUNK = """
import sys, time
from repro.cli import main
from repro.engine.journal import ChunkJournal
_append = ChunkJournal.append
def _append_then_park(self, *args, **kwargs):
    _append(self, *args, **kwargs)
    while True:
        time.sleep(1.0)
ChunkJournal.append = _append_then_park
sys.exit(main(sys.argv[1:]))
"""


class TestKillNineResume:
    def test_sigkilled_sweep_resumes_byte_identical(self, tmp_path):
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            __file__))) + os.sep + "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        run_dir = str(tmp_path / "run")
        base = [sys.executable, "-m", "repro", "sweep", "campaign",
                "--zones", "us-west-1a,us-west-1b", "--seeds", "0,1,2",
                "--polls", "2", "--endpoints", "3", "--requests", "150"]
        reference = str(tmp_path / "reference.json")
        subprocess.run(base + ["--workers", "1", "--json", reference],
                       env=env, check=True, capture_output=True,
                       timeout=300)

        # A chunk takes about a millisecond, so a victim left to run would
        # race the poll below to the end of the sweep.  It parks instead
        # right after its first durable journal append, which makes the
        # external kill -9 land mid-sweep on every run.
        victim = subprocess.Popen(
            [sys.executable, "-c", _PARK_AFTER_FIRST_CHUNK]
            + base[3:] + ["--workers", "1", "--chunk", "1", "--record",
                          run_dir, "--json", str(tmp_path / "victim.json")],
            env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        journal_path = os.path.join(run_dir, CHUNKS_FILE)
        deadline = time.monotonic() + 240.0
        journaled = 0
        try:
            # Wait until the first chunk is journaled, then kill -9.
            while time.monotonic() < deadline:
                if os.path.exists(journal_path):
                    with open(journal_path) as handle:
                        journaled = sum(1 for line in handle
                                        if '"kind": "chunk"' in line)
                    if journaled >= 1:
                        break
                if victim.poll() is not None:
                    break
                time.sleep(0.02)
            if victim.poll() is None:
                victim.send_signal(signal.SIGKILL)
            victim.wait(timeout=30.0)
        finally:
            if victim.poll() is None:
                victim.kill()
        assert victim.returncode == -signal.SIGKILL
        assert journaled == 1
        assert len(ChunkJournal(run_dir).load()) == 1

        resumed_json = str(tmp_path / "resumed.json")
        subprocess.run(
            base + ["--resume", run_dir, "--json", resumed_json],
            env=env, check=True, capture_output=True, timeout=300)
        with open(reference, "rb") as ref, open(resumed_json,
                                                "rb") as res:
            assert ref.read() == res.read()


# ---------------------------------------------------------------------------
# manifest interrupted guard
# ---------------------------------------------------------------------------

class TestInterruptedGuard:
    def test_guard_stamps_interrupted(self, tmp_path):
        from repro.obs.manifest import RunManifest

        manifest = RunManifest.begin(str(tmp_path), "sweep-test",
                                     registry=None)
        manifest.install_guard()
        manifest._guard()
        loaded = RunManifest.load(str(tmp_path))
        assert loaded.data["status"] == "interrupted"
        assert loaded.data["finished_unix"] is not None

    def test_guard_disarmed_by_finalize(self, tmp_path):
        from repro.obs.manifest import RunManifest

        manifest = RunManifest.begin(str(tmp_path), "sweep-test",
                                     registry=None)
        manifest.install_guard()
        manifest.finalize(summary={"ok": True})
        manifest._guard()
        assert RunManifest.load(
            str(tmp_path)).data["status"] == "complete"

    def test_sigint_stamps_interrupted_subprocess(self, tmp_path):
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            __file__))) + os.sep + "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        script = (
            "import signal, sys, time\n"
            "from repro.obs.manifest import RunManifest\n"
            "m = RunManifest.begin({!r}, 'guard-test', registry=None)\n"
            "m.install_guard()\n"
            "sys.stdout.write('armed\\n'); sys.stdout.flush()\n"
            "time.sleep(60)\n".format(str(tmp_path)))
        process = subprocess.Popen([sys.executable, "-c", script],
                                   env=env, stdout=subprocess.PIPE,
                                   text=True)
        try:
            assert process.stdout.readline().strip() == "armed"
            process.send_signal(signal.SIGINT)
            process.wait(timeout=30.0)
        finally:
            if process.poll() is None:
                process.kill()
        from repro.obs.manifest import RunManifest
        assert RunManifest.load(
            str(tmp_path)).data["status"] == "interrupted"
