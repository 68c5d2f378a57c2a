"""Distributed sweep backend: a socket coordinator and its workers.

The local pool backend tops out at one machine.  This module fans the
same chunked ``(index, task)`` work units over TCP instead:

* :class:`SweepCoordinator` serves the engine's chunk plan
  (:meth:`~SweepCoordinator.run_chunks`): it listens on a socket, hands
  chunks to whichever workers connect, and streams back the exact
  ``(index, ok, payload, wall_ms, pid)`` records the engine's one chunk
  runner (``executor._run_chunk``) produces — so the engine accepts
  remote chunks through its normal path and the output stays
  byte-identical to ``workers=1`` at any worker count and any
  disconnect pattern;
* :class:`SweepWorker` (``python -m repro sweep-worker --connect
  host:port``) dials in, heartbeats, runs each chunk through that same
  runner, and reconnects with
  :class:`~repro.core.resilience.ExponentialBackoff` when the link
  drops;
* :func:`spawn_local_workers` launches loopback worker subprocesses for
  single-box scale-out (the benchmark's remote mode) and CI smoke runs.

Robustness model: every worker heartbeats while connected; the
coordinator treats a silent or disconnected worker as lost, requeues its
in-flight chunk (once per loss, ``max_requeues`` total), and only after
the requeue budget is spent converts the chunk into the deterministic
``chunk_failure`` records every backend uses
(:func:`~repro.engine.executor.chunk_failure_records`).  Re-executed
chunks are harmless — tasks are pure functions of their spec, and the
coordinator deduplicates results by chunk id, first finisher wins.  The
lifecycle is observable through ``sweep.worker_joined`` /
``sweep.worker_lost`` / ``sweep.worker_left`` / ``sweep.chunk_requeued``
events and per-worker utilization gauges.

Fleet hardening on top of that baseline:

* ``auth_token`` arms the HMAC challenge-response handshake
  (:func:`repro.engine.protocol.server_auth`) — unauthenticated peers
  are rejected **before any pickle is deserialized**;
* workers drain gracefully on request (``drain`` event, SIGTERM in the
  CLI): they finish the chunk in hand, send a ``("leave", ...)`` frame,
  and deregister without burning a requeue;
* workers given a ``spool`` directory persist results they cannot
  deliver (coordinator unreachable) and replay them on reconnect; the
  coordinator accepts replayed results at any point and deduplicates by
  chunk id, so a coordinator restart plus ``--resume`` loses nothing.
"""

import os
import pickle
import queue
import socket
import threading
import time
import zlib

from repro.common.errors import (
    AuthenticationError,
    TransportError,
    TransportTimeout,
)
from repro.engine.executor import (
    _run_chunk,
    check_liveness,
    chunk_failure_records,
)
from repro.engine.journal import UNDECODABLE
from repro.engine.protocol import Transport, connect, server_auth

#: Environment variable carrying the shared sweep secret (never put it
#: on a command line, where ``ps`` would leak it).
TOKEN_ENV = "REPRO_SWEEP_TOKEN"

#: recv windows tolerate this many missed heartbeats before a worker is
#: declared silent.
HEARTBEAT_TOLERANCE = 3.0

_HELLO_TIMEOUT_FLOOR_S = 5.0


class _WorkerStats(object):
    """Cumulative per-worker accounting across reconnects."""

    __slots__ = ("worker_id", "pid", "busy_ms", "chunks_done", "connects",
                 "losses")

    def __init__(self, worker_id):
        self.worker_id = worker_id
        self.pid = None
        self.busy_ms = 0.0
        self.chunks_done = 0
        self.connects = 0
        self.losses = 0

    def to_dict(self):
        return {"worker": self.worker_id, "pid": self.pid,
                "busy_ms": round(self.busy_ms, 3),
                "chunks_done": self.chunks_done,
                "connects": self.connects, "losses": self.losses}


class SweepCoordinator(object):
    """Serves task chunks to socket workers and collects their records.

    ``emit(name, **fields)`` is an optional observability callback (the
    engine binds its own event emitter); it fires from worker-handler
    threads.  ``chunk_deadline_s=None`` disables the per-chunk runtime
    deadline — heartbeat loss and disconnects still detect dead workers.
    """

    def __init__(self, host="127.0.0.1", port=0, heartbeat_s=1.0,
                 chunk_deadline_s=None, join_timeout_s=10.0,
                 max_requeues=1, emit=None, telemetry=False,
                 telemetry_sink=None, auth_token=None):
        check_liveness(heartbeat_s, join_timeout_s, chunk_deadline_s,
                       max_requeues)
        self.host = host
        self.port = int(port)
        #: Shared secret; None keeps the explicit anonymous loopback
        #: mode.  With a token set, every accepted socket must pass the
        #: HMAC handshake before its first pickled frame is read.
        self.auth_token = auth_token
        self.heartbeat_s = float(heartbeat_s)
        self.chunk_deadline_s = (float(chunk_deadline_s)
                                 if chunk_deadline_s is not None else None)
        self.join_timeout_s = float(join_timeout_s)
        self.max_requeues = int(max_requeues)
        self._emit_callback = emit
        #: When true, task frames ask workers to capture and ship
        #: telemetry; payloads are buffered per ``(chunk, worker)`` and
        #: handed to ``telemetry_sink(worker_id, chunk_id, payloads)``
        #: from the engine thread when that worker's result is accepted
        #: — requeue losers and duplicate finishers are discarded, so
        #: merged telemetry matches the accepted results exactly.
        self.telemetry = bool(telemetry)
        self._telemetry_sink = telemetry_sink
        self._telemetry = {}
        self.address = None
        self._server = None
        self._accept_thread = None
        self._handlers = []
        self._pending = queue.Queue()
        self._results = queue.Queue()
        self._attempts = {}
        self._lock = threading.Lock()
        self._connected = set()
        self._stats = {}
        self._done = threading.Event()
        self._drained = threading.Event()

    # -- observability -----------------------------------------------------
    def _emit(self, name, **fields):
        if self._emit_callback is not None:
            self._emit_callback(name, **fields)

    def worker_stats(self):
        """Per-worker accounting, sorted by worker id."""
        with self._lock:
            return [self._stats[key].to_dict()
                    for key in sorted(self._stats)]

    @property
    def workers_seen(self):
        with self._lock:
            return len(self._stats)

    @property
    def workers_connected(self):
        with self._lock:
            return len(self._connected)

    # -- lifecycle ---------------------------------------------------------
    def start(self):
        """Bind, listen, and start accepting workers.  Returns self."""
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            server.bind((self.host, self.port))
            server.listen(64)
        except OSError as error:
            server.close()
            raise TransportError(
                "cannot listen on {}:{}: {}".format(self.host, self.port,
                                                    error)) from error
        server.settimeout(0.2)
        self._server = server
        self.address = server.getsockname()[:2]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="sweep-coordinator-accept",
            daemon=True)
        self._accept_thread.start()
        return self

    def close(self):
        """Stop accepting, disconnect workers, join all threads."""
        self._done.set()
        self._drained.set()
        if self._server is not None:
            try:
                self._server.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2.0)
            self._accept_thread = None
        for thread in list(self._handlers):
            thread.join(timeout=2.0)
        self._handlers = [t for t in self._handlers if t.is_alive()]

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info):
        self.close()
        return False

    # -- accept / handler threads ------------------------------------------
    def _accept_loop(self):
        while not self._done.is_set():
            try:
                sock, addr = self._server.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # server socket closed
            thread = threading.Thread(
                target=self._handshake_and_serve, args=(sock, addr),
                name="sweep-coordinator-worker", daemon=True)
            # Finished handlers would otherwise pile up for the whole
            # sweep (every reconnect adds one); prune the dead here, on
            # the only thread that appends.
            self._handlers = [t for t in self._handlers if t.is_alive()]
            self._handlers.append(thread)
            thread.start()

    def _handshake_and_serve(self, sock, addr):
        """Authenticate the raw socket (token mode), then serve it.

        The handshake runs on raw ``struct``-framed bytes — a peer that
        fails it is disconnected before :class:`Transport` ever calls
        ``pickle.loads`` on its data.
        """
        if self.auth_token is not None:
            try:
                server_auth(sock, self.auth_token,
                            timeout=max(_HELLO_TIMEOUT_FLOOR_S,
                                        self.heartbeat_s
                                        * HEARTBEAT_TOLERANCE))
            except AuthenticationError as error:
                self._emit("sweep.auth_rejected",
                           addr="{}:{}".format(*addr), reason=str(error))
                try:
                    sock.close()
                except OSError:
                    pass
                return
        sock.settimeout(None)
        self._serve_worker(Transport(sock), addr)

    def _register(self, worker_id, pid):
        with self._lock:
            stats = self._stats.setdefault(worker_id,
                                           _WorkerStats(worker_id))
            stats.pid = pid
            stats.connects += 1
            self._connected.add(worker_id)
            return stats

    def _serve_worker(self, transport, addr):
        hello_timeout = max(_HELLO_TIMEOUT_FLOOR_S,
                            self.heartbeat_s * HEARTBEAT_TOLERANCE)
        try:
            hello = transport.recv(timeout=hello_timeout)
        except TransportError:
            transport.close()
            return
        if not (isinstance(hello, tuple) and len(hello) == 3
                and hello[0] == "hello"):
            transport.close()
            return
        _, worker_id, pid = hello
        stats = self._register(worker_id, pid)
        self._emit("sweep.worker_joined", worker=worker_id, pid=pid,
                   addr="{}:{}".format(*addr))
        assignment = None
        dispatched_at = None
        try:
            while not self._done.is_set():
                # Absorb frames the worker sends while unassigned —
                # heartbeats, spool-replayed results from a previous
                # incarnation, or a graceful leave.
                if not self._poll_idle(transport, worker_id, stats):
                    self._emit("sweep.worker_left", worker=worker_id)
                    return
                try:
                    assignment = self._pending.get(timeout=0.05)
                except queue.Empty:
                    if self._drained.is_set():
                        break
                    continue
                chunk_id, chunk = assignment
                dispatched_at = time.monotonic()
                transport.send(("task", chunk_id, chunk, self.telemetry))
                records = self._await_result(transport, chunk_id,
                                             worker_id, stats)
                assignment = None
                self._deliver(chunk_id, records, worker_id, stats)
            try:
                transport.send(("bye",))
            except TransportError:
                pass
        except _WorkerLeft:
            # Graceful departure mid-assignment (the worker drained
            # before taking the task off the wire): requeue for free —
            # this is elasticity, not a failure, so no attempt is
            # charged against the chunk's requeue budget.
            self._emit("sweep.worker_left", worker=worker_id)
            if assignment is not None:
                self._pending.put(assignment)
        except TransportError as error:
            stats.losses += 1
            if assignment is not None and dispatched_at is not None:
                # The worker burned real time on a chunk that never
                # completed; count it so utilization doesn't under-report
                # flaky workers (successful chunks use the workers' own
                # per-cell wall times instead).
                stats.busy_ms += (time.monotonic() - dispatched_at) \
                    * 1000.0
            self._emit("sweep.worker_lost", worker=worker_id,
                       reason=str(error))
            if assignment is not None:
                self._requeue_or_fail(assignment, worker_id, error)
        finally:
            transport.close()
            with self._lock:
                self._connected.discard(worker_id)

    def _poll_idle(self, transport, worker_id, stats):
        """Drain ready frames from an unassigned worker.

        Returns False when the worker announced a graceful leave.
        Raises :class:`TransportError` on a real disconnect.
        """
        while True:
            try:
                message = transport.recv(timeout=0.01)
            except TransportTimeout:
                return True  # nothing waiting; go look for work
            kind = message[0] if isinstance(message, tuple) else None
            if kind == "heartbeat":
                continue
            if kind == "telemetry":
                self._buffer_telemetry(message[1], worker_id, message[2])
                continue
            if kind == "result":
                # A spool replay from before a disconnect: accept it —
                # the run loop deduplicates by chunk id.
                self._deliver(message[1], message[2], worker_id, stats)
                continue
            if kind == "leave":
                try:
                    transport.send(("bye",))
                except TransportError:
                    pass
                return False
            raise TransportError(
                "unexpected message kind {!r}".format(kind))

    def _deliver(self, chunk_id, records, worker_id, stats):
        """Credit ``worker_id`` and queue the records for the run loop."""
        stats.busy_ms += sum(record[3] for record in records)
        stats.chunks_done += 1
        self._results.put((chunk_id, records, worker_id))

    def _await_result(self, transport, chunk_id, worker_id, stats):
        """Wait for ``chunk_id``'s records, absorbing heartbeats (and
        buffering telemetry frames).

        Raises :class:`TransportError` when the worker disconnects, goes
        silent past the heartbeat tolerance, or blows the chunk deadline;
        :class:`_WorkerLeft` when it announces a graceful drain instead
        of taking the task.
        """
        sent_at = time.monotonic()
        while True:
            window = self.heartbeat_s * HEARTBEAT_TOLERANCE
            if self.chunk_deadline_s is not None:
                remaining = (self.chunk_deadline_s
                             - (time.monotonic() - sent_at))
                if remaining <= 0.0:
                    raise TransportError(
                        "chunk {} exceeded its {:.1f}s deadline".format(
                            chunk_id, self.chunk_deadline_s))
                window = min(window, remaining)
            try:
                message = transport.recv(timeout=window)
            except TransportTimeout:
                raise TransportError(
                    "worker went silent (no heartbeat within "
                    "{:.1f}s)".format(window))
            kind = message[0] if isinstance(message, tuple) else None
            if kind == "heartbeat":
                continue
            if kind == "telemetry":
                self._buffer_telemetry(message[1], worker_id, message[2])
                continue
            if kind == "leave":
                raise _WorkerLeft()
            if kind == "result":
                if message[1] == chunk_id:
                    return message[2]
                # A result for some other chunk: a spool replay that
                # raced the task frame (or a duplicate from a requeue).
                # Accept it; the run loop deduplicates by chunk id.
                self._deliver(message[1], message[2], worker_id, stats)
                continue
            raise TransportError(
                "unexpected message kind {!r}".format(kind))

    # -- telemetry buffering -------------------------------------------------
    def _buffer_telemetry(self, chunk_id, worker_id, payload):
        """Hold a shipped payload until its chunk's result is accepted.

        Buffered per ``(chunk, worker)`` so a requeued chunk's payloads
        from the losing worker never mix with the winner's.
        """
        if not self.telemetry:
            return
        with self._lock:
            per_worker = self._telemetry.setdefault(chunk_id, {})
            per_worker.setdefault(worker_id, []).append(payload)

    def _take_telemetry(self, chunk_id, worker_id):
        """Pop the accepted worker's payloads; drop every other worker's."""
        with self._lock:
            per_worker = self._telemetry.pop(chunk_id, None)
        if per_worker is None or worker_id is None:
            return []
        return per_worker.get(worker_id, [])

    def _requeue_or_fail(self, assignment, worker_id, error):
        chunk_id, chunk = assignment
        with self._lock:
            self._attempts[chunk_id] = self._attempts.get(chunk_id, 0) + 1
            losses = self._attempts[chunk_id]
        if losses <= self.max_requeues:
            self._emit("sweep.chunk_requeued", chunk=chunk_id,
                       cells=len(chunk), worker=worker_id)
            self._pending.put((chunk_id, chunk))
        else:
            # Failure records carry no accepting worker: any telemetry
            # partially shipped for the chunk is discarded at acceptance
            # (its cells report as failed, so merging success telemetry
            # for them would lie).
            self._results.put((chunk_id,
                               chunk_failure_records(chunk, error), None))

    # -- the driving loop (engine side) ------------------------------------
    def run_chunks(self, plan):
        """Serve ``plan`` — ``(chunk_id, chunk)`` pairs — and yield each
        accepted chunk as ``(chunk_id, chunk, worker_id, records)``.

        Chunk ids are the caller's (a resumed sweep dispatches only the
        journal's missing ids, so spool replays from before the crash
        still match).  Results are deduplicated by id (requeued chunks
        may finish twice; tasks are deterministic so either copy is
        correct).  Raises :class:`TransportError` if no worker ever
        joins within ``join_timeout_s`` — the engine catches that and
        degrades to the local pool.  Once any worker has joined, loss of
        *every* worker drains the remaining chunks as ``chunk_failure``
        records instead, so partial progress is never thrown away.
        """
        plan = list(plan)
        by_id = dict(plan)
        expected = set(by_id)
        for assignment in plan:
            self._pending.put(assignment)
        started = time.monotonic()
        last_progress = started
        try:
            while expected:
                try:
                    chunk_id, records, worker_id = \
                        self._results.get(timeout=0.1)
                except queue.Empty:
                    now = time.monotonic()
                    if self.workers_seen == 0:
                        if now - started > self.join_timeout_s:
                            raise TransportError(
                                "no workers joined within "
                                "{:.1f}s".format(self.join_timeout_s))
                    elif (self.workers_connected == 0
                          and now - last_progress > self.join_timeout_s):
                        self._fail_remaining(expected, by_id)
                    continue
                if chunk_id not in expected:
                    # Duplicate completion after a requeue (or a spool
                    # replay of an already-journaled chunk): drop its
                    # late-arriving telemetry along with its records.
                    self._take_telemetry(chunk_id, None)
                    continue
                expected.discard(chunk_id)
                last_progress = time.monotonic()
                # First finisher wins telemetry too: take the accepted
                # worker's payloads, discard the rest of the chunk's.
                payloads = self._take_telemetry(chunk_id, worker_id)
                if payloads and self._telemetry_sink is not None:
                    self._telemetry_sink(worker_id, chunk_id, payloads)
                yield chunk_id, by_id[chunk_id], worker_id, records
        finally:
            self._drained.set()

    def _fail_remaining(self, expected, by_id):
        """All workers gone for good: fail what's left, deterministically."""
        while True:
            try:
                self._pending.get_nowait()
            except queue.Empty:
                break
        error = TransportError("all sweep workers lost; chunk abandoned")
        for chunk_id in sorted(expected):
            self._results.put((chunk_id,
                               chunk_failure_records(by_id[chunk_id],
                                                     error),
                               None))


class _WorkerLeft(Exception):
    """Internal: a worker announced a graceful drain (not a failure)."""


class _TelemetryOutbox(object):
    """Pending telemetry frames shared by a worker's two threads.

    The chunk runner ``put``\\ s a payload per finished cell; both the
    heartbeat thread (between beats) and the session thread (just before
    the result) ``flush``.  Sends happen inside the outbox lock so every
    telemetry frame for a chunk hits the socket before its result frame —
    the coordinator can therefore attribute payloads at result
    acceptance without a second round trip.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._pending = []

    def put(self, chunk_id, payload):
        with self._lock:
            self._pending.append((chunk_id, payload))

    def flush(self, transport, result=None):
        """Send pending frames (+ an optional ``("result", ...)`` last)."""
        with self._lock:
            for chunk_id, payload in self._pending:
                transport.send(("telemetry", chunk_id, payload))
            del self._pending[:]
            if result is not None:
                transport.send(result)


class SweepWorker(object):
    """A sweep worker: connect, heartbeat, run chunks, reconnect.

    ``transport_factory(host, port)`` lets tests interpose a
    :class:`~repro.engine.protocol.FaultyTransport`; the default dials a
    plain TCP :class:`~repro.engine.protocol.Transport` (running the
    HMAC client handshake first when ``token`` is set).

    ``spool`` names a directory for results the worker cannot deliver —
    a result computed while the coordinator is unreachable is written to
    ``chunk-<id>.pkl`` there (atomically) and replayed on the next
    successful connect, so elasticity and coordinator restarts lose no
    completed work.
    """

    def __init__(self, host, port, worker_id=None, heartbeat_s=1.0,
                 max_reconnects=8, backoff=None, transport_factory=None,
                 run_chunk=None, token=None, spool=None):
        from repro.core.resilience import ExponentialBackoff
        self.host = host
        self.port = int(port)
        self.worker_id = worker_id or "worker-{}".format(os.getpid())
        self.heartbeat_s = float(heartbeat_s)
        self.max_reconnects = int(max_reconnects)
        self.backoff = backoff or ExponentialBackoff(
            base_s=0.05, cap_s=2.0,
            seed=zlib.crc32(self.worker_id.encode("utf-8")))
        self.token = token
        self.spool = os.path.abspath(spool) if spool else None
        self._transport_factory = transport_factory
        self._run_chunk = run_chunk or _run_chunk
        self.chunks_done = 0

    def _dial(self):
        if self._transport_factory is not None:
            return self._transport_factory(self.host, self.port)
        return connect(self.host, self.port, token=self.token)

    def run(self, stop=None, drain=None):
        """Serve until the coordinator says bye; returns chunks done.

        Reconnects through the backoff schedule when the link drops;
        after ``max_reconnects`` consecutive failures it gives up —
        raising :class:`TransportError` if it never managed to join,
        returning normally if it did (a vanished coordinator after a
        completed sweep is the expected shutdown path).

        ``drain`` is an optional :class:`threading.Event` (the CLI sets
        it on SIGTERM): once set, the worker finishes the chunk in hand,
        sends a ``("leave", ...)`` frame, and returns cleanly.
        """
        ever_connected = False
        failures = 0
        while stop is None or not stop.is_set():
            if drain is not None and drain.is_set() \
                    and not self._spooled_chunks():
                return self.chunks_done
            try:
                transport = self._dial()
                transport.send(("hello", self.worker_id, os.getpid()))
                ever_connected = True
                failures = 0
                if self._session(transport, drain=drain):
                    return self.chunks_done
            except AuthenticationError:
                # Wrong/missing token never heals with a retry.
                raise
            except TransportError as error:
                failures += 1
                if failures > self.max_reconnects:
                    if ever_connected:
                        return self.chunks_done
                    raise TransportError(
                        "could not join coordinator at {}:{} after {} "
                        "attempts: {}".format(self.host, self.port,
                                              failures, error)) from error
                time.sleep(self.backoff.delay(failures - 1))
        return self.chunks_done

    def _session(self, transport, drain=None):
        """One connected session.  True = clean exit, reconnect otherwise."""
        stop_heartbeat = threading.Event()
        outbox = _TelemetryOutbox()
        heartbeat = threading.Thread(
            target=self._heartbeat_loop,
            args=(transport, stop_heartbeat, outbox),
            name="sweep-worker-heartbeat", daemon=True)
        heartbeat.start()
        try:
            self._replay_spool(transport)
            leaving = False
            while True:
                if drain is not None and drain.is_set() and not leaving:
                    transport.send(("leave", self.worker_id))
                    leaving = True
                try:
                    message = transport.recv(
                        timeout=max(0.05, self.heartbeat_s))
                except TransportTimeout:
                    continue
                kind = message[0] if isinstance(message, tuple) else None
                if kind == "task":
                    if leaving:
                        # Raced our leave frame; the coordinator
                        # requeues the chunk when it processes it.
                        continue
                    self._serve_task(transport, message, outbox)
                elif kind == "bye":
                    return True
                else:
                    raise TransportError(
                        "unexpected message kind {!r}".format(kind))
        finally:
            stop_heartbeat.set()
            transport.close()

    def _serve_task(self, transport, message, outbox):
        try:
            _, chunk_id, chunk, want_telemetry = message
        except ValueError:
            raise TransportError(
                "malformed task frame of {} elements; expected ('task', "
                "chunk_id, chunk, want_telemetry)".format(
                    len(message))) from None
        records, _ = self._run_chunk(
            chunk, ship=want_telemetry, worker_id=self.worker_id,
            flush=lambda payload: outbox.put(chunk_id, payload))
        try:
            outbox.flush(transport, result=("result", chunk_id, records))
        except TransportError:
            # The work is done and deterministic — persist it and let
            # the reconnect loop replay it instead of burning a requeue
            # on the coordinator side.
            self._spool_result(chunk_id, records)
            raise
        self.chunks_done += 1

    # -- result spooling ---------------------------------------------------
    def _spool_path(self, chunk_id):
        return os.path.join(self.spool, "chunk-{}.pkl".format(chunk_id))

    def _spooled_chunks(self):
        if self.spool is None or not os.path.isdir(self.spool):
            return []
        names = []
        for name in os.listdir(self.spool):
            if name.startswith("chunk-") and name.endswith(".pkl"):
                try:
                    names.append(int(name[len("chunk-"):-len(".pkl")]))
                except ValueError:
                    continue
        return sorted(names)

    def _spool_result(self, chunk_id, records):
        if self.spool is None:
            return
        os.makedirs(self.spool, exist_ok=True)
        path = self._spool_path(chunk_id)
        tmp = path + ".tmp"
        with open(tmp, "wb") as handle:
            pickle.dump(records, handle,
                        protocol=pickle.HIGHEST_PROTOCOL)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)

    def _replay_spool(self, transport):
        """Deliver results spooled while the coordinator was away.

        Sent before anything else in the session (right after hello), so
        the coordinator can credit completed chunks before assigning new
        work.  Each file is deleted only once its frame went out; the
        coordinator deduplicates, so a crash between send and delete
        costs nothing.
        """
        for chunk_id in self._spooled_chunks():
            path = self._spool_path(chunk_id)
            try:
                with open(path, "rb") as handle:
                    records = pickle.load(handle)
            except (OSError,) + UNDECODABLE:
                continue  # corrupt spool entry; the chunk just reruns
            transport.send(("result", chunk_id, records))
            try:
                os.remove(path)
            except OSError:
                pass

    def _heartbeat_loop(self, transport, stop, outbox):
        while not stop.wait(self.heartbeat_s):
            try:
                outbox.flush(transport)
                transport.send(("heartbeat", self.worker_id))
            except TransportError:
                return


def spawn_local_workers(address, count, extra_args=(), log_dir=None,
                        token=None):
    """Launch ``count`` loopback ``sweep-worker`` subprocesses.

    Returns the ``subprocess.Popen`` handles; callers own their
    lifecycle.  ``PYTHONPATH`` is extended so the children can import
    ``repro`` from a source checkout without installation.

    ``log_dir`` redirects each worker's stdout+stderr to
    ``worker-<n>.log`` there (the default keeps them silent); ``token``
    travels via :data:`TOKEN_ENV`, never the command line.
    """
    import subprocess
    import sys

    host, port = address
    src_dir = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    if token is not None:
        env[TOKEN_ENV] = token
    command = [sys.executable, "-m", "repro", "sweep-worker",
               "--connect", "{}:{}".format(host, port)]
    command.extend(extra_args)
    if log_dir is not None:
        os.makedirs(log_dir, exist_ok=True)
    workers = []
    for n in range(count):
        if log_dir is None:
            stdout = subprocess.DEVNULL
            workers.append(subprocess.Popen(command, env=env,
                                            stdout=stdout,
                                            stderr=subprocess.DEVNULL))
        else:
            log_path = os.path.join(log_dir, "worker-{}.log".format(n))
            with open(log_path, "ab") as log:
                workers.append(subprocess.Popen(command, env=env,
                                                stdout=log,
                                                stderr=subprocess.STDOUT))
    return workers
