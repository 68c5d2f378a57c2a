"""Deterministic sweep execution: serial, process-pool, and remote backends.

The engine's contract is simple and strict: for any task list, the result
list returned by ``workers=N`` is **identical** to the ``workers=1``
serial reference, element for element.  Three properties make that hold:

1. tasks never share state — each builds its own cloud from a
   :class:`~repro.engine.spec.CloudSpec` whose seed was spawn-keyed from
   the cell identity, not from enumeration order;
2. workers return ``(index, ok, payload, wall_ms, pid)`` records and the
   parent merges them back into task order, so completion order is
   irrelevant;
3. no shared RNGs, no shared clocks, no shared buses cross a process
   boundary — workers are either stdlib ``ProcessPoolExecutor`` children
   or socket peers speaking the same record contract
   (:mod:`repro.engine.remote`).

Small cells are batched into chunks (one pickle/IPC round-trip per chunk,
not per cell).  :meth:`SweepEngine.run` builds one chunk plan, and every
backend — serial, serial fallback, pool, remote — runs that plan through
one chunk runner (:func:`_run_chunk`) and accepts each chunk in one
place (absorb, journal, ``chunk_hook``); a chunk lost to infrastructure
becomes :func:`chunk_failure_records` on every backend.  The engine
degrades gracefully: ``remote coordinator → local pool → serial``,
emitting a ``sweep.fallback`` event at each step down.

Observability is parent-side only: per-cell ``sweep.cell`` events and the
worker-utilization gauge are emitted as results arrive, on wall-clock
timestamps (a sweep spans many independent sim clocks, so there is no
single sim time to stamp).
"""

import contextlib
import os
import threading
import time

from repro.common.errors import (
    ConfigurationError,
    SweepError,
    SweepFailure,
    TransportError,
    non_negative_count,
    positive_count,
)
from repro.engine.tasks import run_task

#: Executor backends, in degradation order.
BACKENDS = ("local", "remote")

#: Held while ``os.environ`` carries the fork server's PYTHONPATH.
_FORKSERVER_LOCK = threading.Lock()


#: What the fork server imports before it forks any worker, in order.
#: ``numpy.random`` is left to the first seeded stream by ``import
#: repro``, and so are the worker-side modules ``import repro`` loads
#: lazily: :mod:`repro.obs.ship` (every cell's ``CloudSpec.build`` asks
#: for the active telemetry capture) and :mod:`repro.core.study` (study
#: cells); each would cost every worker an import on its first cell.
#: :mod:`concurrent.futures.process` is what each pool worker imports to
#: unpickle its process object, before it runs anything.
#: :mod:`repro.engine.forkserver_init` comes last: it memoizes the
#: catalog index and freezes the heap the others built.
FORKSERVER_PRELOAD = ("repro", "numpy.random", "concurrent.futures.process",
                      "repro.obs.ship", "repro.core.study",
                      "repro.engine.forkserver_init")


def _start_forkserver(context):
    """Start the fork server with :data:`FORKSERVER_PRELOAD` imported.

    Pool workers then fork with the package loaded instead of importing
    it again when they unpickle their first chunk.  CPython 3.10-3.13's
    fork server ignores the ``sys_path`` it is handed and swallows the
    preload's ImportError, so it can only find ``repro`` through
    ``PYTHONPATH``: point that at the package root this process
    imported, for the duration of the start.  A fork server that is
    already running keeps whatever it preloaded; results are the same
    either way, only start-up differs.
    """
    import multiprocessing.forkserver

    import repro

    root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    with _FORKSERVER_LOCK:
        saved = os.environ.get("PYTHONPATH")
        os.environ["PYTHONPATH"] = (root if not saved
                                    else root + os.pathsep + saved)
        try:
            context.set_forkserver_preload(list(FORKSERVER_PRELOAD))
            multiprocessing.forkserver.ensure_running()
        finally:
            if saved is None:
                os.environ.pop("PYTHONPATH", None)
            else:
                os.environ["PYTHONPATH"] = saved


def _run_chunk(chunk, ship=False, worker_id=None, flush=None):
    """Run one chunk of ``(index, task)`` pairs; never raise.

    Returns ``(records, payloads)``: one ``(index, ok, payload, wall_ms,
    pid)`` record per cell.  Failures travel back as ``(error_type_name,
    message)`` payloads so one bad cell cannot poison its chunk-mates,
    and the parent can report every failing cell (deterministically, by
    index) instead of just the first.

    ``ship`` activates a :class:`~repro.obs.ship.TelemetryCapture`
    around the chunk so any cloud the tasks build attaches the capture
    bus.  After each cell the capture is drained; the payload is handed
    to ``flush`` (the remote worker streams it as a ``TELEMETRY`` frame)
    or kept in ``payloads`` (the pool pickles them with the records).
    The records are computed the same way either way — telemetry must
    never perturb results.
    """
    capture = None
    context = contextlib.nullcontext()
    if ship:
        from repro.obs.ship import TelemetryCapture
        capture = context = TelemetryCapture(worker_id=worker_id)
    records = []
    payloads = []
    pid = os.getpid()
    with context:
        for index, task in chunk:
            if capture is not None:
                capture.begin_cell(index, task)
            start = time.perf_counter()
            try:
                payload, ok = run_task(task), True
            except Exception as error:  # noqa: BLE001 — transported
                payload, ok = (type(error).__name__, str(error)), False
            wall_ms = (time.perf_counter() - start) * 1000.0
            records.append((index, ok, payload, wall_ms, pid))
            if capture is not None:
                capture.end_cell(ok, wall_ms)
                shipped = capture.drain(cell=index)
                if flush is not None:
                    flush(shipped)
                else:
                    payloads.append(shipped)
    return records, payloads


def chunk_failure_records(chunk, error):
    """Deterministic failure records for a chunk lost to infrastructure.

    A dead worker, a broken pool or a result that failed to pickle is
    not a task bug: the third payload element marks the loss so reports
    can tell the two apart, and the root cause (``BrokenProcessPool``,
    ``TransportError``, ...) rides along as the error type.
    """
    return [(index, False, (type(error).__name__, str(error), True),
             0.0, -1)
            for index, _ in chunk]


def is_chunk_failure(record):
    """Whether ``record`` came from :func:`chunk_failure_records`."""
    _, ok, payload, _, _ = record
    return not ok and len(payload) > 2 and bool(payload[2])


def check_liveness(heartbeat_s, join_timeout_s, chunk_deadline_s,
                   max_requeues):
    """Refuse remote liveness settings no coordinator could honour.

    Shared by :class:`SweepEngine` and
    :class:`~repro.engine.remote.SweepCoordinator`, so both reject the
    same values; ``chunk_deadline_s=None`` means no deadline.
    """
    for name, value in (("heartbeat_s", heartbeat_s),
                        ("join_timeout_s", join_timeout_s),
                        ("chunk_deadline_s", chunk_deadline_s)):
        if value is not None and not value > 0:  # NaN fails too
            raise ConfigurationError(
                "{} must be positive, got {!r}".format(name, value))
    non_negative_count("max_requeues", max_requeues)


def _chunk(pairs, chunk_size):
    return [pairs[i:i + chunk_size]
            for i in range(0, len(pairs), chunk_size)]


class SweepEngine(object):
    """Fans a task list over a process pool or socket workers.

    ``workers=1`` (the default) is the in-process serial reference
    executor.  ``backend="remote"`` serves chunks over TCP instead of a
    local pool: workers either connect on their own (``python -m repro
    sweep-worker --connect host:port``) or, with ``remote_workers=N``,
    are spawned as loopback subprocesses.  Remote execution degrades
    gracefully — coordinator → local pool → serial — and results stay
    byte-identical across every backend and worker count.

    ``obs`` is an optional :class:`~repro.obs.Observability`; when
    given, the engine emits ``sweep.start`` / ``sweep.cell`` /
    ``sweep.fallback`` / ``sweep.done`` events (plus
    ``sweep.worker_joined`` / ``sweep.worker_lost`` /
    ``sweep.chunk_requeued`` on the remote backend) and maintains
    ``sweep_cells_inflight``, ``sweep_worker_utilization``, and
    per-worker ``sweep_remote_worker_utilization`` gauges.
    """

    def __init__(self, workers=1, chunk_size=None, obs=None,
                 start_method=None, backend="local", bind="127.0.0.1:0",
                 remote_workers=None, heartbeat_s=1.0,
                 chunk_deadline_s=None, join_timeout_s=10.0,
                 max_requeues=1, telemetry=False, auth_token=None,
                 journal=None, resume=None, chunk_hook=None,
                 worker_log_dir=None):
        self.workers = positive_count("workers", workers)
        if chunk_size is not None and (int(chunk_size) != chunk_size
                                       or chunk_size < 1):
            raise ValueError("chunk_size must be an integer >= 1, got "
                             "{!r}".format(chunk_size))
        self.chunk_size = int(chunk_size) if chunk_size else None
        self.obs = obs
        if start_method is not None:
            import multiprocessing
            available = multiprocessing.get_all_start_methods()
            if start_method not in available:
                raise ConfigurationError(
                    "unknown start_method {!r}; pick one of {}".format(
                        start_method, available))
        self.start_method = start_method
        if backend not in BACKENDS:
            raise ConfigurationError(
                "unknown backend {!r}; pick one of {}".format(backend,
                                                              BACKENDS))
        self.backend = backend
        self.bind = bind
        self.remote_workers = non_negative_count(
            "remote_workers", remote_workers or 0) or None
        check_liveness(heartbeat_s, join_timeout_s, chunk_deadline_s,
                       max_requeues)
        self.heartbeat_s = float(heartbeat_s)
        self.chunk_deadline_s = chunk_deadline_s
        self.join_timeout_s = float(join_timeout_s)
        self.max_requeues = int(max_requeues)
        #: Ship worker-side events/metrics/spans home and merge them onto
        #: ``obs`` (see :mod:`repro.obs.ship`).  Requires ``obs``;
        #: results stay byte-identical with shipping on or off.
        self.telemetry = bool(telemetry)
        #: Shared secret for the remote backend's HMAC handshake
        #: (:func:`repro.engine.protocol.server_auth`).  None keeps the
        #: explicit anonymous loopback mode.
        self.auth_token = auth_token
        #: ``journal=DIR`` appends every accepted chunk to an
        #: append-only ``chunks.jsonl`` under DIR (crash evidence);
        #: ``resume=DIR`` additionally *replays* DIR's journal first and
        #: dispatches only the missing chunks — output byte-identical to
        #: an uninterrupted run.  See :mod:`repro.engine.journal`.
        if journal and resume and (os.path.abspath(journal)
                                   != os.path.abspath(resume)):
            raise ConfigurationError(
                "journal {!r} and resume {!r} name different directories; "
                "a resumed run appends to the journal it "
                "replays".format(journal, resume))
        self.journal = journal
        self.resume = resume
        #: ``chunk_hook(chunk_id, records)`` fires after each freshly
        #: accepted (non-replayed) chunk is absorbed and journaled, on
        #: every backend, journaled or not — the
        #: :class:`~repro.faults.fleet.FleetChaos` injection point.
        #: Exceptions propagate and abort the sweep (a simulated crash).
        self.chunk_hook = chunk_hook
        #: Directory for per-worker log files when the engine spawns
        #: loopback workers (None keeps them silent).
        self.worker_log_dir = worker_log_dir
        #: How the last run actually executed: "serial", "pool",
        #: "remote", or "serial-fallback" (parallel backend requested
        #: but unavailable).
        self.last_mode = None
        self._merge = None
        self._journal = None

    # -- observability helpers ------------------------------------------------
    def _emit(self, name, started, **fields):
        if self.obs is not None and self.obs.bus.enabled:
            self.obs.bus.emit(name, time.perf_counter() - started, **fields)

    def _gauge(self, name):
        if self.obs is None:
            return None
        return self.obs.registry.gauge(name)

    def _resolve_chunk_size(self, n_tasks, workers):
        if self.chunk_size is not None:
            return self.chunk_size
        # Small cells amortize IPC; ~4 chunks per worker keeps the tail
        # short without a pickle round-trip per cell.
        return max(1, -(-n_tasks // (workers * 4)))

    # -- execution ------------------------------------------------------------
    def run(self, tasks, grid_hash=None):
        """Execute ``tasks``; returns their results in task order.

        ``grid_hash`` (the grid's ``content_hash``) pins the journal's
        resume guard when journaling is on; without it the guard falls
        back to a hash of the pickled task list.

        Raises :class:`~repro.common.errors.SweepError` listing every
        failed cell (by index) once all cells have been attempted.
        """
        tasks = list(tasks)
        started = time.perf_counter()
        workers = min(self.workers, max(1, len(tasks)))
        if self.backend == "remote":
            lanes = self.remote_workers or self.workers
            method = "remote"
        else:
            lanes = workers
            method = (self._resolve_start_method() if workers > 1
                      else "serial")
        self._emit("sweep.start", started, cells=len(tasks),
                   workers=lanes, backend=self.backend,
                   start_method=method or "default")
        if not tasks:
            self.last_mode = "serial"
            self._emit("sweep.done", started, cells=0, workers=lanes,
                       mode="serial", wall_s=0.0, utilization=0.0)
            return []
        self._merge = self._make_merge(started, len(tasks))
        try:
            plan, state = self._plan(tasks, lanes, grid_hash, started)
            if self.backend == "remote":
                outcome = self._run_remote(started, plan, state)
                if outcome is not None:
                    return outcome
                # Degrade to the local pool (then serial) below.  With a
                # resume in flight the replayed results live in ``state``
                # and survive the downgrade untouched.
            if workers <= 1:
                return self._run_serial(started, "serial", plan, state)
            pool = self._make_pool(workers)
            if pool is None:
                self._emit("sweep.fallback", started, cells=len(tasks),
                           reason="process pool unavailable")
                return self._run_serial(started, "serial-fallback", plan,
                                        state)
            with pool:
                return self._run_pool(pool, workers, started, plan, state)
        finally:
            merge, self._merge = self._merge, None
            if merge is not None:
                merge.finish()
            journal, self._journal = self._journal, None
            if journal is not None:
                journal.close()

    # -- chunk plan / journal -------------------------------------------------
    def _plan(self, tasks, lanes, grid_hash, started):
        """The chunks to run and the state their records land in.

        Returns ``(plan, state)``: ``plan`` is the list of ``(chunk_id,
        chunk)`` pairs every backend dispatches; ``state`` carries the
        shared results, failures and busy time.  Chunk ids always come
        from chunking the *full* task list, so a resumed run dispatches
        the missing chunks under their original ids — a worker that
        spooled chunk 7 across the crash still matches.
        """
        state = {"results": [None] * len(tasks), "failures": [],
                 "busy_ms": 0.0}
        chunk_size = self._resolve_chunk_size(len(tasks), lanes)
        done = {}
        if self.journal or self.resume:
            chunk_size, done = self._open_journal(tasks, chunk_size,
                                                  grid_hash, state, started)
        plan = [(chunk_id, chunk) for chunk_id, chunk
                in enumerate(_chunk(list(enumerate(tasks)), chunk_size))
                if chunk_id not in done]
        if done:
            self._emit("sweep.resumed", started, chunks=len(done),
                       cells=sum(done.values()), remaining=len(plan))
        return plan, state

    def _open_journal(self, tasks, chunk_size, grid_hash, state, started):
        """Open (or resume) the chunk journal.

        Returns ``(chunk_size, done)``: a fresh journal records
        ``chunk_size``; a resume takes the journal's own and replays it
        into ``state``, and ``done`` maps each replayed chunk id to its
        cell count.

        Replay streams the journal (:meth:`ChunkJournal.stream`): each
        chunk's records are decoded, absorbed, and dropped before the
        next line is read, so resuming never materializes the whole
        journal — memory stays bounded by one chunk regardless of how
        many cells the crashed run completed.  A chunk id appearing
        twice replays only its first occurrence (records are
        deterministic, so any duplicate is identical).
        """
        from repro.engine.journal import ChunkJournal, guard_hash_for_tasks

        journal = ChunkJournal(self.resume or self.journal)
        guard = grid_hash or guard_hash_for_tasks(tasks)
        done = {}
        if self.resume:
            if not journal.exists():
                raise ConfigurationError(
                    "cannot resume: no chunk journal at "
                    "{}".format(journal.path))
            for chunk_id, _, records in journal.stream(guard=guard,
                                                       cells=len(tasks)):
                if chunk_id in done:
                    continue
                done[chunk_id] = len(records)
                for record in records:
                    self._absorb(record, state, started, replayed=True)
            chunk_size = journal.header["chunk_size"]
            journal.reopen_for_append()
        else:
            journal.begin(guard, len(tasks), chunk_size,
                          -(-len(tasks) // chunk_size))
        self._journal = journal
        return chunk_size, done

    def _accept_chunk(self, chunk_id, chunk, records, state, started,
                      worker, inflight=None):
        """Absorb one freshly accepted chunk, journal it, fire the hook.

        Every backend accepts its chunks here.  A chunk lost to
        infrastructure (:func:`is_chunk_failure`) is neither journaled —
        a resume retries it instead of replaying the loss — nor handed to
        the hook, whose exceptions propagate (a simulated coordinator
        crash).
        """
        for record in records:
            self._absorb(record, state, started)
        if inflight is not None:
            inflight.dec(len(chunk))
        if records and all(is_chunk_failure(record) for record in records):
            return
        if self._journal is not None:
            self._journal.append(chunk_id, [index for index, _ in chunk],
                                 records, worker=worker)
        if self.chunk_hook is not None:
            self.chunk_hook(chunk_id, records)

    def _make_merge(self, started, cells):
        """The telemetry merge for this run (None when shipping is off)."""
        if not self.telemetry or self.obs is None:
            return None
        from repro.obs.ship import TelemetryMerge

        root = self.obs.tracer.start_trace("sweep", 0.0, cells=cells,
                                           backend=self.backend)
        return TelemetryMerge(
            self.obs, clock=lambda: time.perf_counter() - started,
            root_span=root)

    def _resolve_start_method(self):
        """The multiprocessing start method a pool run would use.

        ``forkserver`` is preferred: plain ``fork`` is unsafe when the
        parent holds live threads (obs exporters, remote coordinator
        handlers) and is deprecated as a threaded-parent default from
        Python 3.12.  The fallback order is forkserver → fork → spawn;
        None means "whatever the platform default is".
        """
        if self.start_method is not None:
            return self.start_method
        try:
            import multiprocessing
            available = multiprocessing.get_all_start_methods()
        except ImportError:
            return None
        for method in ("forkserver", "fork", "spawn"):
            if method in available:
                return method
        return None

    def _make_pool(self, workers):
        try:
            import concurrent.futures
            import multiprocessing

            method = self._resolve_start_method()
            context = (multiprocessing.get_context(method)
                       if method is not None else None)
            if method == "forkserver":
                _start_forkserver(context)
            return concurrent.futures.ProcessPoolExecutor(
                max_workers=workers, mp_context=context)
        except (ImportError, NotImplementedError, OSError, ValueError):
            return None

    def _run_serial(self, started, mode, plan, state):
        """In-process execution of the chunk plan: the reference."""
        self.last_mode = mode
        ship = self._merge is not None
        for chunk_id, chunk in plan:
            records, payloads = _run_chunk(chunk, ship=ship,
                                           worker_id="serial")
            for payload in payloads:
                self._merge.merge(payload, chunk=chunk_id)
            self._accept_chunk(chunk_id, chunk, records, state, started,
                               "serial")
        return self._finish(state, started, workers=1, mode=mode)

    def _run_pool(self, pool, workers, started, plan, state):
        import concurrent.futures

        self.last_mode = "pool"
        inflight = self._gauge("sweep_cells_inflight")
        if inflight is not None:
            inflight.set(sum(len(chunk) for _, chunk in plan))
        ship = self._merge is not None
        futures = {pool.submit(_run_chunk, chunk, ship): (chunk_id, chunk)
                   for chunk_id, chunk in plan}
        for future in concurrent.futures.as_completed(futures):
            chunk_id, chunk = futures[future]
            try:
                records, payloads = future.result()
            except Exception as error:  # noqa: BLE001 — per-cell report
                # The whole chunk is lost (its results failed to pickle,
                # or a worker died).
                records, payloads = chunk_failure_records(chunk, error), []
            self._accept_chunk(chunk_id, chunk, records, state, started,
                               "pool", inflight)
            for payload in payloads:
                self._merge.merge(payload, chunk=chunk_id)
        return self._finish(state, started, workers=workers, mode="pool")

    def _run_remote(self, started, plan, state):
        """Serve chunks to socket workers; None = degrade to the pool."""
        from repro.engine.protocol import parse_address
        from repro.engine.remote import SweepCoordinator, spawn_local_workers

        def fallback(reason):
            self._emit("sweep.fallback", started,
                       cells=len(state["results"]), reason=reason)

        host, port = parse_address(self.bind)
        coordinator = SweepCoordinator(
            host=host, port=port, heartbeat_s=self.heartbeat_s,
            chunk_deadline_s=self.chunk_deadline_s,
            join_timeout_s=self.join_timeout_s,
            max_requeues=self.max_requeues,
            auth_token=self.auth_token,
            emit=lambda name, **fields: self._emit(name, started,
                                                   **fields),
            telemetry=self._merge is not None,
            telemetry_sink=(self._merge_remote
                            if self._merge is not None else None))
        spawned = []
        try:
            try:
                coordinator.start()
            except TransportError as error:
                fallback("coordinator unavailable: {}".format(error))
                return None
            if self.remote_workers:
                try:
                    # Workers must beat at least as often as the
                    # coordinator's silence window expects.
                    spawned = spawn_local_workers(
                        coordinator.address, self.remote_workers,
                        extra_args=("--heartbeat",
                                    str(self.heartbeat_s)),
                        log_dir=self.worker_log_dir,
                        token=self.auth_token)
                except OSError as error:
                    fallback("cannot spawn workers: {}".format(error))
                    return None
            self.last_mode = "remote"
            inflight = self._gauge("sweep_cells_inflight")
            if inflight is not None:
                inflight.set(sum(len(chunk) for _, chunk in plan))
            try:
                for chunk_id, chunk, worker_id, records \
                        in coordinator.run_chunks(plan):
                    self._accept_chunk(chunk_id, chunk, records, state,
                                       started, worker_id, inflight)
            except TransportError as error:
                # Nothing was absorbed (the coordinator only raises
                # before the first worker joins), so the pool rerun
                # starts clean — replayed journal state is untouched.
                fallback(str(error))
                return None
            self._set_worker_gauges(coordinator, started)
            return self._finish(state, started,
                                workers=max(1, coordinator.workers_seen),
                                mode="remote")
        finally:
            coordinator.close()
            for process in spawned:
                process.terminate()
            for process in spawned:
                try:
                    process.wait(timeout=5.0)
                except Exception:  # noqa: BLE001 — best-effort reap
                    process.kill()

    def _merge_remote(self, worker_id, chunk_id, payloads):
        """Coordinator sink: merge an accepted chunk's shipped payloads.

        Called from the engine thread (inside the ``run_chunks``
        consumption loop), so the parent registry is never mutated from a
        handler thread.
        """
        for payload in payloads:
            self._merge.merge(payload, worker=worker_id, chunk=chunk_id)

    def _set_worker_gauges(self, coordinator, started):
        if self.obs is None:
            return
        wall_s = max(time.perf_counter() - started, 1e-9)
        for stats in coordinator.worker_stats():
            gauge = self.obs.registry.gauge(
                "sweep_remote_worker_utilization",
                worker=stats["worker"])
            gauge.set(min(1.0, (stats["busy_ms"] / 1000.0) / wall_s))

    def _absorb(self, record, state, started, replayed=False):
        """Fold one cell's record into ``state`` and report it."""
        index, ok, payload, wall_ms, pid = record
        chunk_failure = False
        if ok:
            state["results"][index] = payload
        else:
            chunk_failure = is_chunk_failure(record)
            state["failures"].append(SweepFailure(
                index, payload[0], payload[1], chunk_failure=chunk_failure))
        state["busy_ms"] += wall_ms
        fields = dict(index=index, ok=ok, wall_ms=wall_ms,
                      worker_pid=pid, chunk_failure=chunk_failure)
        if replayed:
            fields["replayed"] = True
        self._emit("sweep.cell", started, **fields)

    def _finish(self, state, started, workers, mode):
        results = state["results"]
        wall_s = time.perf_counter() - started
        utilization = (state["busy_ms"] / 1000.0) / (workers * wall_s) \
            if wall_s > 0 else 0.0
        gauge = self._gauge("sweep_worker_utilization")
        if gauge is not None:
            gauge.set(utilization)
        self._emit("sweep.done", started, cells=len(results),
                   workers=workers, mode=mode, wall_s=wall_s,
                   utilization=utilization)
        if state["failures"]:
            raise SweepError(state["failures"])
        return results
