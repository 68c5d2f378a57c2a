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
not per cell) and the engine degrades gracefully:
``remote coordinator → local pool → serial``, emitting a
``sweep.fallback`` event at each step down.

Observability is parent-side only: per-cell ``sweep.cell`` events and the
worker-utilization gauge are emitted as results arrive, on wall-clock
timestamps (a sweep spans many independent sim clocks, so there is no
single sim time to stamp).
"""

import os
import threading
import time

from repro.common.errors import (
    ConfigurationError,
    SweepError,
    SweepFailure,
    TransportError,
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
#: catalog plan and freezes the heap the others built.
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


def _run_chunk(chunk):
    """Worker-side loop: run each (index, task) pair, never raise.

    Failures travel back as ``(error_type_name, message)`` payloads so one
    bad cell cannot poison its chunk-mates, and the parent can report every
    failing cell (deterministically, by index) instead of just the first.
    """
    out = []
    pid = os.getpid()
    for index, task in chunk:
        start = time.perf_counter()
        try:
            payload, ok = run_task(task), True
        except Exception as error:  # noqa: BLE001 — transported, re-raised
            payload, ok = (type(error).__name__, str(error)), False
        wall_ms = (time.perf_counter() - start) * 1000.0
        out.append((index, ok, payload, wall_ms, pid))
    return out


def _run_chunk_captured(chunk, worker_id=None, flush=None):
    """``_run_chunk`` with telemetry shipping: same records, plus payloads.

    A :class:`~repro.obs.ship.TelemetryCapture` is activated around the
    chunk so any cloud the tasks build attaches the capture bus.  After
    each cell the capture is drained; payloads are either handed to
    ``flush`` (the remote worker streams them as ``TELEMETRY`` frames) or
    accumulated and returned (the pool pickles them with the records).

    The records themselves are computed exactly as ``_run_chunk`` does —
    telemetry must never perturb results.
    """
    from repro.obs.ship import TelemetryCapture

    capture = TelemetryCapture(worker_id=worker_id)
    out = []
    payloads = []
    pid = os.getpid()
    with capture:
        for index, task in chunk:
            capture.begin_cell(index, task)
            start = time.perf_counter()
            try:
                payload, ok = run_task(task), True
            except Exception as error:  # noqa: BLE001 — transported
                payload, ok = (type(error).__name__, str(error)), False
            wall_ms = (time.perf_counter() - start) * 1000.0
            capture.end_cell(ok, wall_ms)
            out.append((index, ok, payload, wall_ms, pid))
            shipped = capture.drain(cell=index)
            if flush is not None:
                flush(shipped)
            else:
                payloads.append(shipped)
    return out, payloads


def _run_chunk_shipped(chunk):
    """Pool entry point (module-level so it pickles): records + payloads."""
    return _run_chunk_captured(chunk)


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
        self.start_method = start_method
        if backend not in BACKENDS:
            raise ConfigurationError(
                "unknown backend {!r}; pick one of {}".format(backend,
                                                              BACKENDS))
        self.backend = backend
        self.bind = bind
        self.remote_workers = (int(remote_workers)
                               if remote_workers else None)
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
        self.journal = journal
        self.resume = resume
        #: ``chunk_hook(chunk_id, records)`` fires after each freshly
        #: accepted (non-replayed) chunk is absorbed and journaled —
        #: the :class:`~repro.faults.fleet.FleetChaos` injection point.
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
        plan = state = None
        try:
            if self.journal or self.resume:
                plan, state = self._open_journal(tasks, lanes, grid_hash,
                                                 started)
            if self.backend == "remote":
                outcome = self._run_remote(tasks, lanes, started,
                                           plan=plan, state=state)
                if outcome is not None:
                    return outcome
                # Degrade to the local pool (then serial) below.  With a
                # resume in flight the replayed results live in ``state``
                # and survive the downgrade untouched.
            if workers <= 1:
                if plan is not None:
                    return self._run_serial_chunks(tasks, started,
                                                   mode="serial",
                                                   plan=plan, state=state)
                return self._run_serial(tasks, started, mode="serial")
            pool = self._make_pool(workers)
            if pool is None:
                self._emit("sweep.fallback", started, cells=len(tasks),
                           reason="process pool unavailable")
                if plan is not None:
                    return self._run_serial_chunks(
                        tasks, started, mode="serial-fallback",
                        plan=plan, state=state)
                return self._run_serial(tasks, started,
                                        mode="serial-fallback")
            with pool:
                return self._run_pool(pool, tasks, workers, started,
                                      plan=plan, state=state)
        finally:
            merge, self._merge = self._merge, None
            if merge is not None:
                merge.finish()
            journal, self._journal = self._journal, None
            if journal is not None:
                journal.close()

    # -- journal / resume -----------------------------------------------------
    def _open_journal(self, tasks, lanes, grid_hash, started):
        """Open (or resume) the chunk journal; returns ``(plan, state)``.

        ``plan`` is the list of ``(chunk_id, chunk)`` pairs still to run;
        ``state`` carries the shared results/failures/busy-time that the
        replay already populated.  Chunk ids always come from chunking
        the *full* task list with the journal's chunk size, so a resumed
        run dispatches the missing chunks under their original ids — a
        worker that spooled chunk 7 across the crash still matches.

        Replay streams the journal (:meth:`ChunkJournal.stream`): each
        chunk's records are decoded, absorbed, and dropped before the
        next line is read, so resuming never materializes the whole
        journal — memory stays bounded by one chunk regardless of how
        many cells the crashed run completed.  A chunk id appearing
        twice replays only its first occurrence (records are
        deterministic, so any duplicate is identical).
        """
        from repro.engine.journal import ChunkJournal, guard_hash_for_tasks

        directory = self.resume or self.journal
        journal = ChunkJournal(directory)
        guard = grid_hash or guard_hash_for_tasks(tasks)
        pairs = list(enumerate(tasks))
        state = {"results": [None] * len(tasks), "failures": [],
                 "busy_ms": 0.0}
        done = set()
        replayed_cells = 0
        if self.resume:
            if not journal.exists():
                raise ConfigurationError(
                    "cannot resume: no chunk journal at "
                    "{}".format(journal.path))
            for chunk_id, _, records in journal.stream(guard=guard,
                                                       cells=len(tasks)):
                if chunk_id in done:
                    continue
                done.add(chunk_id)
                for record in records:
                    state["busy_ms"] += self._absorb(
                        record, state["results"], state["failures"],
                        started, replayed=True)
                replayed_cells += len(records)
            chunk_size = journal.header["chunk_size"]
            journal.reopen_for_append()
        else:
            chunk_size = self._resolve_chunk_size(len(pairs), lanes)
            chunks = _chunk(pairs, chunk_size)
            journal.begin(guard, len(tasks), chunk_size, len(chunks))
        all_chunks = list(enumerate(_chunk(pairs, chunk_size)))
        plan = [(chunk_id, chunk) for chunk_id, chunk in all_chunks
                if chunk_id not in done]
        self._journal = journal
        if done:
            self._emit("sweep.resumed", started, chunks=len(done),
                       cells=replayed_cells, remaining=len(plan))
        return plan, state

    def _journal_chunk(self, chunk_id, chunk, records, worker=None):
        """Durably record one freshly accepted chunk, then fire the hook.

        Infrastructure-loss placeholder records (a dead worker or broken
        pool after max requeues) are *not* journaled — a resume should
        retry those chunks, not replay their failure.  The chaos hook
        fires for every accepted chunk; its exceptions propagate (that is
        the point — a simulated coordinator crash).
        """
        infra_loss = records and all(
            (not ok) and pid == -1 and len(payload) > 2 and payload[2]
            for _, ok, payload, _, pid in records)
        if self._journal is not None and not infra_loss:
            self._journal.append(chunk_id, [index for index, _ in chunk],
                                 records, worker=worker)
        if self.chunk_hook is not None and not infra_loss:
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

    def _run_serial(self, tasks, started, mode):
        self.last_mode = mode
        results = [None] * len(tasks)
        failures = []
        busy_ms = 0.0
        for index, task in enumerate(tasks):
            if self._merge is not None:
                records, payloads = _run_chunk_captured(
                    [(index, task)], worker_id="serial")
                for payload in payloads:
                    self._merge.merge(payload, chunk=index)
            else:
                records = _run_chunk([(index, task)])
            for record in records:
                busy_ms += self._absorb(record, results, failures, started)
        return self._finish(results, failures, started, workers=1,
                            mode=mode, busy_ms=busy_ms)

    def _run_serial_chunks(self, tasks, started, mode, plan, state):
        """Serial execution over an explicit chunk plan (journaled runs).

        Identical records to :meth:`_run_serial` — chunk boundaries only
        decide journal granularity, never results.
        """
        self.last_mode = mode
        for chunk_id, chunk in plan:
            if self._merge is not None:
                records, payloads = _run_chunk_captured(
                    chunk, worker_id="serial")
                for payload in payloads:
                    self._merge.merge(payload, chunk=chunk_id)
            else:
                records = _run_chunk(chunk)
            for record in records:
                state["busy_ms"] += self._absorb(
                    record, state["results"], state["failures"], started)
            self._journal_chunk(chunk_id, chunk, records, worker="serial")
        return self._finish(state["results"], state["failures"], started,
                            workers=1, mode=mode,
                            busy_ms=state["busy_ms"])

    def _run_pool(self, pool, tasks, workers, started, plan=None,
                  state=None):
        import concurrent.futures

        self.last_mode = "pool"
        if plan is None:
            pairs = list(enumerate(tasks))
            plan = list(enumerate(_chunk(
                pairs, self._resolve_chunk_size(len(pairs), workers))))
        if state is None:
            state = {"results": [None] * len(tasks), "failures": [],
                     "busy_ms": 0.0}
        inflight = self._gauge("sweep_cells_inflight")
        if inflight is not None:
            inflight.set(sum(len(chunk) for _, chunk in plan))
        runner = _run_chunk if self._merge is None else _run_chunk_shipped
        futures = {pool.submit(runner, chunk): (chunk_id, chunk)
                   for chunk_id, chunk in plan}
        results = state["results"]
        failures = state["failures"]
        for future in concurrent.futures.as_completed(futures):
            chunk_id, chunk = futures[future]
            payloads = []
            try:
                records = future.result()
                if self._merge is not None:
                    records, payloads = records
            except Exception as error:  # noqa: BLE001 — per-cell report
                # The whole chunk is lost (e.g. its results failed to
                # pickle, or a worker died): infrastructure loss, not a
                # task bug — the third payload element marks it so
                # reports can tell the two apart, and the root cause
                # (BrokenProcessPool, PicklingError, ...) rides along as
                # the error type.
                records = [(index, False,
                            (type(error).__name__, str(error), True),
                            0.0, -1)
                           for index, _ in chunk]
            for record in records:
                state["busy_ms"] += self._absorb(record, results,
                                                 failures, started)
            self._journal_chunk(chunk_id, chunk, records, worker="pool")
            for payload in payloads:
                self._merge.merge(payload, chunk=chunk_id)
            if inflight is not None:
                inflight.dec(len(chunk))
        return self._finish(results, failures, started, workers=workers,
                            mode="pool", busy_ms=state["busy_ms"])

    def _run_remote(self, tasks, lanes, started, plan=None, state=None):
        """Serve chunks to socket workers; None = degrade to the pool."""
        from repro.engine.protocol import parse_address
        from repro.engine.remote import SweepCoordinator, spawn_local_workers

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
                self._emit("sweep.fallback", started, cells=len(tasks),
                           reason="coordinator unavailable: "
                                  "{}".format(error))
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
                    self._emit("sweep.fallback", started,
                               cells=len(tasks),
                               reason="cannot spawn workers: "
                                      "{}".format(error))
                    return None
            self.last_mode = "remote"
            if plan is None:
                pairs = list(enumerate(tasks))
                plan = list(enumerate(_chunk(
                    pairs, self._resolve_chunk_size(len(pairs), lanes))))
            if state is None:
                state = {"results": [None] * len(tasks), "failures": [],
                         "busy_ms": 0.0}
            inflight = self._gauge("sweep_cells_inflight")
            if inflight is not None:
                inflight.set(sum(len(chunk) for _, chunk in plan))
            results = state["results"]
            failures = state["failures"]
            try:
                for chunk_id, chunk, worker_id, records \
                        in coordinator.run_chunks(plan):
                    for record in records:
                        state["busy_ms"] += self._absorb(
                            record, results, failures, started)
                        if inflight is not None:
                            inflight.dec(1)
                    self._journal_chunk(chunk_id, chunk, records,
                                        worker=worker_id)
            except TransportError as error:
                # Nothing was absorbed (the coordinator only raises
                # before the first worker joins), so the pool rerun
                # starts clean — replayed journal state is untouched.
                self._emit("sweep.fallback", started, cells=len(tasks),
                           reason=str(error))
                return None
            self._set_worker_gauges(coordinator, started)
            return self._finish(results, failures, started,
                                workers=max(1, coordinator.workers_seen),
                                mode="remote", busy_ms=state["busy_ms"])
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

        Called from the engine thread (inside ``coordinator.run``'s
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

    def _absorb(self, record, results, failures, started, replayed=False):
        index, ok, payload, wall_ms, pid = record
        chunk_failure = False
        if ok:
            results[index] = payload
        else:
            chunk_failure = len(payload) > 2 and bool(payload[2])
            failures.append(SweepFailure(index, payload[0], payload[1],
                                         chunk_failure=chunk_failure))
        fields = dict(index=index, ok=ok, wall_ms=wall_ms,
                      worker_pid=pid, chunk_failure=chunk_failure)
        if replayed:
            fields["replayed"] = True
        self._emit("sweep.cell", started, **fields)
        return wall_ms

    def _finish(self, results, failures, started, workers, mode, busy_ms):
        wall_s = time.perf_counter() - started
        utilization = (busy_ms / 1000.0) / (workers * wall_s) \
            if wall_s > 0 else 0.0
        gauge = self._gauge("sweep_worker_utilization")
        if gauge is not None:
            gauge.set(utilization)
        self._emit("sweep.done", started, cells=len(results),
                   workers=workers, mode=mode, wall_s=wall_s,
                   utilization=utilization)
        if failures:
            raise SweepError(failures)
        return results


def run_sweep(tasks, workers=1, chunk_size=None, obs=None, **options):
    """One-shot convenience wrapper around :class:`SweepEngine`.

    Extra keyword ``options`` (``backend``, ``remote_workers``, ...)
    pass straight through to the engine constructor.
    """
    return SweepEngine(workers=workers, chunk_size=chunk_size,
                       obs=obs, **options).run(tasks)
