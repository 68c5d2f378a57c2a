"""Crash-safe chunk journal: the sweep engine's durable progress log.

A :class:`ChunkJournal` is an append-only ``chunks.jsonl`` inside a run
directory (the same directory the :class:`~repro.obs.manifest.RunManifest`
flight recorder owns).  The first line is a header pinning the sweep's
identity — a guard hash (the grid's ``content_hash`` when the caller has
one), the cell count, and the chunk size the run was planned with; every
subsequent line is one *accepted* chunk: its id, the cell indexes it
covered, and the exact ``(index, ok, payload, wall_ms, pid)`` records the
engine absorbed, pickled and base64-encoded with a CRC so corruption is
detected on load.

Appends are flushed and fsynced per chunk, so a SIGKILLed coordinator
leaves a journal describing precisely the chunks it had accepted.  A
crash *during* an append leaves a truncated final line, and a damaged
line can sit anywhere; :meth:`ChunkJournal.load` skips every
undecodable line and returns the chunks that decode — each skipped
chunk simply reruns, and its rerun is appended on a line of its own.

Resume (``SweepEngine(resume=DIR)`` / ``repro sweep ... --resume DIR``)
replays the journaled records through the engine's normal absorb path
and dispatches only the chunks the journal is missing, with the original
chunk ids — so a worker that spooled a result for chunk 7 while the
coordinator was down can still hand it to the restarted coordinator.
Because tasks are pure functions of their spec, the merged output is
byte-identical to an uninterrupted run.  The header guard refuses to
resume a journal against a different grid, seed, or chunking.
"""

import base64
import json
import os
import pickle
import zlib

from repro.common.errors import ConfigurationError

#: Journal file name inside a run directory.
CHUNKS_FILE = "chunks.jsonl"

JOURNAL_VERSION = 1
_JOURNAL_KIND = "repro-sweep-chunks"

#: What decoding a stored entry raises when its bytes are damaged or
#: stale: a truncated or corrupt pickle, bad base64 (``binascii.Error``
#: is a ``ValueError``), or a class or module that no longer exists.
#: The journal and the worker spool treat every one alike — the entry's
#: chunk reruns.
UNDECODABLE = (pickle.UnpicklingError, EOFError, AttributeError,
               ImportError, KeyError, TypeError, ValueError)


def guard_hash_for_tasks(tasks):
    """A fallback resume guard when no grid ``content_hash`` is given.

    Hashes the pickled task list — deterministic for the plain value
    objects sweeps carry — and prefixes it so it can never be confused
    with a grid hash.
    """
    import hashlib

    digest = hashlib.sha256()
    digest.update(pickle.dumps(list(tasks), protocol=4))
    return "tasks:" + digest.hexdigest()[:16]


class ChunkJournal(object):
    """Append-only journal of accepted sweep chunks (module docstring)."""

    def __init__(self, directory):
        self.directory = os.path.abspath(directory)
        self.path = os.path.join(self.directory, CHUNKS_FILE)
        self.header = None
        #: ``{chunk_id: (indexes, records)}`` replayed by :meth:`load`.
        self.replayed = {}
        self._handle = None

    # -- writing -------------------------------------------------------------
    def begin(self, guard, cells, chunk_size, chunks):
        """Start a fresh journal (truncating any previous one)."""
        os.makedirs(self.directory, exist_ok=True)
        self.header = {"kind": _JOURNAL_KIND, "version": JOURNAL_VERSION,
                       "guard": str(guard), "cells": int(cells),
                       "chunk_size": int(chunk_size),
                       "chunks": int(chunks)}
        self._handle = open(self.path, "w")
        self._append_line(self.header)
        return self

    def append(self, chunk_id, indexes, records, worker=None):
        """Durably record one accepted chunk (flush + fsync)."""
        if self._handle is None:
            raise ConfigurationError(
                "journal at {} is not open for appending".format(self.path))
        payload = pickle.dumps(records, protocol=pickle.HIGHEST_PROTOCOL)
        self._append_line({
            "kind": "chunk",
            "chunk": int(chunk_id),
            "indexes": [int(index) for index in indexes],
            "worker": worker,
            "records": base64.b64encode(payload).decode("ascii"),
            "crc32": zlib.crc32(payload) & 0xFFFFFFFF,
        })

    def _append_line(self, entry):
        self._handle.write(json.dumps(entry, sort_keys=True) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self):
        if self._handle is not None:
            try:
                self._handle.close()
            except OSError:
                pass
            self._handle = None

    # -- loading / resuming ----------------------------------------------------
    def exists(self):
        return os.path.exists(self.path)

    def stream(self, guard=None, cells=None):
        """Lazily yield ``(chunk_id, indexes, records)`` per journal line.

        The streaming core under :meth:`load`: the header is validated
        (``guard`` / ``cells`` semantics as documented there, with
        :attr:`header` populated as a side effect), then each chunk line
        is read, decoded, and yielded **one at a time** — nothing is
        retained, so resuming a journal with millions of spooled records
        holds one chunk's records in memory, not the whole file.  An
        undecodable line (a crash mid-append, a damaged byte) is
        skipped; its chunk reruns, and the lines after it still replay.
        """
        try:
            handle = open(self.path)
        except OSError as error:
            raise ConfigurationError(
                "cannot read chunk journal {}: {}".format(self.path,
                                                          error)) from error
        with handle:
            first = handle.readline()
            if not first.strip():
                raise ConfigurationError(
                    "chunk journal {} is empty".format(self.path))
            header = self._decode_header(first)
            if guard is not None and header["guard"] != str(guard):
                raise ConfigurationError(
                    "refusing to resume {}: journal guard {!r} does not "
                    "match this sweep's spec {!r} (different grid, seed, "
                    "or parameters)".format(self.path, header["guard"],
                                            str(guard)))
            if cells is not None and header["cells"] != int(cells):
                raise ConfigurationError(
                    "refusing to resume {}: journal covers {} cells, this "
                    "sweep has {}".format(self.path, header["cells"],
                                          cells))
            self.header = header
            for line in handle:
                entry = self._decode_chunk(line, header)
                if entry is not None:
                    yield entry

    def load(self, guard=None, cells=None):
        """Read the whole journal back; populates :attr:`replayed`.

        ``guard`` / ``cells`` (when given) must match the header — a
        mismatch means the directory holds a *different* sweep's
        progress, and resuming it would silently corrupt results, so a
        :class:`~repro.common.errors.ConfigurationError` is raised
        instead.  Undecodable lines are skipped (see :meth:`stream`).

        Materializes every chunk — callers that only need one pass (the
        engine's resume replay) should iterate :meth:`stream` instead.
        """
        self.replayed = {}
        for chunk_id, indexes, records in self.stream(guard=guard,
                                                      cells=cells):
            self.replayed[chunk_id] = (indexes, records)
        return self

    def reopen_for_append(self):
        """Continue appending to a loaded journal (resume path).

        A torn final line (a crash mid-append) is ended first, so the
        next chunk starts a line of its own instead of being glued to
        the fragment and lost with it.
        """
        with open(self.path, "rb") as handle:
            torn = handle.seek(0, os.SEEK_END) > 0
            if torn:
                handle.seek(-1, os.SEEK_END)
                torn = handle.read(1) != b"\n"
        self._handle = open(self.path, "a")
        if torn:
            self._handle.write("\n")
        return self

    @staticmethod
    def _decode_header(line):
        try:
            header = json.loads(line)
        except ValueError as error:
            raise ConfigurationError(
                "chunk journal header is not valid JSON: "
                "{}".format(error)) from error
        if (not isinstance(header, dict)
                or header.get("kind") != _JOURNAL_KIND):
            raise ConfigurationError(
                "file is not a repro sweep chunk journal")
        if header.get("version") != JOURNAL_VERSION:
            raise ConfigurationError(
                "unsupported chunk journal version {!r}".format(
                    header.get("version")))
        return header

    @staticmethod
    def _decode_chunk(line, header):
        """One journaled chunk, or None when the line is unusable."""
        try:
            entry = json.loads(line)
        except ValueError:
            return None
        if not isinstance(entry, dict) or entry.get("kind") != "chunk":
            return None
        try:
            payload = base64.b64decode(entry["records"], validate=True)
            if (zlib.crc32(payload) & 0xFFFFFFFF) != entry["crc32"]:
                return None
            records = pickle.loads(payload)
            chunk_id = int(entry["chunk"])
            indexes = [int(index) for index in entry["indexes"]]
        except UNDECODABLE:
            return None
        if not (0 <= chunk_id < header["chunks"]):
            return None
        if sorted(record[0] for record in records) != sorted(indexes):
            return None
        return chunk_id, indexes, records

    # -- introspection ---------------------------------------------------------
    def __len__(self):
        return len(self.replayed)

    def __repr__(self):
        return "ChunkJournal(path={!r}, chunks={})".format(
            self.path, len(self.replayed))
