"""Wire protocol for the distributed sweep backend.

One frame = a 4-byte big-endian length prefix followed by a pickled
message.  Messages are plain tuples whose first element names the kind:

* ``("hello", worker_id, pid)`` — worker → coordinator, once per
  connection;
* ``("task", chunk_id, chunk, want_telemetry)`` — coordinator →
  worker, always this one shape; ``chunk`` is a list of ``(index,
  task)`` pairs, exactly what every backend hands the engine's one
  chunk runner (``executor._run_chunk``), and ``want_telemetry`` asks
  the worker to capture and ship telemetry for the chunk.  A worker
  refuses any other shape with
  :class:`~repro.common.errors.TransportError`;
* ``("result", chunk_id, records)`` — worker → coordinator; ``records``
  is the ``(index, ok, payload, wall_ms, pid)`` list that runner
  returned, so results merge through the engine's normal acceptance
  path;
* ``("telemetry", chunk_id, payload)`` — worker → coordinator; one
  drained :class:`~repro.obs.ship.TelemetryCapture` payload (events +
  metric deltas + spans for a finished cell).  Flushed opportunistically
  by the heartbeat thread and always before the chunk's result frame,
  so the coordinator holds a chunk's full telemetry by the time it
  accepts the chunk's records;
* ``("heartbeat", worker_id)`` — worker → coordinator, periodic
  liveness while a chunk is (or isn't) running;
* ``("bye",)`` — coordinator → worker: no more work, disconnect
  cleanly.

:class:`Transport` wraps a connected socket with thread-safe framed
``send``/``recv`` (the worker's heartbeat thread shares the socket with
its result sends).  All socket-level failures surface as
:class:`~repro.common.errors.TransportError`; receive timeouts as the
:class:`~repro.common.errors.TransportTimeout` subclass so callers can
tell "peer is slow or dead" from "peer hung up".

Because frames are *pickled*, an unauthenticated socket would hand
arbitrary-code-execution to anyone who can reach the coordinator port.
:func:`server_auth` / :func:`client_auth` therefore run an HMAC-SHA256
challenge-response handshake over a shared secret **in raw bytes,
before the first pickled frame crosses the wire**: the server sends a
magic + protocol version + random nonce, the client answers with its
own version, nonce, and an HMAC over both nonces, and the server proves
knowledge of the token back (mutual authentication).  The negotiated
protocol version is ``min(server, client)``; versions below
:data:`MIN_PROTOCOL_VERSION` are rejected.  A peer that fails any step
— wrong magic (e.g. a legacy anonymous peer's pickled hello), stale
version, bad MAC — is disconnected before ``pickle.loads`` ever runs.
Anonymous mode (no token on either side) skips the handshake entirely
and speaks the original PR-5 framing, so loopback runs stay
zero-config.

:class:`FaultyTransport` is the seeded chaos double: it wraps a real
transport and injects message drops, delivery delays, and forced
disconnects from a deterministic RNG — the distributed engine's
equivalent of :mod:`repro.faults`.
"""

import hmac
import os
import pickle
import random
import socket
import struct
import threading
import time

from repro.common.errors import (
    AuthenticationError,
    ConfigurationError,
    TransportError,
    TransportTimeout,
)

#: Frame header: one unsigned 32-bit big-endian payload length.
HEADER = struct.Struct(">I")

#: Refuse frames beyond this size — a corrupt header must not make the
#: receiver try to allocate gigabytes.  Per-connection caps can be
#: tightened via ``Transport(..., max_frame_bytes=)``.
MAX_FRAME_BYTES = 256 * 1024 * 1024

#: First bytes of an authenticated connection, both directions.  A
#: legacy anonymous peer's first bytes are a frame header + pickle
#: opcodes, which can never collide with this magic.
AUTH_MAGIC = b"RSWA"

#: Current wire protocol version.  1 = the anonymous PR-5 framing;
#: 2 adds the authenticated handshake, graceful worker leave, and
#: spooled-result replay.  Peers negotiate ``min(server, client)``.
PROTOCOL_VERSION = 2

#: Oldest version an authenticated peer may negotiate down to.
MIN_PROTOCOL_VERSION = 2

_VERSION_STRUCT = struct.Struct(">H")
_NONCE_BYTES = 32
_MAC_BYTES = 32  # SHA-256 digest size


def encode_frame(message, max_frame_bytes=None):
    """Pickle ``message`` and prepend the length header."""
    limit = MAX_FRAME_BYTES if max_frame_bytes is None else max_frame_bytes
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    if len(payload) > limit:
        raise TransportError(
            "frame of {} bytes exceeds the {} byte limit".format(
                len(payload), limit))
    return HEADER.pack(len(payload)) + payload


# -- authentication handshake (raw bytes, pre-pickle) --------------------------

def _mac(token, role, version_bytes, first_nonce, second_nonce):
    if isinstance(token, str):
        token = token.encode("utf-8")
    return hmac.new(token, b"|".join((b"repro-sweep", role, version_bytes,
                                      first_nonce, second_nonce)),
                    "sha256").digest()


def _read_raw(sock, n_bytes, timeout):
    """Read exactly ``n_bytes`` raw bytes (no framing, no pickle)."""
    try:
        sock.settimeout(timeout)
    except OSError as error:
        raise AuthenticationError(str(error)) from error
    chunks = []
    remaining = n_bytes
    while remaining:
        try:
            chunk = sock.recv(remaining)
        except socket.timeout as error:
            raise AuthenticationError(
                "handshake timed out") from error
        except (OSError, ValueError) as error:
            raise AuthenticationError(
                "handshake receive failed: {}".format(error)) from error
        if not chunk:
            raise AuthenticationError(
                "peer closed the connection during the handshake")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def server_auth(sock, token, timeout=10.0):
    """Authenticate an inbound peer; returns the negotiated version.

    Runs entirely on raw bytes: a peer that cannot prove knowledge of
    ``token`` is rejected before any pickled frame is read.  Raises
    :class:`~repro.common.errors.AuthenticationError` on any failure;
    the caller must close the socket.
    """
    server_nonce = os.urandom(_NONCE_BYTES)
    version_bytes = _VERSION_STRUCT.pack(PROTOCOL_VERSION)
    try:
        sock.sendall(AUTH_MAGIC + version_bytes + server_nonce)
    except (OSError, ValueError) as error:
        raise AuthenticationError(
            "handshake send failed: {}".format(error)) from error
    reply = _read_raw(sock, len(AUTH_MAGIC) + _VERSION_STRUCT.size
                      + _NONCE_BYTES + _MAC_BYTES, timeout)
    if reply[:len(AUTH_MAGIC)] != AUTH_MAGIC:
        raise AuthenticationError(
            "peer did not speak the authenticated handshake")
    offset = len(AUTH_MAGIC)
    (client_version,) = _VERSION_STRUCT.unpack_from(reply, offset)
    offset += _VERSION_STRUCT.size
    client_nonce = reply[offset:offset + _NONCE_BYTES]
    offset += _NONCE_BYTES
    client_mac = reply[offset:]
    client_version_bytes = _VERSION_STRUCT.pack(client_version)
    expected = _mac(token, b"client", client_version_bytes, server_nonce,
                    client_nonce)
    if not hmac.compare_digest(client_mac, expected):
        raise AuthenticationError("peer failed token verification")
    negotiated = min(PROTOCOL_VERSION, client_version)
    if negotiated < MIN_PROTOCOL_VERSION:
        raise AuthenticationError(
            "peer protocol version {} below the supported minimum "
            "{}".format(client_version, MIN_PROTOCOL_VERSION))
    proof = _mac(token, b"server", _VERSION_STRUCT.pack(negotiated),
                 client_nonce, server_nonce)
    try:
        sock.sendall(proof)
    except (OSError, ValueError) as error:
        raise AuthenticationError(
            "handshake send failed: {}".format(error)) from error
    return negotiated


def client_auth(sock, token, timeout=10.0):
    """Authenticate to a token-protected coordinator; returns the
    negotiated version.  Mirror image of :func:`server_auth`."""
    preamble = _read_raw(sock, len(AUTH_MAGIC) + _VERSION_STRUCT.size
                         + _NONCE_BYTES, timeout)
    if preamble[:len(AUTH_MAGIC)] != AUTH_MAGIC:
        raise AuthenticationError(
            "coordinator did not offer the authenticated handshake "
            "(is it running without --auth-token?)")
    offset = len(AUTH_MAGIC)
    (server_version,) = _VERSION_STRUCT.unpack_from(preamble, offset)
    offset += _VERSION_STRUCT.size
    server_nonce = preamble[offset:offset + _NONCE_BYTES]
    client_nonce = os.urandom(_NONCE_BYTES)
    version_bytes = _VERSION_STRUCT.pack(PROTOCOL_VERSION)
    try:
        sock.sendall(AUTH_MAGIC + version_bytes + client_nonce
                     + _mac(token, b"client", version_bytes, server_nonce,
                            client_nonce))
    except (OSError, ValueError) as error:
        raise AuthenticationError(
            "handshake send failed: {}".format(error)) from error
    negotiated = min(PROTOCOL_VERSION, server_version)
    if negotiated < MIN_PROTOCOL_VERSION:
        raise AuthenticationError(
            "coordinator protocol version {} below the supported "
            "minimum {}".format(server_version, MIN_PROTOCOL_VERSION))
    proof = _read_raw(sock, _MAC_BYTES, timeout)
    expected = _mac(token, b"server", _VERSION_STRUCT.pack(negotiated),
                    client_nonce, server_nonce)
    if not hmac.compare_digest(proof, expected):
        raise AuthenticationError(
            "coordinator failed token verification (wrong shared "
            "token?)")
    return negotiated


class Transport(object):
    """Framed, thread-safe messaging over one connected socket.

    ``send`` may be called from several threads (a worker's heartbeat
    thread races its result sends); ``recv`` is single-consumer.
    """

    def __init__(self, sock, max_frame_bytes=None):
        self._sock = sock
        self._send_lock = threading.Lock()
        self.max_frame_bytes = (MAX_FRAME_BYTES if max_frame_bytes is None
                                else int(max_frame_bytes))
        self.closed = False
        # Partial-frame state, preserved across receive timeouts so a
        # short-timeout poll that fires mid-frame never desyncs the
        # stream — the next recv resumes exactly where this one stopped.
        self._rbuf = bytearray()
        self._expected = None

    # -- sending -----------------------------------------------------------
    def send(self, message):
        frame = encode_frame(message, self.max_frame_bytes)
        with self._send_lock:
            if self.closed:
                raise TransportError("send on closed transport")
            try:
                self._sock.sendall(frame)
            except (OSError, ValueError) as error:
                self.close()
                raise TransportError(
                    "send failed: {}".format(error)) from error

    # -- receiving ---------------------------------------------------------
    def _fill(self):
        """One socket read into the resume buffer.

        A timeout here raises :class:`TransportTimeout` *without*
        discarding what has already arrived; the next :meth:`recv` picks
        the frame back up.
        """
        try:
            chunk = self._sock.recv(65536)
        except socket.timeout as error:
            raise TransportTimeout("receive timed out") from error
        except (OSError, ValueError) as error:
            self.close()
            raise TransportError(
                "receive failed: {}".format(error)) from error
        if not chunk:
            self.close()
            raise TransportError("peer closed the connection")
        self._rbuf += chunk

    def recv(self, timeout=None):
        """Receive one message; ``timeout`` in seconds (None = block).

        A :class:`TransportTimeout` leaves the transport usable: partial
        frame bytes stay buffered and the next call resumes them, so
        short-timeout polling cannot desync the framing.
        """
        if self.closed:
            raise TransportError("recv on closed transport")
        try:
            self._sock.settimeout(timeout)
        except OSError as error:
            self.close()
            raise TransportError(str(error)) from error
        while self._expected is None:
            if len(self._rbuf) >= HEADER.size:
                header_bytes = bytes(self._rbuf[:HEADER.size])
                if header_bytes == AUTH_MAGIC:
                    # The peer opened with the authenticated handshake,
                    # but this transport never ran it: a token-less
                    # worker dialing a token-protected coordinator.
                    # Retrying can never succeed, so fail loudly instead
                    # of looking like a flaky link.
                    self.close()
                    raise AuthenticationError(
                        "peer requires the authenticated handshake "
                        "(missing --auth-token / REPRO_SWEEP_TOKEN?)")
                (length,) = HEADER.unpack(header_bytes)
                if length > self.max_frame_bytes:
                    self.close()
                    raise TransportError(
                        "peer announced a {} byte frame (limit "
                        "{})".format(length, self.max_frame_bytes))
                del self._rbuf[:HEADER.size]
                self._expected = length
                break
            self._fill()
        while len(self._rbuf) < self._expected:
            self._fill()
        payload = bytes(self._rbuf[:self._expected])
        del self._rbuf[:self._expected]
        self._expected = None
        try:
            return pickle.loads(payload)
        except Exception as error:  # noqa: BLE001 — corrupt frame
            self.close()
            raise TransportError(
                "undecodable frame: {}".format(error)) from error

    # -- lifecycle ---------------------------------------------------------
    def close(self):
        self.closed = True
        try:
            self._sock.close()
        except OSError:
            pass

    def __repr__(self):
        return "Transport(closed={})".format(self.closed)


def connect(host, port, timeout=10.0, token=None, max_frame_bytes=None):
    """Dial ``host:port`` and return a :class:`Transport`.

    With ``token`` set, the authenticated handshake runs before the
    transport is handed back — a coordinator that is not token-protected
    (or holds a different token) raises
    :class:`~repro.common.errors.AuthenticationError`.
    """
    try:
        sock = socket.create_connection((host, port), timeout=timeout)
    except OSError as error:
        raise TransportError(
            "cannot connect to {}:{}: {}".format(host, port,
                                                 error)) from error
    if token:
        try:
            client_auth(sock, token, timeout=timeout)
        except AuthenticationError:
            try:
                sock.close()
            except OSError:
                pass
            raise
    sock.settimeout(None)
    return Transport(sock, max_frame_bytes=max_frame_bytes)


def parse_address(address):
    """``"host:port"`` → ``(host, port)`` (IPv4/hostname form)."""
    host, _, port = str(address).rpartition(":")
    if not host or not port:
        raise ConfigurationError(
            "address must look like host:port, got {!r}".format(address))
    try:
        return host, int(port)
    except ValueError:
        raise ConfigurationError(
            "port must be an integer, got {!r}".format(port))


class FaultyTransport(object):
    """Seeded chaos wrapper around a :class:`Transport`.

    Every ``send`` and ``recv`` consults a private deterministic RNG:

    * with probability ``disconnect`` the transport closes itself and
      raises :class:`TransportError` (a vanished peer);
    * with probability ``drop`` the message silently disappears (sends
      return, receives keep waiting for the next frame);
    * with ``delay_s > 0`` delivery sleeps a uniform ``[0, delay_s)``
      first (a congested link).

    The fault sequence is a pure function of ``seed`` and call order, so
    chaos tests replay the same misbehaviour every run.
    """

    def __init__(self, inner, seed=0, drop=0.0, delay_s=0.0,
                 disconnect=0.0):
        for name, probability in (("drop", drop),
                                  ("disconnect", disconnect)):
            if not 0.0 <= float(probability) <= 1.0:
                raise ConfigurationError(
                    "{} must be a probability, got {}".format(
                        name, probability))
        self._inner = inner
        self._rng = random.Random(seed)
        self.drop = float(drop)
        self.delay_s = float(delay_s)
        self.disconnect = float(disconnect)
        self.faults_injected = 0

    @property
    def closed(self):
        return self._inner.closed

    def _maybe_disconnect(self, action):
        if self.disconnect and self._rng.random() < self.disconnect:
            self.faults_injected += 1
            self.close()
            raise TransportError(
                "injected disconnect during {}".format(action))

    def _maybe_delay(self):
        if self.delay_s:
            time.sleep(self._rng.uniform(0.0, self.delay_s))

    def send(self, message):
        self._maybe_disconnect("send")
        if self.drop and self._rng.random() < self.drop:
            self.faults_injected += 1
            return  # swallowed by the network
        self._maybe_delay()
        self._inner.send(message)

    def recv(self, timeout=None):
        deadline = (time.monotonic() + timeout
                    if timeout is not None else None)
        while True:
            self._maybe_disconnect("recv")
            remaining = None
            if deadline is not None:
                remaining = max(0.0, deadline - time.monotonic())
            message = self._inner.recv(timeout=remaining)
            if self.drop and self._rng.random() < self.drop:
                self.faults_injected += 1
                continue  # lost on the wire; wait for the next frame
            self._maybe_delay()
            return message

    def close(self):
        self._inner.close()

    def __repr__(self):
        return ("FaultyTransport(drop={}, delay_s={}, disconnect={}, "
                "injected={})".format(self.drop, self.delay_s,
                                      self.disconnect,
                                      self.faults_injected))
