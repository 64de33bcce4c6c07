"""Length-prefixed TCP shuffle service: span server + fault-aware client.

The paper's analytics-as-a-service framing assumes a real cluster, and a
cluster shuffle rides a network that drops connections, delays packets and
flips bits.  This module is the networked half of the shuffle plane:

* :class:`ShuffleServer` exports a transport root directory over a tiny
  length-prefixed TCP protocol — one request per connection, one span
  (byte range of a checksummed frame file) per request.  The server never
  decodes frames; it streams raw bytes, so the PR 7/8 frame CRCs travel
  end-to-end and the *client* is the integrity check.
* :class:`ShuffleFetchClient` fetches spans with bounded retries, seeded
  exponential backoff + jitter (:class:`~repro.engine.retry.RetryPolicy`),
  connect/read timeouts, and per-frame CRC verification of every fetched
  payload.  Only after the retry budget is spent does a failure escalate
  to the caller — stage-level lineage recovery (PR 8) is the second line
  of defense, not the first.

Network chaos is injected *server-side* and deterministically: drop and
wire-corruption decisions are pure functions of ``(seed, span key,
attempt)``, where the span key normalizes away worker pids from file
names, so identical runs replay identical failures and every retry draws
a fresh decision (a dropped fetch is not dropped forever).

Protocol (all little-endian)::

    request:  magic b"RSHF" | attempt u8 | offset i64 | length i64 |
              path_len u16 | relpath utf-8
    response: status u8 (0 ok, 1 not found, 2 error) | payload_len u64 |
              payload bytes

The attempt number rides in the request purely so the server's seeded
chaos can key on it — the server is otherwise stateless per request.
"""

from __future__ import annotations

import errno
import os
import posixpath
import socket
import struct
import threading
import time
from typing import List, Optional, Tuple

from ..config import FETCH_TIMEOUT_S
from ..errors import ShuffleCorruptionError
from .memory import load_frames_bytes
from .retry import FAILURES, Faults, RetryPolicy, policy

#: Request header: magic, attempt, offset, length, relpath byte length.
_REQUEST = struct.Struct("<4sBqqH")
#: Response header: status byte, payload byte length.
_RESPONSE = struct.Struct("<BQ")

_MAGIC = b"RSHF"

STATUS_OK = 0
STATUS_NOT_FOUND = 1
STATUS_ERROR = 2


class AddressInUseError(OSError):
    """The requested port was taken on every bounded bind attempt."""


def span_chaos_key(relpath: str, offset: int) -> str:
    """Pid-free identity of one fetched span, for seeded chaos decisions.

    Transport file names embed the writing worker's pid and a sequence
    number (``map-3-71234-9.data``); keying chaos on the raw path would
    make the injected failure schedule vary run-to-run with pid
    assignment.  Keeping only the logical prefix of the basename
    (``map-3``) plus the shuffle directory and offset yields a key that is
    stable across runs, while a *recomputed* span (new offset or new
    shuffle directory) still draws a fresh decision.
    """
    directory, basename = posixpath.split(relpath.replace(os.sep, "/"))
    stem = basename.split(".", 1)[0]
    logical = "-".join(stem.split("-")[:2])
    return f"{directory}/{logical}:{offset}"


def _recv_exact(connection: socket.socket, size: int) -> bytes:
    """Read exactly ``size`` bytes or raise ``ConnectionError`` (short read)."""
    chunks: List[bytes] = []
    remaining = size
    while remaining > 0:
        chunk = connection.recv(min(remaining, 1 << 16))
        if not chunk:
            raise ConnectionError(
                f"connection closed {remaining} bytes short of {size}")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


class ShuffleServer:
    """Serve byte ranges of a transport root over TCP, with seeded chaos.

    One thread accepts connections; each request is served on its own
    daemon thread (requests are small and the test/benchmark fan-in is
    bounded by the worker count, so thread-per-connection is the simplest
    correct shape).  The server validates that every requested path stays
    under ``root`` and that the span's offset and length are not negative
    — a traversal attempt or a negative span gets ``STATUS_ERROR``, never
    bytes.

    Three fail points of :data:`~repro.engine.retry.FAULTS`, armed by
    ``faults``, fire here: ``drop`` closes the connection without replying
    (the client sees a short read and retries), ``delay`` sleeps that many
    seconds before replying (straggler injection for speculation tests),
    and ``corrupt`` damages the payload *after* reading it from disk —
    on-the-wire rot the client's frame CRCs must catch.  The draws key on
    :func:`span_chaos_key` + the request's attempt number, so schedules
    are deterministic and retries are not doomed to repeat the failure.
    """

    def __init__(self, root: str, faults: Optional[Faults] = None,
                 host: str = "127.0.0.1", port: int = 0,
                 bind_policy: Optional[RetryPolicy] = None) -> None:
        self.root = os.path.abspath(root)
        self._faults = faults or Faults()
        self._delay_s = self._faults.values.get("delay", 0.0)
        self._lock = threading.Lock()
        self._closed = False
        self.requests_served = 0
        #: Live per-request threads, joined by :meth:`stop` so shutdown
        #: drains in-flight responses instead of racing them.
        self._in_flight: set = set()
        self._socket = self._bind(host, port, bind_policy)
        self.address: Tuple[str, int] = self._socket.getsockname()
        self._thread = threading.Thread(target=self._accept_loop,
                                        name="shuffle-server", daemon=True)
        self._thread.start()

    def _bind(self, host: str, port: int,
              bind_policy: Optional[RetryPolicy]) -> socket.socket:
        """Bind and listen, retrying a taken port with bounded backoff.

        A fixed ``port`` (multi-context test rigs, quick restarts into a
        lingering TIME_WAIT socket) can transiently collide; retrying under
        the declared bind policy (:func:`~repro.engine.retry.policy`) rides
        that out.  Any other bind error — permissions, bad interface — is
        not retried.  Exhaustion raises :class:`AddressInUseError`.
        """
        if bind_policy is None:
            bind_policy = policy(self._faults, "bind")

        def bind_once(attempt: int) -> socket.socket:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            try:
                sock.bind((host, port))
                sock.listen(128)
            except OSError as error:
                sock.close()
                if getattr(error, "errno", None) == errno.EADDRINUSE:
                    raise AddressInUseError(
                        f"port {port} on {host} is in use "
                        f"(attempt {attempt + 1})") from error
                raise
            return sock

        return bind_policy.run(bind_once, key=f"bind:{host}:{port}",
                               retry_on=(AddressInUseError,))

    def _accept_loop(self) -> None:
        while True:
            try:
                connection, _ = self._socket.accept()
            except OSError:  # stop() closed the listening socket
                return
            worker = threading.Thread(target=self._serve,
                                      args=(connection,), daemon=True)
            with self._lock:
                if self._closed:
                    connection.close()
                    return
                self._in_flight.add(worker)
            worker.start()

    def _serve(self, connection: socket.socket) -> None:
        try:
            self._serve_request(connection)
        finally:
            with self._lock:
                self._in_flight.discard(threading.current_thread())

    def _serve_request(self, connection: socket.socket) -> None:
        try:
            with connection:
                connection.settimeout(30.0)
                header = _recv_exact(connection, _REQUEST.size)
                magic, attempt, offset, length, path_len = \
                    _REQUEST.unpack(header)
                if magic != _MAGIC:
                    connection.sendall(_RESPONSE.pack(STATUS_ERROR, 0))
                    return
                relpath = _recv_exact(connection, path_len).decode("utf-8")
                with self._lock:
                    self.requests_served += 1
                path = os.path.normpath(os.path.join(self.root, relpath))
                if offset < 0 or length < 0 or \
                        not path.startswith(self.root + os.sep):
                    connection.sendall(_RESPONSE.pack(STATUS_ERROR, 0))
                    return
                if self._delay_s:
                    time.sleep(self._delay_s)
                key = f"{span_chaos_key(relpath, offset)}:{attempt}"
                if self._faults.fires("drop", key):
                    return  # close without replying: the client retries
                try:
                    with open(path, "rb") as handle:
                        handle.seek(offset)
                        payload = handle.read(length)
                except FileNotFoundError:
                    connection.sendall(_RESPONSE.pack(STATUS_NOT_FOUND, 0))
                    return
                except OSError:
                    connection.sendall(_RESPONSE.pack(STATUS_ERROR, 0))
                    return
                payload = self._faults.damage(payload, f"wire:{key}")
                connection.sendall(_RESPONSE.pack(STATUS_OK, len(payload)))
                if payload:
                    connection.sendall(payload)
        except (OSError, ValueError):
            return  # a broken peer never takes the server down

    def stop(self) -> None:
        """Graceful shutdown: stop accepting, then drain in-flight requests.

        New connections are refused first (listening socket closed), then
        every request thread already serving a response is joined — a
        fetch that reached the server before the shutdown gets its bytes,
        it is never cut off mid-payload.  Idempotent.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        # a bare close() does not wake a thread blocked in accept() on
        # Linux; shutdown() makes the pending accept fail immediately
        try:
            self._socket.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._socket.close()
        except OSError:
            pass
        self._thread.join(timeout=5.0)
        with self._lock:
            draining = list(self._in_flight)
        for worker in draining:
            try:
                worker.join(timeout=5.0)
            except RuntimeError:
                pass  # registered but not yet started; it will see _closed


class FetchError(OSError):
    """A single fetch attempt failed for a non-corruption reason."""


class ShuffleFetchClient:
    """Retrying, CRC-verifying client for :class:`ShuffleServer` spans.

    Each fetch runs under the shared :class:`RetryPolicy`: connection
    errors, timeouts, short reads, dropped responses *and* frame-CRC
    mismatches in the fetched payload all consume one retry with seeded
    backoff before the next attempt.  Exhausting the budget raises
    :class:`~repro.errors.ShuffleCorruptionError` (the shuffle layer's
    escalation currency — the caller wraps it into ``FetchFailedError``
    for lineage recovery).  Retries are counted and drained by the task
    that triggered them, surfacing as the ``fetch_retries`` metric.
    """

    def __init__(self, address: Tuple[str, int],
                 policy: Optional[RetryPolicy] = None,
                 timeout_s: float = FETCH_TIMEOUT_S) -> None:
        self._address = (address[0], int(address[1]))
        self._policy = policy if policy is not None else RetryPolicy()
        self._timeout_s = timeout_s
        self._lock = threading.Lock()
        self._retries = 0

    def drain_retries(self) -> int:
        """Return and reset the retry count accumulated since the last drain."""
        with self._lock:
            count, self._retries = self._retries, 0
            return count

    def _count_retry(self, attempt: int, error: BaseException) -> None:
        with self._lock:
            self._retries += 1

    def fetch_bytes(self, relpath: str, offset: int, length: int,
                    attempt: int) -> bytes:
        """One fetch attempt: raw span bytes, or ``FetchError`` on failure."""
        request_path = relpath.replace(os.sep, "/").encode("utf-8")
        try:
            with socket.create_connection(self._address,
                                          timeout=self._timeout_s) as conn:
                conn.sendall(_REQUEST.pack(_MAGIC, attempt & 0xFF,
                                           offset, length,
                                           len(request_path)))
                conn.sendall(request_path)
                header = _recv_exact(conn, _RESPONSE.size)
                status, payload_len = _RESPONSE.unpack(header)
                if status == STATUS_NOT_FOUND:
                    raise FetchError(
                        f"shuffle server has no file for {relpath!r}")
                if status != STATUS_OK:
                    raise FetchError(
                        f"shuffle server rejected the request for "
                        f"{relpath!r} (status {status})")
                return _recv_exact(conn, payload_len)
        except socket.timeout as error:
            raise FetchError(
                f"fetch of {relpath!r} timed out after "
                f"{self._timeout_s}s") from error

    def fetch_records(self, relpath: str, offset: int, length: int) -> list:
        """Fetch one span and decode it through the checksummed frame reader.

        The full ladder: transient socket failures and CRC mismatches are
        retried with backoff; exhaustion raises ``ShuffleCorruptionError``
        naming the span, which the shuffle layer escalates to lineage
        recovery.
        """
        key = span_chaos_key(relpath, offset)
        label = f"tcp://{self._address[0]}:{self._address[1]}/{relpath}"

        def attempt_fetch(attempt: int) -> list:
            payload = self.fetch_bytes(relpath, offset, length, attempt)
            if len(payload) != length:
                raise FetchError(
                    f"span {relpath!r} came back {len(payload)} bytes, "
                    f"expected {length}")
            return load_frames_bytes(payload, label)

        try:
            return self._policy.run(
                attempt_fetch, key=key,
                retry_on=FAILURES["fetch_error"].detect,
                on_retry=self._count_retry)
        except OSError as error:
            raise ShuffleCorruptionError(
                f"fetch of {label!r} failed after "
                f"{self._policy.max_retries + 1} attempts: {error}",
                path=label, offset=offset) from error
