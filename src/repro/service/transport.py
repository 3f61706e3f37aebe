"""Keep-alive HTTP transport shared by the client, the front and the
service.

Every hop of the serving stack -- client -> ``serve`` or the cluster
front, front -> shard -- speaks HTTP/1.1 over connections that stay
open between requests:

- :class:`ConnectionPool` is the one client-side implementation.  It
  keeps idle connections per ``(host, port)``, hands each to one
  request at a time (so one pool is safe to share across threads),
  with Nagle off (``http.client`` sees to that on connect), drops
  connections the server marked ``Connection: close``, and retries a
  request exactly once when a *reused* connection fails before any
  response byte arrives (the server closed it while it sat idle).  A fresh connection that fails
  is never retried: that error is the caller's to handle.
- :class:`KeepAliveHTTPServer` and :class:`JSONHandler` are the one
  server-side base.  Accepted sockets have Nagle off, a connection
  idle for :data:`IDLE_TIMEOUT_S` is closed, a draining server
  answers with ``Connection: close``, and after ``server_close()`` a
  kept connection is served nothing more.  Both servers read a
  request's deadline through :meth:`JSONHandler.request_deadline`.

Nagle matters because ``http.server`` writes the headers and the body
of a response in two sends: with Nagle on, the body waits for the
client's delayed ACK of the headers (~40 ms on Linux) on every
response of a kept connection.  The handler also buffers each
response, so one that fits the 64 KiB write buffer leaves in one send.
"""

from __future__ import annotations

import json
import re
import socket
import sys
import threading
import time
from collections import Counter
from http.client import HTTPConnection
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from repro.core.schema import versioned

#: ``/v1/jobs/<id>``, the one parameterized route of both servers
JOB_PATH = re.compile(r"^/v1/jobs/([A-Za-z0-9_.-]+)$")
#: a server closes a kept connection that has been idle this long
IDLE_TIMEOUT_S = 30.0
#: a pool forgets an idle connection well before the server closes
#: it, so the stale-connection retry stays the rare race it is meant
#: for instead of the usual path
POOL_IDLE_S = IDLE_TIMEOUT_S / 2
#: idle connections a pool keeps per ``(host, port)``; more are closed
POOL_MAX_IDLE = 8
#: cap on request bodies (a serialized bundle, or a batch of them);
#: a larger ``Content-Length`` is answered 413 without being read
MAX_BODY_BYTES = 32 * 1024 * 1024

#: request-level deadline intake: relative seconds, as an HTTP header
#: or a reserved top-level key in the bundle document.  The field is
#: stripped before decoding, so the same bundle with different
#: deadlines still shares one bundle key (coalescing and cluster
#: routing stay deadline-blind).
DEADLINE_HEADER = "X-Ppchecker-Deadline"
DEADLINE_FIELD = "deadline_s"


class InvalidDeadline(ValueError):
    """The request's deadline header/field is not a positive number."""


def parse_deadline_seconds(value: Any) -> float:
    """A deadline is a finite, positive number of seconds."""
    try:
        seconds = float(value)
    except (TypeError, ValueError) as exc:
        raise InvalidDeadline(
            f"deadline must be a number of seconds: {value!r}"
        ) from exc
    if not seconds > 0 or seconds != seconds or seconds == float("inf"):
        raise InvalidDeadline(
            f"deadline must be a finite positive number of seconds: "
            f"{value!r}")
    return seconds


class ConnectionPool:
    """Thread-safe keep-alive connections keyed by ``(host, port)``."""

    def __init__(self, timeout: float) -> None:
        self.timeout = timeout
        #: (host, port) -> [(connection, idle since)], most recent last
        self._idle: dict[tuple[str, int],
                         list[tuple[HTTPConnection, float]]] = {}
        self._lock = threading.Lock()

    def request(self, host: str, port: int, method: str, path: str,
                doc: Any = None, headers: dict[str, str] | None = None,
                ) -> tuple[int, dict[str, str], Any]:
        """One round trip; returns ``(status, headers, payload)``,
        the payload JSON-decoded when the response is JSON.

        Raises :class:`OSError` or
        :class:`http.client.HTTPException` when the exchange fails;
        the connection is then discarded."""
        body = None
        out = dict(headers or {})
        if doc is not None:
            body = json.dumps(doc).encode("utf-8")
            out["Content-Type"] = "application/json"
        conn = self._checkout(host, port)
        reused = conn is not None
        if conn is None:
            conn = self._connect(host, port)
        try:
            try:
                conn.request(method, path, body=body, headers=out)
                response = conn.getresponse()
            except ConnectionError:
                # nothing of a response arrived: on a reused
                # connection the server closed it while it was idle,
                # so the request never ran -- one fresh attempt
                if not reused:
                    raise
                conn.close()
                conn = self._connect(host, port)
                conn.request(method, path, body=body, headers=out)
                response = conn.getresponse()
            raw = response.read()
        except BaseException:
            conn.close()
            raise
        response_headers = dict(response.getheaders())
        if response.will_close:
            conn.close()
        else:
            self._checkin(host, port, conn)
        content_type = response_headers.get("Content-Type", "")
        payload: Any
        if content_type.startswith("application/json"):
            payload = json.loads(raw) if raw else None
        else:
            payload = raw.decode("utf-8", "replace")
        return response.status, response_headers, payload

    def _connect(self, host: str, port: int) -> HTTPConnection:
        conn = HTTPConnection(host, port, timeout=self.timeout)
        conn.connect()  # http.client turns Nagle off here
        return conn

    def _checkout(self, host: str, port: int) -> HTTPConnection | None:
        """The most recently used idle connection to ``(host, port)``,
        or None.  Connections idle past :data:`POOL_IDLE_S` are closed
        on the way, for every address -- which is also how
        connections to a shard that respawned onto a new port are let
        go."""
        now = time.monotonic()
        expired: list[HTTPConnection] = []
        conn = None
        with self._lock:
            for key in list(self._idle):
                entries = self._idle[key]  # oldest first
                while entries and now - entries[0][1] >= POOL_IDLE_S:
                    expired.append(entries.pop(0)[0])
                if not entries:
                    del self._idle[key]
            idle = self._idle.get((host, port))
            if idle:
                conn = idle.pop()[0]
        for old in expired:
            old.close()
        return conn

    def _checkin(self, host: str, port: int,
                 conn: HTTPConnection) -> None:
        with self._lock:
            idle = self._idle.setdefault((host, port), [])
            if len(idle) < POOL_MAX_IDLE:
                idle.append((conn, time.monotonic()))
                return
        conn.close()

    def close(self) -> None:
        """Close every idle connection; the pool stays usable."""
        with self._lock:
            idle = [conn for entries in self._idle.values()
                    for conn, _since in entries]
            self._idle.clear()
        for conn in idle:
            conn.close()


class KeepAliveHTTPServer(ThreadingHTTPServer):
    """A thread-per-connection HTTP/1.1 server whose connections stay
    open between requests until the client closes them, they idle for
    :data:`IDLE_TIMEOUT_S`, or the server closes."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: tuple[str, int],
                 handler: type[BaseHTTPRequestHandler],
                 app: Any) -> None:
        #: what the handlers serve (a service or a cluster front):
        #: :class:`JSONHandler` reads its ``draining`` and
        #: ``metrics.requests``
        self.app = app
        #: connections whose handler waits for the next request line
        self._waiting: set[socket.socket] = set()
        self._closed = False
        self._conn_lock = threading.Lock()
        super().__init__(address, handler)

    def await_request(self, sock: socket.socket) -> bool:
        """*sock*'s handler is about to wait for a request; False
        once the server is closed (the handler must hang up)."""
        with self._conn_lock:
            if self._closed:
                return False
            self._waiting.add(sock)
            return True

    def begin_request(self, sock: socket.socket) -> bool:
        """A request line arrived on *sock*; False once the server is
        closed (the request must go unanswered)."""
        with self._conn_lock:
            self._waiting.discard(sock)
            return not self._closed

    def shutdown_request(self, request: Any) -> None:
        with self._conn_lock:
            self._waiting.discard(request)
        super().shutdown_request(request)

    def server_close(self) -> None:
        """Close the listener and every kept connection, then join
        the handler threads.  A waiting handler is woken by the
        shutdown and hangs up; a busy one finishes its response and
        then hangs up.  Either way a request sent on a kept
        connection after this returns fails instead of being served.
        (Shutting down the read side alone is not enough: Linux still
        queues data that arrives afterwards, so the refusal is
        checked again when a request line is read.)"""
        with self._conn_lock:
            self._closed = True
            for sock in self._waiting:
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
            self._waiting.clear()
        super().server_close()

    def handle_error(self, request: Any, client_address: Any) -> None:
        # a peer that went away (a client or front dropping a pooled
        # connection, a shard exiting) is routine, not a traceback
        if isinstance(sys.exc_info()[1],
                      (ConnectionResetError, BrokenPipeError)):
            return
        super().handle_error(request, client_address)


class JSONHandler(BaseHTTPRequestHandler):
    """Request plumbing shared by the service and the front: JSON
    bodies in and out, structured errors, per-endpoint counting, and
    the keep-alive protocol of :class:`KeepAliveHTTPServer`."""

    protocol_version = "HTTP/1.1"
    #: socket timeout; an idle kept connection is closed after it
    timeout = IDLE_TIMEOUT_S
    #: TCP_NODELAY on every accepted connection (see the module doc)
    disable_nagle_algorithm = True
    #: buffer each response so headers and body leave in one send
    #: (``handle_one_request`` flushes after every request): each
    #: send gives up the GIL, and taking it back can wait out a
    #: worker thread's switch interval
    wbufsize = 1 << 16

    _ENDPOINTS = ("/healthz", "/metrics", "/v1/check", "/v1/jobs",
                  "/v1/batch", "/v1/deadletter")

    def version_string(self) -> str:
        return self.server_version  # no sys_version leak

    def log_message(self, format: str, *args: Any) -> None:
        pass  # /metrics is the observability surface, not stderr

    @property
    def app(self) -> Any:
        return self.server.app  # type: ignore[attr-defined]

    # -- keep-alive --------------------------------------------------------

    def handle_one_request(self) -> None:
        if not self.server.await_request(  # type: ignore[attr-defined]
                self.connection):
            self.close_connection = True
            return
        super().handle_one_request()

    def parse_request(self) -> bool:
        if not self.server.begin_request(  # type: ignore[attr-defined]
                self.connection):
            self.close_connection = True
            return False
        return super().parse_request()

    def handle_expect_100(self) -> bool:
        super().handle_expect_100()
        # the client holds the body back until this interim answer
        # arrives, so it cannot wait in the response buffer
        self.wfile.flush()
        return True

    # -- requests ----------------------------------------------------------

    def request_deadline(self, doc: Any) -> float | None:
        """The request's relative deadline in seconds, from the
        reserved ``deadline_s`` document field (popped -- it is not
        part of the bundle) or the ``X-Ppchecker-Deadline``
        header; the field wins when both are present.  Raises
        :class:`InvalidDeadline` on garbage."""
        value: Any = None
        if isinstance(doc, dict) and DEADLINE_FIELD in doc:
            value = doc.pop(DEADLINE_FIELD)
        elif self.headers.get(DEADLINE_HEADER) is not None:
            value = self.headers.get(DEADLINE_HEADER)
        if value is None:
            return None
        return parse_deadline_seconds(value)

    # -- responses ---------------------------------------------------------

    def _endpoint(self) -> str:
        path = self.path.split("?", 1)[0]
        if JOB_PATH.match(path):
            return "/v1/jobs/{id}"
        if path in self._ENDPOINTS:
            return path
        return "other"

    def _send(self, status: int, body: bytes, content_type: str,
              headers: dict[str, str] | None = None) -> None:
        self.app.metrics.requests.inc(endpoint=self._endpoint(),
                                      status=str(status))
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        if self.close_connection or self.app.draining:
            # tell a keep-alive client not to reuse this connection
            # (send_header also marks it closed on our side)
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, payload: dict,
                   headers: dict[str, str] | None = None) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self._send(status, body, "application/json", headers)

    def _send_error_json(self, status: int, kind: str, message: str,
                         headers: dict[str, str] | None = None,
                         **extra: Any) -> None:
        self._send_json(status, versioned(
            {"error": {"kind": kind, "message": message, **extra}}
        ), headers)

    def _read_json(self) -> Any:
        """The request body decoded as JSON, or None after answering
        411/413/400.  A body left unread closes the connection."""
        length = self.headers.get("Content-Length")
        if length is None:
            self.close_connection = True
            self._send_error_json(411, "length_required",
                                  "Content-Length is required")
            return None
        try:
            length = int(length)
        except ValueError:
            length = -1
        if length < 0:
            self.close_connection = True
            self._send_error_json(
                400, "bad_request",
                "Content-Length must be a non-negative integer")
            return None
        if length > MAX_BODY_BYTES:
            self.close_connection = True
            self._send_error_json(413, "too_large",
                                  f"body exceeds {MAX_BODY_BYTES} bytes")
            return None
        body = self.rfile.read(length)
        try:
            return json.loads(body)
        except ValueError:
            self._send_error_json(400, "bad_request",
                                  "request body is not valid JSON")
            return None

    def _read_bundles(self) -> list | None:
        """The bundle documents of a ``POST /v1/batch`` body, or None
        after answering 4xx."""
        doc = self._read_json()
        if doc is None:
            return None
        bundles = doc.get("bundles") if isinstance(doc, dict) else doc
        if not isinstance(bundles, list) or not bundles:
            self._send_error_json(
                400, "bad_request",
                'body must be {"bundles": [bundle, ...]}')
            return None
        return bundles


def batch_answer(results: list[dict]) -> dict:
    """The ``POST /v1/batch`` answer of a service or a front: the
    per-bundle *results* in submission order, counted by status."""
    counts = Counter(result.get("status", "rejected")
                     for result in results)
    return versioned({
        "results": results,
        "checked": counts["ok"],
        "quarantined": counts["quarantined"],
        "rejected": counts["rejected"] + counts["invalid"],
        "shed": counts["shed"],
    })


__all__ = [
    "ConnectionPool",
    "DEADLINE_FIELD",
    "DEADLINE_HEADER",
    "IDLE_TIMEOUT_S",
    "InvalidDeadline",
    "JOB_PATH",
    "JSONHandler",
    "KeepAliveHTTPServer",
    "MAX_BODY_BYTES",
    "POOL_IDLE_S",
    "POOL_MAX_IDLE",
    "batch_answer",
    "parse_deadline_seconds",
]
