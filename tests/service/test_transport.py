"""The keep-alive transport (:mod:`repro.service.transport`).

Client side: one connection per client thread, a stale reused
connection retried exactly once, a refused fresh one never retried,
and the front's shard pool riding out a respawn without touching the
reroute counter or the retry budget.  Server side:
Nagle off (no delayed-ACK stall on kept connections), idle and drain
closes, nothing served on a kept connection after ``close()``, and no
tracebacks for peers that hang up.
"""

from __future__ import annotations

import http.client
import json
import socket
import sys
import threading
import time

import pytest

from repro.core.checker import CheckerOptions
from repro.service import (
    ServiceClient,
    ServiceConfig,
    start_service,
    transport,
)
from repro.service.cluster import (
    ClusterConfig,
    ClusterFront,
    FrontMetrics,
    ShardSupervisor,
    start_cluster,
)
from repro.service.transport import (
    MAX_BODY_BYTES,
    ConnectionPool,
    JSONHandler,
    KeepAliveHTTPServer,
)

from tests.service.test_service import make_doc


class StubServer:
    """A raw-socket HTTP/1.1 server that counts accepted connections.

    ``answers[i]`` is how many requests connection *i* answers before
    it hangs up without a ``Connection: close`` (0 = at once); past
    the end of the list a connection answers everything."""

    def __init__(self, answers: list[int] = ()) -> None:
        self.answers = list(answers)
        self.accepts = 0
        self.served = 0
        self._lock = threading.Lock()
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.port = self._listener.getsockname()[1]
        self._thread = threading.Thread(target=self._accept_loop,
                                        daemon=True)
        self._thread.start()

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            with self._lock:
                index = self.accepts
                self.accepts += 1
            limit = (self.answers[index] if index < len(self.answers)
                     else None)
            threading.Thread(target=self._serve, args=(conn, limit),
                             daemon=True).start()

    def _serve(self, conn: socket.socket, limit: int | None) -> None:
        reader = conn.makefile("rb")
        answered = 0
        try:
            while limit is None or answered < limit:
                length = 0
                line = reader.readline()
                if not line:
                    return
                while line not in (b"\r\n", b""):
                    name, _, value = line.decode().partition(":")
                    if name.lower() == "content-length":
                        length = int(value)
                    line = reader.readline()
                reader.read(length)
                with self._lock:
                    self.served += 1
                    body = b'{"served": %d}' % self.served
                conn.sendall(b"HTTP/1.1 200 OK\r\n"
                             b"Content-Type: application/json\r\n"
                             b"Content-Length: %d\r\n\r\n%s"
                             % (len(body), body))
                answered += 1
        except OSError:
            pass
        finally:
            reader.close()
            conn.close()

    def close(self) -> None:
        self._listener.close()


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestConnectionPool:
    def test_one_thread_opens_one_connection(self):
        stub = StubServer()
        client = ServiceClient(port=stub.port, timeout=10.0)
        try:
            for _ in range(25):
                assert "served" in client.check(make_doc())
            assert stub.served == 25
            assert stub.accepts == 1
        finally:
            client.close()
            stub.close()

    def test_pool_stress_one_connection_per_concurrent_caller(self):
        # more threads than cores, rapid switching: a lost update in
        # the pool would hand one connection to two callers at once,
        # which garbles the exchange or opens extra connections
        stub = StubServer()
        client = ServiceClient(port=stub.port, timeout=10.0)
        threads_n, calls = 8, 25
        errors = []

        def work() -> None:
            try:
                for _ in range(calls):
                    assert "served" in client.healthz()
            except BaseException as exc:  # reported by the assert below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work)
                       for _ in range(threads_n)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
            client.close()
            stub.close()
        assert errors == []
        assert stub.served == threads_n * calls
        assert stub.accepts <= threads_n

    def test_stale_reused_connection_is_retried_once(self):
        # connection 0 answers once, then hangs up while pooled
        stub = StubServer(answers=[1])
        client = ServiceClient(port=stub.port, timeout=10.0)
        try:
            assert client.healthz() == {"served": 1}
            assert client.healthz() == {"served": 2}
            assert stub.accepts == 2
        finally:
            client.close()
            stub.close()

    def test_stale_retry_happens_exactly_once(self):
        # the retry's fresh connection also hangs up: that failure
        # is the caller's, no third connection is opened
        stub = StubServer(answers=[1, 0, 0])
        client = ServiceClient(port=stub.port, timeout=10.0)
        try:
            client.healthz()
            with pytest.raises(ConnectionError):
                client.healthz()
            time.sleep(0.2)  # let a (wrong) third connect be accepted
            assert stub.accepts == 2
            assert stub.served == 1
        finally:
            client.close()
            stub.close()

    def test_fresh_connection_hangup_is_not_retried(self):
        # a fresh connection that fails may have run the request:
        # only the caller can decide whether to send it again
        stub = StubServer(answers=[0, 1])
        client = ServiceClient(port=stub.port, timeout=10.0)
        try:
            with pytest.raises(ConnectionError):
                client.healthz()
            time.sleep(0.2)
            assert stub.accepts == 1
            assert stub.served == 0
        finally:
            client.close()
            stub.close()

    def test_refused_fresh_connection_is_not_retried(self, monkeypatch):
        port = free_port()
        attempts = []
        create = socket.create_connection

        def counting(*args, **kwargs):
            attempts.append(args[0])
            return create(*args, **kwargs)

        monkeypatch.setattr(socket, "create_connection", counting)
        pool = ConnectionPool(timeout=5.0)
        with pytest.raises(OSError):
            pool.request("127.0.0.1", port, "GET", "/healthz")
        assert attempts == [("127.0.0.1", port)]

    def test_connection_close_answers_are_not_pooled(self):
        handle = start_service(ServiceConfig(port=0, workers=1))
        try:
            pool = ConnectionPool(timeout=10.0)
            handle.service.begin_drain()
            status, headers, _ = pool.request(
                "127.0.0.1", handle.port, "GET", "/healthz")
            assert status == 200
            assert headers["Connection"] == "close"
            assert pool._idle == {}
        finally:
            handle.close(deadline=5.0)

    def test_idle_connections_expire(self, monkeypatch):
        stub = StubServer()
        client = ServiceClient(port=stub.port, timeout=10.0)
        try:
            monkeypatch.setattr(transport, "POOL_IDLE_S", 0.05)
            client.healthz()
            time.sleep(0.1)
            client.healthz()
            assert stub.accepts == 2
        finally:
            client.close()
            stub.close()


def front_over(ports: list[int], **config) -> ClusterFront:
    """A front whose shard ports are set by hand (no processes)."""
    cluster = ClusterConfig(shards=len(ports), **config)
    metrics = FrontMetrics(lambda: len(ports))
    supervisor = ShardSupervisor(cluster, "unused-run-dir", metrics)
    for shard, port in zip(supervisor.shards, ports):
        shard.port = port
    return ClusterFront(cluster, supervisor, metrics)


class TestFrontPool:
    def test_pool_survives_respawn_onto_new_port(self):
        first = start_service(ServiceConfig(port=0, workers=1))
        front = front_over([first.port])
        shard = front.supervisor.shards[0]
        try:
            status, _, _ = front.proxy(shard, "GET", "/healthz")
            assert status == 200
        finally:
            first.close(deadline=5.0)
        second = start_service(ServiceConfig(port=0, workers=1))
        try:
            assert second.port != first.port
            shard.port = second.port
            status, _, payload = front.proxy(
                shard, "POST", "/v1/check",
                make_doc(package="com.example.respawn"))
            assert status == 200
            assert payload["package"] == "com.example.respawn"
            assert front.metrics.reroutes.total() == 0
        finally:
            second.close(deadline=5.0)
            front.pool.close()

    def test_stale_retry_costs_no_reroute_or_budget(self):
        first = start_service(ServiceConfig(port=0, workers=1))
        port = first.port
        front = front_over([port],
                           service=ServiceConfig(checker=CheckerOptions(
                               retry_budget=3.0,
                               retry_budget_refill=0.0)))
        shard = front.supervisor.shards[0]
        try:
            assert front.proxy(shard, "GET", "/healthz")[0] == 200
        finally:
            first.close(deadline=5.0)
        # the same port, a new process: the pooled connection is stale
        second = start_service(ServiceConfig(port=port, workers=1))
        try:
            assert len(front.pool._idle[("127.0.0.1", port)]) == 1
            status, _, payload = front.proxy(shard, "GET", "/healthz")
            assert status == 200 and payload["status"] == "ok"
            assert front.metrics.reroutes.total() == 0
            assert front.retry_budget.remaining == 3.0
        finally:
            second.close(deadline=5.0)
            front.pool.close()


def kept_connection(port: int) -> http.client.HTTPConnection:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    conn.request("GET", "/healthz")
    response = conn.getresponse()
    response.read()
    assert response.status == 200
    assert not response.will_close
    return conn


def assert_refused(conn: http.client.HTTPConnection) -> None:
    with pytest.raises((OSError, http.client.HTTPException)):
        conn.request("GET", "/healthz")
        conn.getresponse().read()


class TestServerKeepAlive:
    def test_no_delayed_ack_stall_on_kept_connection(self):
        handle = start_service(ServiceConfig(port=0, workers=1))
        try:
            conn = kept_connection(handle.port)
            started = time.monotonic()
            for _ in range(50):
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                response.read()
                assert response.status == 200
            assert time.monotonic() - started < 1.0
            conn.close()
        finally:
            handle.close(deadline=5.0)

    def test_expect_100_continue_is_answered_at_once(self):
        # responses are buffered until the handler returns, but the
        # interim 100 must go out before the client sends the body
        handle = start_service(ServiceConfig(port=0, workers=1))
        body = json.dumps(make_doc()).encode()
        try:
            with socket.create_connection(
                    ("127.0.0.1", handle.port), timeout=0.5) as sock:
                sock.sendall(
                    b"POST /v1/check HTTP/1.1\r\nHost: x\r\n"
                    b"Content-Type: application/json\r\n"
                    b"Expect: 100-continue\r\n"
                    b"Content-Length: %d\r\n\r\n" % len(body))
                reader = sock.makefile("rb")
                assert reader.readline().startswith(
                    b"HTTP/1.1 100 ")
                while reader.readline() not in (b"\r\n", b""):
                    pass
                sock.sendall(body)
                sock.settimeout(30)
                assert reader.readline().startswith(b"HTTP/1.1 200 ")
                reader.close()
        finally:
            handle.close(deadline=5.0)

    def test_idle_connection_is_closed(self, monkeypatch):
        monkeypatch.setattr(JSONHandler, "timeout", 0.2)
        handle = start_service(ServiceConfig(port=0, workers=1))
        try:
            conn = kept_connection(handle.port)
            time.sleep(0.6)
            assert_refused(conn)
            conn.close()
            # a client pool rides over the idle close
            client = ServiceClient(port=handle.port)
            client.healthz()
            time.sleep(0.6)
            assert client.healthz()["status"] == "ok"
            client.close()
        finally:
            handle.close(deadline=5.0)

    def test_drain_answers_carry_connection_close(self):
        handle = start_service(ServiceConfig(port=0, workers=1))
        try:
            conn = kept_connection(handle.port)
            handle.service.begin_drain()
            conn.request("POST", "/v1/check",
                         body=b"{}", headers={"Content-Length": "2"})
            response = conn.getresponse()
            response.read()
            assert response.status == 503
            assert response.getheader("Connection") == "close"
            assert response.will_close
        finally:
            handle.close(deadline=5.0)

    def test_service_close_refuses_kept_connections(self):
        for _ in range(20):
            handle = start_service(ServiceConfig(port=0, workers=1))
            conn = kept_connection(handle.port)
            client = ServiceClient(port=handle.port)
            client.healthz()
            handle.close(deadline=5.0)
            assert_refused(conn)
            with pytest.raises(OSError):
                client.healthz()

    def test_front_close_refuses_kept_connections(self):
        for _ in range(20):
            handle = start_cluster(ClusterConfig(
                service=ServiceConfig(port=0), shards=0))
            conn = kept_connection(handle.port)
            client = ServiceClient(port=handle.port)
            assert client.healthz()["role"] == "front"
            handle.close()
            assert_refused(conn)
            with pytest.raises(OSError):
                client.healthz()

    def test_peer_resets_are_not_tracebacks(self, capsys):
        server = KeepAliveHTTPServer(("127.0.0.1", 0), JSONHandler,
                                     app=None)
        try:
            for exc in (ConnectionResetError(), BrokenPipeError()):
                try:
                    raise exc
                except OSError:
                    server.handle_error(None, ("127.0.0.1", 1))
            assert capsys.readouterr().err == ""
            try:
                raise ValueError("a real bug")
            except ValueError:
                server.handle_error(None, ("127.0.0.1", 1))
            assert "a real bug" in capsys.readouterr().err
        finally:
            server.server_close()


@pytest.fixture(params=["serve", "front"])
def listener(request):
    """A single-process service, or a cluster front with no shards
    (both servers frame requests through :class:`JSONHandler`)."""
    if request.param == "serve":
        handle = start_service(ServiceConfig(port=0, workers=1))
    else:
        handle = start_cluster(ClusterConfig(
            service=ServiceConfig(port=0), shards=0))
    yield handle
    handle.close()


class TestRequestFraming:
    @pytest.mark.parametrize("length, status, kind", [
        (None, 411, "length_required"),
        (str(MAX_BODY_BYTES + 1), 413, "too_large"),
        ("abc", 400, "bad_request"),
        ("-1", 400, "bad_request"),
    ])
    def test_bad_content_length_is_a_prompt_typed_answer(
            self, listener, length, status, kind):
        """No body is sent: a server that tried to read one would
        hang until the client gave up.  Each answer is typed JSON
        that closes the connection."""
        head = "POST /v1/check HTTP/1.1\r\nHost: localhost\r\n"
        if length is not None:
            head += f"Content-Length: {length}\r\n"
        started = time.monotonic()
        with socket.create_connection(("127.0.0.1", listener.port),
                                      timeout=5.0) as sock:
            sock.sendall((head + "\r\n").encode())
            raw = b""
            while chunk := sock.recv(65536):  # EOF: the server hung up
                raw += chunk
        assert time.monotonic() - started < 5.0
        head_bytes, _, body = raw.partition(b"\r\n\r\n")
        lines = head_bytes.decode("latin-1").split("\r\n")
        headers = {name.strip().lower(): value.strip()
                   for name, _, value in
                   (line.partition(":") for line in lines[1:])}
        assert int(lines[0].split()[1]) == status
        assert headers["connection"] == "close"
        assert json.loads(body)["error"]["kind"] == kind
