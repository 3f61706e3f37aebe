"""The sharded check service: one accept process, N pipeline workers.

``ppchecker serve --shards N`` splits the single-process service into
a **front** (this module -- a lightweight accept/route process that
never runs a pipeline) and N **shard** processes, each a full
``ppchecker serve`` with its own GIL, worker threads, job journal,
and dead-letter queue.  The front:

- routes every submission by its bundle key
  (:attr:`~repro.core.checker.AppBundle.key`, the shard's job key)
  over the consistent-hash ring (:mod:`repro.service.hashring`), so
  identical bundles always land on the same shard and its coalescing
  and redelivery machinery keep working unchanged; a document that
  does not decode is answered here, as a shard would answer it;
- namespaces shard job ids (``job-3`` on shard 1 becomes ``s1-job-3``)
  so one client-visible id space spans the cluster;
- supervises the shards: a dead shard is respawned, its journal is
  replayed (``--state-dir``), poison pills are dead-lettered within
  the existing redelivery budget, and requests that raced the crash
  are retried against the respawned shard;
- aggregates ``/healthz`` (degraded, not down, while any shard lives)
  and ``/v1/deadletter`` across the cluster, and exposes its own
  ``/metrics`` (routing counters, shard liveness, restarts).

Shards share one artifact database
(:class:`~repro.pipeline.artifacts.SharedDiskStore`,
``<cache-dir>/artifacts.sqlite``) when ``--cache-dir`` is set, so a
cache hit in one worker process is a hit in all -- and in every later
``check``, ``batch-check`` or ``study`` pointed at the same directory.
"""

from __future__ import annotations

import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field, replace
from http.client import HTTPException
from typing import Any

from repro import __version__
from repro.cli import serve_flags
from repro.core.schema import versioned
from repro.pipeline.resilience import Deadline, RetryBudget
from repro.service.hashring import HashRing, shard_name
from repro.service.metrics import MetricsRegistry
from repro.service.runner import ServiceConfig, shed_error
from repro.service.server import (
    InvalidBundle,
    Listener,
    decode_bundle,
    read_port_file,
    serve_until_signalled,
)
from repro.service.transport import (
    DEADLINE_HEADER,
    JOB_PATH,
    ConnectionPool,
    InvalidDeadline,
    JSONHandler,
    batch_answer,
)

_SHARD_ID = re.compile(r"^s(\d+)-(.+)$")


@dataclass
class ClusterConfig:
    """Everything ``ppchecker serve --shards N`` needs: the
    :class:`~repro.service.runner.ServiceConfig` every shard runs,
    plus the settings only the front uses.

    The front listens on ``service.host``/``service.port`` and takes
    its timeouts, ``state_dir`` and retry budget from ``service``.
    Shard *i* runs ``service`` with an ephemeral port and its journal
    in ``<state_dir>/shard-<i>``.
    """

    #: the service every shard runs (``workers``, ``queue_size`` and
    #: ``completed_jobs`` are per shard); the checker recipe's
    #: ``cache_dir`` is the artifact store all of them share
    service: ServiceConfig = field(default_factory=ServiceConfig)
    shards: int = 3
    #: how long the front waits for a respawning shard before failing
    #: a request over to the client
    reroute_timeout: float = 30.0


class ShardStartError(RuntimeError):
    """A shard process exited (or stayed silent) before publishing
    its port; the message quotes the last line it wrote to stderr."""


class ShardProcess:
    """One supervised ``ppchecker serve`` subprocess."""

    def __init__(self, index: int, config: ClusterConfig,
                 run_dir: str) -> None:
        self.index = index
        self.name = shard_name(index)
        self.port_file = os.path.join(run_dir, f"{self.name}.port")
        #: where the process's stderr goes (rewritten on every spawn)
        self.stderr_file = os.path.join(run_dir, f"{self.name}.stderr")
        service = config.service
        #: the service this shard runs
        self.service = replace(
            service, port=0, port_file=self.port_file,
            state_dir=(os.path.join(service.state_dir, self.name)
                       if service.state_dir is not None else None))
        self.port: int | None = None
        self.process: subprocess.Popen | None = None
        self.restarts = 0

    def command(self) -> list[str]:
        return [sys.executable, "-m", "repro.cli", "serve",
                *serve_flags(self.service)]

    def spawn(self, timeout: float = 60.0) -> None:
        """Start (or restart) the subprocess and wait for its port.

        Raises :class:`ShardStartError` as soon as the process exits
        without publishing one, or after *timeout* seconds of silence
        (the process is killed then)."""
        if os.path.exists(self.port_file):
            os.unlink(self.port_file)
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH") else "")
        with open(self.stderr_file, "wb") as stderr:
            self.process = subprocess.Popen(
                self.command(), env=env,
                stdout=subprocess.DEVNULL, stderr=stderr)
        try:
            self.port = read_port_file(self.port_file, timeout=timeout,
                                       process=self.process)
        except (ChildProcessError, TimeoutError) as exc:
            self.process.kill()
            self.process.wait()
            raise ShardStartError(
                f"{self.name} did not start ({exc}); its last stderr "
                f"line: {self.last_stderr_line()!r}") from None

    def last_stderr_line(self) -> str:
        try:
            with open(self.stderr_file, encoding="utf-8",
                      errors="replace") as handle:
                lines = [line.strip() for line in handle]
        except OSError:
            return ""
        return next((line for line in reversed(lines) if line), "")

    @property
    def alive(self) -> bool:
        return (self.process is not None
                and self.process.poll() is None)

    @property
    def pid(self) -> int | None:
        return self.process.pid if self.process is not None else None

    def terminate(self) -> None:
        if self.alive:
            assert self.process is not None
            self.process.send_signal(signal.SIGTERM)

    def join(self, timeout: float) -> bool:
        """Wait for the process to exit; True when it did so within
        *timeout*, False when it had to be killed."""
        if self.process is None:
            return True
        try:
            self.process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(timeout=10)
            return False
        return True


class ShardSupervisor:
    """Spawns the shards, keeps the ring current, respawns the dead.

    The monitor thread polls shard liveness; a dead shard leaves the
    ring immediately (submissions re-route or wait), is respawned,
    replays its journal (re-queueing in-flight jobs, dead-lettering
    poison pills over the redelivery budget), and rejoins the ring.
    """

    POLL_INTERVAL = 0.1

    def __init__(self, config: ClusterConfig, run_dir: str,
                 metrics: "FrontMetrics") -> None:
        self.config = config
        self.metrics = metrics
        self.shards = [ShardProcess(i, config, run_dir)
                       for i in range(config.shards)]
        self.ring = HashRing()
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._monitor, daemon=True,
            name="ppchecker-shard-supervisor")

    def start(self) -> None:
        """Spawn every shard and start the monitor; raises
        :class:`ShardStartError` when a shard fails to come up."""
        for shard in self.shards:
            shard.spawn()
            self.ring.add(shard.name)
        self._thread.start()

    def _monitor(self) -> None:
        while not self._stop.is_set():
            for shard in self.shards:
                if self._stop.is_set():
                    return
                if shard.alive:
                    continue
                with self._lock:
                    self.ring.remove(shard.name)
                try:
                    shard.spawn()
                except (OSError, ShardStartError):
                    # spawn failed; the next poll tries again
                    continue
                shard.restarts += 1
                self.metrics.shard_restarts.inc(shard=shard.name)
                with self._lock:
                    self.ring.add(shard.name)
            self._stop.wait(self.POLL_INTERVAL)

    # -- routing -----------------------------------------------------------

    def route(self, key: str) -> ShardProcess | None:
        """The live shard owning *key*, or None while none are up."""
        with self._lock:
            try:
                name = self.ring.place(key)
            except LookupError:
                return None
        return self.shards[int(name.split("-", 1)[1])]

    def shard(self, index: int) -> ShardProcess | None:
        if 0 <= index < len(self.shards):
            return self.shards[index]
        return None

    @property
    def alive(self) -> int:
        return sum(1 for shard in self.shards if shard.alive)

    def stop(self) -> bool:
        """Graceful: SIGTERM every shard (they drain their queues),
        join, and stop the monitor so nothing is respawned.  True
        when every shard exited without being killed."""
        self._stop.set()
        if self._thread.ident is not None:
            self._thread.join(5.0)
        for shard in self.shards:
            shard.terminate()
        deadline = self.config.service.drain_timeout + 10.0
        # a list, not a generator: every shard is joined, even after
        # one had to be killed
        return all([shard.join(deadline) for shard in self.shards])


class FrontMetrics:
    """The accept process's instrument set (``GET /metrics``)."""

    def __init__(self, supervisor_alive) -> None:
        self.registry = MetricsRegistry()
        r = self.registry
        self.requests = r.counter(
            "ppchecker_front_requests_total",
            "HTTP requests served by the accept process, by "
            "endpoint and status code.",
            ("endpoint", "status"),
        )
        self.routed = r.counter(
            "ppchecker_routed_total",
            "Submissions routed to a shard, by shard.",
            ("shard",),
        )
        self.shard_restarts = r.counter(
            "ppchecker_shard_restarts_total",
            "Dead shard processes respawned by the supervisor, "
            "by shard.",
            ("shard",),
        )
        self.reroutes = r.counter(
            "ppchecker_reroutes_total",
            "Requests retried after their shard died mid-flight, "
            "by shard.",
            ("shard",),
        )
        self.shards_alive = r.gauge(
            "ppchecker_shards_alive",
            "Shard processes currently alive.",
            callback=supervisor_alive,
        )
        self.deadline_shed = r.counter(
            "ppchecker_deadline_shed_total",
            "Requests shed at the front because their deadline "
            "expired before any shard could take the work.",
        )

    def register_retry_budget(self, budget) -> None:
        """Expose the front's shared retry token bucket."""
        self.registry.gauge(
            "ppchecker_retry_budget_remaining",
            "Tokens left in the front's retry budget; reroute "
            "retries are denied when it reaches zero.",
            callback=lambda: budget.remaining,
        )

    def render(self) -> str:
        return self.registry.render()


def _prefixed(payload: Any, index: int) -> Any:
    """Rewrite shard-local job ids in *payload* into the cluster id
    space (``job-3`` -> ``s1-job-3``)."""
    if not isinstance(payload, dict):
        return payload
    doc = dict(payload)
    for field in ("id", "job_id"):
        value = doc.get(field)
        if isinstance(value, str):
            doc[field] = f"s{index}-{value}"
    location = doc.get("location")
    if isinstance(location, str) and location.startswith("/v1/jobs/"):
        doc["location"] = ("/v1/jobs/"
                           f"s{index}-{location[len('/v1/jobs/'):]}")
    return doc


class ShardUnavailable(Exception):
    """No live shard could take the request within the budget."""


class FrontDeadlineExpired(Exception):
    """The request's deadline ran out while the front was still
    routing (waiting out a respawn or retrying a flaky shard)."""

    def __init__(self, deadline: Deadline | None) -> None:
        self.deadline = deadline
        super().__init__("deadline expired at the cluster front")


class _FrontHandler(JSONHandler):
    server_version = f"ppchecker-front/{__version__}"

    @property
    def front(self) -> "ClusterFront":
        return self.app

    def _unavailable(self) -> None:
        self._send_error_json(
            503, "shard_unavailable",
            "no shard could take the request; the supervisor is "
            "respawning", headers={"Retry-After": "1"})

    # -- routes ------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path = self.path.split("?", 1)[0]
        if path == "/healthz":
            self._send_json(200, self.front.healthz())
            return
        if path == "/metrics":
            self._send(200, self.front.metrics.render().encode(),
                       "text/plain; version=0.0.4; charset=utf-8")
            return
        if path == "/v1/deadletter":
            self._send_json(200, self.front.deadletters())
            return
        match = JOB_PATH.match(path)
        if match:
            self._job_status(match.group(1))
            return
        self._send_error_json(404, "not_found",
                              f"no such endpoint: {path}")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        path = self.path.split("?", 1)[0]
        if self.front.draining:
            doc = self._read_json()
            if doc is None:
                return
            self._send_error_json(
                503, "draining", "service is shutting down",
                headers={"Retry-After": str(max(1, int(
                    self.front.config.service.drain_timeout)))})
            return
        if path == "/v1/check":
            self._proxy_submission("/v1/check")
        elif path == "/v1/jobs":
            self._proxy_submission("/v1/jobs")
        elif path == "/v1/batch":
            self._batch()
        else:
            doc = self._read_json()
            if doc is not None:
                self._send_error_json(404, "not_found",
                                      f"no such endpoint: {path}")

    def _send_shed(self, deadline: Deadline | None) -> None:
        self.front.metrics.deadline_shed.inc()
        self._send_json(504, versioned({
            "error": shed_error("?", deadline,
                                "at the cluster front"),
        }), headers={"Retry-After": "1"})

    def _proxy_submission(self, path: str) -> None:
        doc = self._read_json()
        if doc is None:
            return
        try:
            # the front starts the clock here and forwards the
            # *remaining* budget to whichever shard takes the work
            seconds = self.request_deadline(doc)
        except InvalidDeadline as exc:
            self._send_error_json(400, "bad_request", str(exc))
            return
        deadline = (Deadline.after(seconds)
                    if seconds is not None else None)
        try:
            shard, status, headers, payload = \
                self.front.submit_to_shard(doc, path,
                                           deadline=deadline)
        except InvalidBundle as exc:
            self._send_error_json(400, "bad_request", str(exc))
            return
        except FrontDeadlineExpired as exc:
            self._send_shed(exc.deadline)
            return
        except ShardUnavailable:
            self._unavailable()
            return
        out: dict[str, str] = {}
        retry_after = headers.get("Retry-After")
        if retry_after is not None:
            out["Retry-After"] = retry_after
        payload = _prefixed(payload, shard.index)
        if isinstance(payload, dict) and "location" in payload:
            out["Location"] = payload["location"]
        self._send_json(status, payload, out or None)

    def _job_status(self, job_id: str) -> None:
        match = _SHARD_ID.match(job_id)
        if not match:
            self._send_error_json(
                404, "not_found", f"no such job: {job_id}")
            return
        index, local_id = int(match.group(1)), match.group(2)
        shard = self.front.supervisor.shard(index)
        if shard is None:
            self._send_error_json(
                404, "not_found", f"no such shard: s{index}")
            return
        try:
            status, headers, payload = self.front.proxy(
                shard, "GET", f"/v1/jobs/{local_id}")
        except ShardUnavailable:
            self._unavailable()
            return
        self._send_json(status, _prefixed(payload, index))

    def _batch(self) -> None:
        bundles = self._read_bundles()
        if bundles is not None:
            self._send_json(200, self.front.batch(bundles))


class ClusterFront:
    """Routing, aggregation, and retry logic behind the handler."""

    def __init__(self, config: ClusterConfig,
                 supervisor: ShardSupervisor,
                 metrics: FrontMetrics) -> None:
        self.config = config
        self.supervisor = supervisor
        self.metrics = metrics
        self._draining = threading.Event()
        #: kept connections to the shards, shared by every handler
        #: and batch fan-out thread
        self.pool = ConnectionPool(config.service.request_timeout)
        #: shared token bucket bounding reroute retries, so a cluster
        #: in trouble cannot amplify into a front-side storm
        checker = config.service.checker
        self.retry_budget = (
            RetryBudget(checker.retry_budget,
                        checker.retry_budget_refill)
            if checker.retry_budget is not None else None)
        if self.retry_budget is not None:
            metrics.register_retry_budget(self.retry_budget)

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def begin_drain(self) -> None:
        self._draining.set()

    # -- shard I/O ---------------------------------------------------------

    def proxy(self, shard: ShardProcess, method: str, path: str,
              doc: Any = None,
              deadline: Deadline | None = None,
              ) -> tuple[int, dict[str, str], Any]:
        """One request to *shard*, retried across a respawn window.

        A shard that dies mid-flight (connection refused/reset) is
        retried until it -- or its replacement on the same ring
        position -- answers, bounded by ``reroute_timeout``, the
        request's remaining *deadline*, and (when configured) the
        front's retry budget."""
        reroute_until = time.monotonic() + self.config.reroute_timeout
        attempt = 0
        while True:
            if deadline is not None and deadline.expired:
                raise FrontDeadlineExpired(deadline)
            try:
                status, headers, payload = self._request(
                    shard, method, path, doc, deadline=deadline)
            except (OSError, HTTPException):
                # connection refused (respawning), reset, or torn
                # mid-response (the shard died while answering)
                attempt += 1
                if attempt > 1:
                    self.metrics.reroutes.inc(shard=shard.name)
                if time.monotonic() >= reroute_until:
                    raise ShardUnavailable(shard.name)
                if (self.retry_budget is not None
                        and not self.retry_budget.try_acquire()):
                    # dry budget: fail fast instead of storming a
                    # cluster that is already in trouble
                    raise ShardUnavailable(shard.name)
                time.sleep(0.2)
                continue
            return status, headers, payload

    def _request(self, shard: ShardProcess, method: str, path: str,
                 doc: Any = None,
                 deadline: Deadline | None = None,
                 ) -> tuple[int, dict[str, str], Any]:
        if shard.port is None:
            raise ConnectionError(f"{shard.name} has no port yet")
        headers = {}
        if deadline is not None:
            # forward what is *left* of the budget, so time spent
            # routing at the front is not granted twice
            headers[DEADLINE_HEADER] = (
                f"{max(deadline.remaining(), 0.001):.6f}")
        return self.pool.request(self.config.service.host, shard.port,
                                 method, path, doc, headers)

    def submit_to_shard(self, doc: Any, path: str,
                        deadline: Deadline | None = None,
                        ) -> tuple[ShardProcess, int,
                                   dict[str, str], Any]:
        """Route one bundle document by its bundle key to its ring
        owner and forward it.

        The ring key is the shard's own job key, so identical
        bundles always reach the same shard and coalesce there;
        :class:`~repro.service.server.InvalidBundle` means the
        document does not decode.  While no shard is alive the front
        waits (bounded by ``reroute_timeout`` and *deadline*) for the
        supervisor to respawn one."""
        key = decode_bundle(doc).key
        wait_until = time.monotonic() + self.config.reroute_timeout
        while True:
            shard = self.supervisor.route(key)
            if shard is not None:
                break
            if deadline is not None and deadline.expired:
                raise FrontDeadlineExpired(deadline)
            if time.monotonic() >= wait_until:
                raise ShardUnavailable(key)
            time.sleep(0.2)
        self.metrics.routed.inc(shard=shard.name)
        status, headers, payload = self.proxy(shard, "POST", path,
                                              doc, deadline=deadline)
        return shard, status, headers, payload

    # -- aggregated endpoints ----------------------------------------------

    def healthz(self) -> dict:
        alive = self.supervisor.alive
        status = "ok" if alive == self.config.shards else "degraded"
        if self.draining:
            status = "draining"
        detail = [{
            "name": shard.name,
            "pid": shard.pid,
            "port": shard.port,
            "alive": shard.alive,
            "restarts": shard.restarts,
        } for shard in self.supervisor.shards]
        return versioned({
            "status": status,
            "version": __version__,
            "role": "front",
            "shards": self.config.shards,
            "shards_alive": alive,
            "workers": self.config.shards * self.config.service.workers,
            "shard_detail": detail,
            "durable": self.config.service.state_dir is not None,
        })

    def deadletters(self) -> dict:
        docs: list[dict] = []
        for shard in self.supervisor.shards:
            try:
                status, _, payload = self.proxy(
                    shard, "GET", "/v1/deadletter")
            except ShardUnavailable:
                continue
            if status != 200 or not isinstance(payload, dict):
                continue
            for doc in payload.get("deadletters", ()):
                docs.append(_prefixed(doc, shard.index))
        docs.sort(key=lambda d: (len(d["id"]), d["id"]))
        return versioned({"deadletters": docs, "count": len(docs)})

    def batch(self, bundles: list[Any]) -> dict:
        """Fan a batch out to the owning shards concurrently and
        merge the answers back into submission order."""
        # group positions by shard up front; the ring only changes
        # if a shard is down *right now*, and proxy() rides out the
        # respawn window for us
        slots: list[dict | None] = [None] * len(bundles)
        groups: dict[int, list[int]] = {}
        unrouted: list[int] = []
        for position, bundle_doc in enumerate(bundles):
            # per-document deadlines travel inline (the reserved
            # ``deadline_s`` field), which decoding ignores
            try:
                key = decode_bundle(bundle_doc).key
            except InvalidBundle as exc:
                slots[position] = {"status": "invalid", "error": {
                    "kind": "bad_request", "message": str(exc),
                }}
                continue
            shard = self.supervisor.route(key)
            if shard is None:
                unrouted.append(position)
                continue
            groups.setdefault(shard.index, []).append(position)

        def run(index: int, positions: list[int]) -> None:
            shard = self.supervisor.shards[index]
            self.metrics.routed.inc(shard=shard.name,
                                    amount=len(positions))
            sub = [bundles[p] for p in positions]
            try:
                status, _, payload = self.proxy(
                    shard, "POST", "/v1/batch", {"bundles": sub})
            except ShardUnavailable:
                for p in positions:
                    slots[p] = {"status": "rejected", "error": {
                        "kind": "shard_unavailable",
                        "message": f"{shard.name} did not recover "
                                   f"within the reroute budget",
                    }}
                return
            results = (payload or {}).get("results", []) \
                if status == 200 and isinstance(payload, dict) else []
            for offset, p in enumerate(positions):
                if offset < len(results):
                    slots[p] = _prefixed(results[offset],
                                         shard.index)
                else:
                    slots[p] = {"status": "rejected", "error": {
                        "kind": "shard_error",
                        "message": f"{shard.name} answered "
                                   f"HTTP {status}",
                    }}

        threads = [threading.Thread(target=run, args=(index, spots))
                   for index, spots in groups.items()]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for p in unrouted:
            slots[p] = {"status": "rejected", "error": {
                "kind": "shard_unavailable",
                "message": "no shard is alive",
            }}
        return batch_answer([slot for slot in slots
                             if slot is not None])


class ClusterHandle(Listener):
    """A running cluster (tests, benchmarks, serve_cluster)."""

    def __init__(self, front: ClusterFront,
                 supervisor: ShardSupervisor,
                 temp_dir: str | None = None) -> None:
        self.front = front
        self.supervisor = supervisor
        #: the run directory :func:`start_cluster` made for want of a
        #: ``state_dir``; :meth:`close` removes it
        self.temp_dir = temp_dir
        super().__init__(front.config.service, _FrontHandler, front,
                         "ppchecker-front-http")

    def close(self) -> bool:
        """Graceful: 503 new work, drain + SIGTERM the shards, stop
        the listener.  True when every shard drained and exited on
        its own."""
        self.front.begin_drain()
        drained = self.supervisor.stop()
        self.stop_listening()
        self.front.pool.close()
        if self.temp_dir is not None:
            shutil.rmtree(self.temp_dir, ignore_errors=True)
        return drained


def start_cluster(config: ClusterConfig) -> ClusterHandle:
    """Spawn the shards, start the front listener, return a handle.
    ``config.service.port=0`` binds an ephemeral front port."""
    temp_dir = (None if config.service.state_dir
                else tempfile.mkdtemp(prefix="ppchecker-cluster-"))
    run_dir = config.service.state_dir or temp_dir
    os.makedirs(run_dir, exist_ok=True)
    # the alive-gauge callback closes over a cell filled in once the
    # supervisor exists (metrics and supervisor reference each other)
    cell: list[ShardSupervisor] = []
    metrics = FrontMetrics(
        lambda: cell[0].alive if cell else 0)
    supervisor = ShardSupervisor(config, run_dir, metrics)
    cell.append(supervisor)
    front = ClusterFront(config, supervisor, metrics)
    try:
        supervisor.start()
    except BaseException:
        # a shard that failed to come up takes the ones already
        # started down with it: nothing is left running (its error
        # already quotes the shard's stderr)
        supervisor.stop()
        if temp_dir is not None:
            shutil.rmtree(temp_dir, ignore_errors=True)
        raise
    return ClusterHandle(front, supervisor, temp_dir)


def serve_cluster(config: ClusterConfig) -> int:
    """Blocking ``ppchecker serve --shards N``: run until
    SIGTERM/SIGINT, then drain the whole cluster gracefully."""
    handle = start_cluster(config)
    return serve_until_signalled(
        handle, f"front serving on http://{handle.host}:{handle.port} "
                f"({config.shards} shards x {config.service.workers} "
                f"workers)")


__all__ = [
    "ClusterConfig",
    "ClusterFront",
    "ClusterHandle",
    "FrontDeadlineExpired",
    "FrontMetrics",
    "ShardProcess",
    "ShardStartError",
    "ShardSupervisor",
    "ShardUnavailable",
    "serve_cluster",
    "start_cluster",
]
