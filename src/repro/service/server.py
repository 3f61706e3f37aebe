"""The long-running check service: HTTP surface and lifecycle.

``ppchecker serve`` keeps one :class:`~repro.service.runner.PipelineRunner`
resident -- warm analyzer models, warm artifact caches -- behind a
bounded job queue and a small REST API:

=====================  ==================================================
``POST /v1/check``     synchronous check; body is a bundle JSON document
                       (the ``export-corpus`` / ``save_bundle`` format),
                       response is the ``check --json`` report schema
``POST /v1/jobs``      asynchronous submit -> ``202`` + job id
``GET /v1/jobs/<id>``  job state, report or structured error when done
``POST /v1/batch``     many bundles in one request, quarantine semantics
``GET /healthz``       liveness: version, queue depth, workers alive
``GET /metrics``       Prometheus text exposition
=====================  ==================================================

Identical bundles coalesce onto one job by bundle key
(:attr:`~repro.core.checker.AppBundle.key`); a full queue
returns ``429`` with ``Retry-After``; a draining service (SIGTERM)
returns ``503`` for new work while queued jobs finish.  Everything is
stdlib (:mod:`http.server`), no new dependencies.
"""

from __future__ import annotations

import os
import signal
import tempfile
import threading
import time
from typing import TYPE_CHECKING, Any

from repro import __version__
from repro.android.serialization import bundle_from_dict, bundle_to_dict
from repro.core.schema import versioned
from repro.durability.service_log import ServiceLog, deadletter_doc
from repro.pipeline.resilience import Deadline
from repro.service import jobs as jobstates
from repro.service.coalescing import JobIndex
from repro.service.jobs import Job, JobQueue, QueueFull, ServiceDraining
from repro.service.metrics import ServiceMetrics
from repro.service.runner import (
    PipelineRunner,
    ServiceConfig,
    WorkerPool,
    shed_error,
)
from repro.service.transport import (
    JOB_PATH,
    InvalidDeadline,
    JSONHandler,
    KeepAliveHTTPServer,
    batch_answer,
)

if TYPE_CHECKING:
    import subprocess

    from repro.core.checker import AppBundle


class InvalidBundle(ValueError):
    """The request body is JSON but not a valid bundle document."""


def decode_bundle(doc: Any) -> "AppBundle":
    """The bundle of one request document, keyed: the one intake on a
    shard and at the cluster front.  Unknown fields (``deadline_s``
    among them) are ignored; raises :class:`InvalidBundle`."""
    try:
        bundle = bundle_from_dict(doc)
        bundle.key  # digests every part, so a bad one fails here
    except Exception as exc:
        raise InvalidBundle(f"invalid bundle document: {exc}") \
            from exc
    return bundle


class DeadlineExpired(RuntimeError):
    """The submission's deadline was already spent on arrival; the
    job was shed before it could burn any pipeline work."""

    def __init__(self, error: dict) -> None:
        self.error = error
        super().__init__(error.get("message", "deadline expired"))


class CheckService:
    """Queue + coalescing index + worker pool over one shared runner."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.metrics = ServiceMetrics()
        self.runner = PipelineRunner(config, self.metrics)
        self.queue = JobQueue(config.queue_size)
        self.index = JobIndex(
            completed_capacity=config.completed_jobs,
            on_evict=lambda job: self.metrics.evicted.inc(),
        )
        #: job id -> structured payload of parked poison pills; never
        #: coalesce targets (a resubmission gets a fresh job)
        self._deadletters: dict[str, dict] = {}
        self._deadletter_lock = threading.Lock()
        self.log = None
        if config.state_dir is not None:
            self.log = ServiceLog(config.state_dir,
                                  listener=self._on_journal_append)
            self._recover()
        self.pool = WorkerPool(self.queue, self.index, self.runner,
                               workers=config.workers, log=self.log)
        self._draining = threading.Event()
        self.metrics.registry.gauge(
            "ppchecker_queue_depth",
            "Jobs waiting for a worker.",
            callback=lambda: self.queue.depth,
        )
        self.metrics.registry.gauge(
            "ppchecker_queue_capacity",
            "Job queue capacity (backpressure threshold).",
            callback=lambda: self.queue.capacity,
        )
        self.metrics.registry.gauge(
            "ppchecker_workers_alive",
            "Worker threads currently alive.",
            callback=lambda: self.pool.alive,
        )
        self.metrics.registry.gauge(
            "ppchecker_journal_size_bytes",
            "On-disk size of the write-ahead job journal (database "
            "plus -wal).",
            callback=lambda: self.log.size_bytes if self.log else 0,
        )
        self.pool.start()

    # -- durability --------------------------------------------------------

    def _on_journal_append(self, record_type: str) -> None:
        self.metrics.journal_records.inc(type=record_type)

    def _recover(self) -> None:
        """Replay the job journal: re-queue unfinished jobs, park
        poison pills, and resume the id counter past journaled ids.
        Runs before the worker pool starts, so recovered jobs are
        indexed before anything can race them."""
        assert self.log is not None
        state = self.log.recover(self.config.max_redeliveries)
        self.metrics.journal_replayed.inc(state.records_replayed)
        self.index.ensure_counter(state.max_job_number)
        for recovered in state.deadletters:
            self._deadletters[recovered.id] = deadletter_doc(
                recovered.id, recovered.key, recovered.package,
                recovered.deliveries)
            self.metrics.jobs_deadlettered.inc()
        for recovered in state.requeue:
            try:
                bundle = bundle_from_dict(recovered.bundle_doc)
            except Exception:
                # a journaled bundle this build can no longer parse
                # (schema drift): park it rather than crash-loop
                self.log.job_deadlettered(recovered.id,
                                          recovered.deliveries)
                self._deadletters[recovered.id] = deadletter_doc(
                    recovered.id, recovered.key, recovered.package,
                    recovered.deliveries)
                self.metrics.jobs_deadlettered.inc()
                continue
            # a replayed job carries no request deadline: it gets
            # the default, like any submission without one
            job = Job(recovered.id, recovered.key, bundle,
                      deadline=self.deadline_for(None))
            job.deliveries = recovered.deliveries
            try:
                self.queue.put(job)
            except QueueFull:
                # more journaled work than this queue holds (capacity
                # was lowered across the restart): the rest stays
                # accepted-but-unfinished in the journal and is
                # recovered by the next startup
                break
            self.index.restore(job)
            self.metrics.jobs_recovered.inc()

    def deadletter(self, job_id: str) -> dict | None:
        with self._deadletter_lock:
            return self._deadletters.get(job_id)

    def deadletters(self) -> list[dict]:
        """Parked jobs, oldest id first (numeric job order)."""
        with self._deadletter_lock:
            docs = list(self._deadletters.values())
        return sorted(docs, key=lambda d: (len(d["id"]), d["id"]))

    # -- work intake -------------------------------------------------------

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def deadline_for(self, seconds: float | None) -> Deadline | None:
        """A fresh :class:`Deadline` from request-supplied *seconds*,
        falling back to the configured default (``serve --deadline``);
        ``None`` = unbounded."""
        if seconds is None:
            seconds = self.config.checker.deadline
        return Deadline.after(seconds) if seconds is not None else None

    def retry_after_seconds(self) -> int:
        """Load-aware backoff hint: the queue's expected drain time
        (depth over recent completion rate), clamped to [1, 60]s.
        Returned on 429s and deadline-shed 504s, so clients back off
        proportionally to real load instead of thundering back."""
        backlog = self.queue.depth + self.pool.active
        rate = self.runner.drain_rate.rate()
        if rate <= 0.0 or backlog <= 0:
            return 1
        return max(1, min(60, int(backlog / rate) + 1))

    def submit(self, doc: Any,
               deadline: Deadline | None = None) -> tuple[Job, bool]:
        """Resolve a bundle document to a (possibly shared) job.

        Raises :class:`ServiceDraining` during shutdown,
        :class:`InvalidBundle` on a malformed document,
        :class:`DeadlineExpired` when *deadline* is already spent
        (the job is shed before touching the queue), and
        :class:`~repro.service.jobs.QueueFull` when over capacity.
        """
        if self.draining:
            self.metrics.rejected.inc(reason="draining")
            raise ServiceDraining("service is draining")
        bundle = decode_bundle(doc)
        if deadline is not None and deadline.expired:
            self.metrics.rejected.inc(reason="deadline_expired")
            self.metrics.deadline_shed.inc()
            raise DeadlineExpired(shed_error(
                bundle.package, deadline,
                "before the job was queued"))

        def enqueue(job: Job) -> None:
            self.queue.put(job)
            # journal only after the queue accepted the job: a 429'd
            # submission must never be resurrected by recovery.  The
            # append commits (fsync) before the 202 is answered, so
            # an acknowledged job survives a crash.
            if self.log is not None:
                self.log.job_accepted(job.id, job.key, job.package,
                                      bundle_to_dict(bundle))

        try:
            job, coalesced = self.index.submit(
                bundle.key,
                lambda job_id, k: Job(job_id, k, bundle,
                                      deadline=deadline),
                enqueue,
            )
        except QueueFull:
            self.metrics.rejected.inc(reason="queue_full")
            raise
        if coalesced:
            self.metrics.coalesced.inc()
            # the job keeps the loosest budget any waiter asked for
            job.extend_deadline(deadline)
        return job, coalesced

    def job(self, job_id: str) -> Job | None:
        return self.index.by_id(job_id)

    def healthz(self) -> dict:
        """Liveness: ``draining``, else ``degraded`` while fewer
        workers are alive than configured (a job queued then waits
        on fewer threads, or on none), else ``ok``."""
        alive = self.pool.alive
        status = "ok"
        if self.draining:
            status = "draining"
        elif alive < self.config.workers:
            status = "degraded"
        return versioned({
            "status": status,
            "version": __version__,
            "queue_depth": self.queue.depth,
            "queue_capacity": self.queue.capacity,
            "workers": self.config.workers,
            "workers_alive": alive,
            "active_jobs": self.pool.active,
            "inflight_jobs": self.index.inflight,
            "completed_jobs": self.index.completed,
            "deadletters": len(self._deadletters),
            "durable": self.log is not None,
        })

    # -- lifecycle ---------------------------------------------------------

    def begin_drain(self) -> None:
        """Stop accepting work; queued jobs keep running."""
        self._draining.set()

    def shutdown(self, drain: bool = True,
                 deadline: float | None = None) -> bool:
        """Drain (optionally) and join the workers.  Returns True
        when the queue fully drained before the deadline."""
        if deadline is None:
            deadline = self.config.drain_timeout
        self.begin_drain()
        drained = self.pool.drain(deadline) if drain else False
        self.pool.stop(deadline)
        if self.log is not None:
            self.log.close()
        return drained


class _Handler(JSONHandler):
    server_version = f"ppchecker/{__version__}"

    @property
    def service(self) -> CheckService:
        return self.app

    # -- submission helpers ------------------------------------------------

    def _drain_retry_after(self) -> str:
        """Seconds a client should back off during a drain: the
        remaining work can take up to the configured drain budget."""
        return str(max(1, int(self.service.config.drain_timeout)))

    def _load_retry_after(self) -> str:
        return str(self.service.retry_after_seconds())

    def _send_shed(self, error: dict, job_id: str | None = None,
                   ) -> None:
        """The 504-style structured payload for shed work, with the
        same load-aware Retry-After as a 429."""
        payload: dict = {"error": error}
        if job_id is not None:
            payload["job_id"] = job_id
        self._send_json(504, versioned(payload),
                        headers={"Retry-After":
                                 self._load_retry_after()})

    def _submit(self, doc: Any) -> tuple[Job, bool] | None:
        """Submit, translating intake failures to responses."""
        try:
            deadline = self.service.deadline_for(
                self.request_deadline(doc))
            return self.service.submit(doc, deadline=deadline)
        except ServiceDraining:
            self._send_error_json(
                503, "draining", "service is shutting down",
                headers={"Retry-After": self._drain_retry_after()})
        except QueueFull:
            self._send_error_json(
                429, "queue_full", "job queue is at capacity",
                headers={"Retry-After": self._load_retry_after()})
        except DeadlineExpired as exc:
            self._send_shed(exc.error)
        except InvalidDeadline as exc:
            self._send_error_json(400, "bad_request", str(exc))
        except InvalidBundle as exc:
            self._send_error_json(400, "bad_request", str(exc))
        return None

    # -- routes ------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path = self.path.split("?", 1)[0]
        if path == "/healthz":
            self._send_json(200, self.service.healthz())
            return
        if path == "/metrics":
            self._send(200, self.service.metrics.render().encode(),
                       "text/plain; version=0.0.4; charset=utf-8")
            return
        if path == "/v1/deadletter":
            docs = self.service.deadletters()
            self._send_json(200, versioned({
                "deadletters": docs,
                "count": len(docs),
            }))
            return
        match = JOB_PATH.match(path)
        if match:
            job_id = match.group(1)
            job = self.service.job(job_id)
            if job is not None:
                self._send_json(200, versioned(job.to_dict()))
                return
            parked = self.service.deadletter(job_id)
            if parked is not None:
                self._send_json(200, versioned(dict(parked)))
                return
            if self.service.index.issued(job_id):
                # the id was real; its job aged out of the completed
                # LRU.  Stable body so clients can distinguish "gone,
                # resubmit the bundle" from a typo'd id.
                self._send_error_json(
                    410, "gone",
                    f"job {job_id} was evicted from the "
                    f"completed-job cache; resubmit the bundle to "
                    f"recompute it",
                    job_id=job_id)
                return
            self._send_error_json(
                404, "not_found", f"no such job: {job_id}")
            return
        self._send_error_json(404, "not_found",
                              f"no such endpoint: {path}")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        path = self.path.split("?", 1)[0]
        if path == "/v1/check":
            self._check_sync()
        elif path == "/v1/jobs":
            self._submit_async()
        elif path == "/v1/batch":
            self._batch()
        else:
            doc = self._read_json()
            if doc is not None:
                self._send_error_json(404, "not_found",
                                      f"no such endpoint: {path}")

    def _check_sync(self) -> None:
        doc = self._read_json()
        if doc is None:
            return
        submitted = self._submit(doc)
        if submitted is None:
            return
        job, _ = submitted
        if not job.wait(self.service.config.request_timeout):
            self._send_error_json(
                504, "timeout",
                f"job {job.id} did not finish within "
                f"{self.service.config.request_timeout:g}s; poll "
                f"/v1/jobs/{job.id}",
                job_id=job.id)
            return
        if job.state == jobstates.QUARANTINED:
            self._send_json(422, versioned({
                "error": {"kind": "quarantined", **(job.error or {})},
                "job_id": job.id,
            }))
            return
        if job.state == jobstates.SHED:
            self._send_shed(dict(job.error or {}), job_id=job.id)
            return
        # exactly the `check --json` schema: the report document,
        # stamped with schema_version (copy: the stored job result
        # is shared with coalesced waiters and /v1/jobs readers)
        self._send_json(200, versioned(dict(job.result or {})))

    def _submit_async(self) -> None:
        doc = self._read_json()
        if doc is None:
            return
        submitted = self._submit(doc)
        if submitted is None:
            return
        job, coalesced = submitted
        self._send_json(202, versioned({
            "id": job.id,
            "key": job.key,
            "state": job.state,
            "coalesced": coalesced,
            "location": f"/v1/jobs/{job.id}",
        }), headers={"Location": f"/v1/jobs/{job.id}"})

    def _batch(self) -> None:
        bundles = self._read_bundles()
        if bundles is None:
            return
        slots: list[dict | Job] = []
        for bundle_doc in bundles:
            try:
                deadline = self.service.deadline_for(
                    self.request_deadline(bundle_doc))
                job, _ = self.service.submit(bundle_doc,
                                             deadline=deadline)
                slots.append(job)
            except ServiceDraining:
                self._send_error_json(
                    503, "draining", "service is shutting down",
                    headers={"Retry-After":
                             self._drain_retry_after()})
                return
            except QueueFull:
                slots.append({"status": "rejected", "error": {
                    "kind": "queue_full",
                    "message": "job queue is at capacity",
                }})
            except DeadlineExpired as exc:
                slots.append({"status": "shed", "error": exc.error})
            except (InvalidBundle, InvalidDeadline) as exc:
                slots.append({"status": "invalid", "error": {
                    "kind": "bad_request", "message": str(exc),
                }})
        results = []
        for slot in slots:
            if isinstance(slot, dict):
                results.append(slot)
                continue
            slot.wait(self.service.config.request_timeout)
            if slot.state == jobstates.COMPLETED:
                results.append({"status": "ok", "job_id": slot.id,
                                "report": slot.result})
            elif slot.state == jobstates.QUARANTINED:
                results.append({"status": "quarantined",
                                "job_id": slot.id,
                                "error": slot.error})
            elif slot.state == jobstates.SHED:
                results.append({"status": "shed",
                                "job_id": slot.id,
                                "error": slot.error})
            else:
                results.append({"status": "pending",
                                "job_id": slot.id})
        self._send_json(200, batch_answer(results))


# -- embedding & the blocking entry point --------------------------------


class Listener:
    """An HTTP listener serving *app* on a daemon thread, the start
    and stop shared by a service and a cluster front: bind
    ``config.host``/``config.port`` (0 = ephemeral), publish the bound
    port to ``config.port_file`` if set, and serve."""

    def __init__(self, config: ServiceConfig,
                 handler: type[JSONHandler], app: Any,
                 name: str) -> None:
        self.httpd = KeepAliveHTTPServer((config.host, config.port),
                                         handler, app)
        if config.port_file is not None:
            _write_port_file(config.port_file, self.port)
        self.thread = threading.Thread(
            target=self.httpd.serve_forever,
            kwargs={"poll_interval": 0.05}, daemon=True, name=name)
        self.thread.start()

    @property
    def host(self) -> str:
        return self.httpd.server_address[0]

    @property
    def port(self) -> int:
        return self.httpd.server_address[1]

    def stop_listening(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        self.thread.join(5.0)


class ServiceHandle(Listener):
    """A running service + HTTP listener (tests, benchmarks, serve)."""

    def __init__(self, service: CheckService) -> None:
        self.service = service
        super().__init__(service.config, _Handler, service,
                         "ppchecker-http")

    def close(self, drain: bool = True,
              deadline: float | None = None) -> bool:
        """Graceful stop: reject new work, drain, join workers, stop
        the listener.  Returns True when the drain completed."""
        drained = self.service.shutdown(drain=drain, deadline=deadline)
        self.stop_listening()
        return drained


def _write_port_file(path: str, port: int) -> None:
    """Publish the bound port atomically: readers polling the path
    see nothing or the complete number, never a partial write."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(f"{port}\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_port_file(path: str, timeout: float = 30.0,
                   process: subprocess.Popen | None = None) -> int:
    """Poll *path* until a serving process publishes its bound port
    (the reader half of ``--port-file``; supervisors and tests use
    this instead of the racy probe-a-port-then-release dance).

    With *process* (the publisher), stop waiting as soon as it exits:
    raises :class:`ChildProcessError` instead of waiting out
    *timeout*."""
    end = time.monotonic() + timeout
    while True:
        try:
            with open(path, encoding="utf-8") as handle:
                text = handle.read().strip()
            if text:
                return int(text)
        except (OSError, ValueError):
            pass
        if process is not None and process.poll() is not None:
            raise ChildProcessError(
                f"exited with status {process.returncode} before "
                f"publishing a port at {path}")
        if time.monotonic() > end:
            raise TimeoutError(f"no port published at {path}")
        time.sleep(0.05)


def start_service(config: ServiceConfig) -> ServiceHandle:
    """Start the service and its HTTP listener on a daemon thread.
    ``config.port=0`` binds an ephemeral port (see ``handle.port``,
    or set ``config.port_file`` to have it published to disk)."""
    return ServiceHandle(CheckService(config))


def serve_until_signalled(handle: Any, banner: str) -> int:
    """Announce *handle* (a :class:`ServiceHandle` or a cluster
    handle) as ``ppchecker <version> <banner>``, block until
    SIGTERM/SIGINT, then close it gracefully."""
    print(f"ppchecker {__version__} {banner}", flush=True)
    stop = threading.Event()

    def _signal(signum: int, frame: Any) -> None:
        stop.set()

    previous = {
        sig: signal.signal(sig, _signal)
        for sig in (signal.SIGTERM, signal.SIGINT)
    }
    try:
        stop.wait()
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    print("draining...", flush=True)
    drained = handle.close()
    print("drained, bye" if drained
          else "drain deadline exceeded, abandoning queued jobs",
          flush=True)
    return 0


def serve(config: ServiceConfig) -> int:
    """Blocking ``ppchecker serve``: run until SIGTERM/SIGINT, then
    drain gracefully (503 for new work, queued jobs finish, workers
    join within ``config.drain_timeout``)."""
    handle = start_service(config)
    return serve_until_signalled(
        handle, f"serving on http://{handle.host}:{handle.port} "
                f"({config.workers} workers, queue {config.queue_size})")


__all__ = [
    "CheckService",
    "DeadlineExpired",
    "InvalidBundle",
    "Listener",
    "ServiceHandle",
    "decode_bundle",
    "read_port_file",
    "start_service",
    "serve",
    "serve_until_signalled",
]
