"""The shared pipeline behind the service, and its worker pool.

:class:`PipelineRunner` owns one :class:`~repro.core.checker.PPChecker`
built from the :class:`ServiceConfig`'s checker recipe -- memory in
front of the shared sqlite artifact store when ``cache_dir`` is set,
the configured retry policy, and an optional fault plan -- and
executes jobs with quarantine semantics: a failing check becomes a
structured :class:`~repro.core.report.AppFailure` document, never an
unhandled exception.

:class:`WorkerPool` runs N daemon threads draining the
:class:`~repro.service.jobs.JobQueue` through the runner.  Workers
exist for the life of the service, so the pipeline's caches stay warm
across requests -- the whole point of serving instead of one-shot CLI
invocations.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.core.checker import CheckerOptions, lib_policy_source
from repro.core.report import AppFailure
from repro.pipeline.resilience import (
    Deadline,
    deadline_scope,
    is_deadline_error,
)
from repro.service import jobs as jobstates
from repro.service.coalescing import JobIndex
from repro.service.jobs import Job, JobQueue
from repro.service.metrics import ServiceMetrics

if TYPE_CHECKING:  # pragma: no cover
    from repro.durability.service_log import ServiceLog


@dataclass
class ServiceConfig:
    """Everything ``ppchecker serve`` needs to build a service.  Each
    field is the ``serve`` flag of the same name (``checker.deadline``
    is ``--deadline``); :func:`repro.cli.serve_flags` renders a config
    back into those flags, which is how a ``--shards N`` front spawns
    its shards."""

    host: str = "127.0.0.1"
    port: int = 8742
    #: path that receives the actually-bound port (one ASCII integer,
    #: written atomically after the listener binds).  With ``port=0``
    #: this is how supervisors and tests learn the OS-assigned port
    #: without a probe-then-bind race.
    port_file: str | None = None
    workers: int = 4
    queue_size: int = 64
    #: how long a synchronous ``POST /v1/check`` waits for its job
    request_timeout: float = 300.0
    #: SIGTERM drain budget before workers are abandoned
    drain_timeout: float = 10.0
    #: completed jobs kept resolvable by id and content hash
    completed_jobs: int = 256
    #: directory for the write-ahead job journal (``serve
    #: --state-dir``); None = in-memory only, jobs die with the process
    state_dir: str | None = None
    #: deliveries a journaled job may burn before recovery
    #: dead-letters it as a poison pill
    max_redeliveries: int = 3
    #: directory of ``<lib_id>.txt`` lib policies; None = the corpus's
    #: (see :func:`repro.core.checker.lib_policy_source`)
    lib_policies: str | None = None
    #: the checker recipe: shared artifact cache, retries, fault plan,
    #: and ``deadline`` -- the default per-job deadline applied when
    #: a request carries none
    checker: CheckerOptions = field(default_factory=CheckerOptions)


def shed_error(package: str, deadline: Deadline | None,
               where: str) -> dict[str, Any]:
    """The structured 504-style payload for one shed job."""
    doc: dict[str, Any] = {
        "kind": "deadline_exceeded",
        "package": package,
        "error": "DeadlineExceeded",
        "message": (f"request deadline expired {where}; the work "
                    f"was shed, not failed -- resubmit with a "
                    f"fresh budget to run it"),
        "where": where,
    }
    if deadline is not None and deadline.budget is not None:
        doc["deadline_s"] = deadline.budget
    return doc


class DrainRateEstimator:
    """Recent job completion rate (jobs/second), from a sliding
    window of completion timestamps -- the denominator of the
    load-aware ``Retry-After`` (queue depth over drain rate)."""

    def __init__(self, window: int = 64,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.clock = clock
        self._stamps: deque[float] = deque(maxlen=max(2, window))
        self._lock = threading.Lock()

    def note(self) -> None:
        """Record one finished job."""
        with self._lock:
            self._stamps.append(self.clock())

    def rate(self) -> float:
        """Jobs/second over the window; 0.0 until two completions."""
        with self._lock:
            if len(self._stamps) < 2:
                return 0.0
            span = self._stamps[-1] - self._stamps[0]
            if span <= 0:
                return 0.0
            return (len(self._stamps) - 1) / span


class PipelineRunner:
    """One shared checker; executes jobs with quarantine semantics."""

    def __init__(self, config: ServiceConfig,
                 metrics: ServiceMetrics) -> None:
        self.config = config
        self.metrics = metrics
        self.checker = config.checker.build_checker(
            lib_policy_source(config.lib_policies))
        #: recent completion rate feeding the load-aware Retry-After
        self.drain_rate = DrainRateEstimator()
        # stage timing / cache counters flow into /metrics without
        # changing stage behaviour
        self.stats.add_listener(metrics.observe_stage)
        metrics.register_thread_ledger(self.stats)
        # one token bucket shared by every stage retry in the
        # process, so a brownout cannot amplify into a retry storm
        budget = self.checker.retry_policy.budget
        if budget is not None:
            metrics.register_retry_budget(budget)

    @property
    def stats(self):
        return self.checker.stats

    def run(self, job: Job) -> None:
        """Check the job's bundle under its deadline; leave it
        completed, quarantined, or -- when the deadline ran out
        mid-check -- shed."""
        try:
            with deadline_scope(job.deadline):
                report = self.checker.check(job.bundle)
        except Exception as exc:
            if is_deadline_error(exc) or (
                    job.deadline is not None and job.deadline.expired):
                # the submitter stopped waiting: drop, don't fail --
                # the same bundle with a fresh budget runs fine
                self.metrics.jobs.inc(status=jobstates.SHED)
                self.metrics.deadline_shed.inc()
                job.shed(shed_error(job.package, job.deadline,
                                    "while the check was running"))
                return
            failure = AppFailure.from_exception(job.package, exc)
            self.metrics.jobs.inc(status=jobstates.QUARANTINED)
            self.metrics.quarantined.inc()
            job.quarantine(failure.to_dict())
            return
        self.metrics.jobs.inc(status=jobstates.COMPLETED)
        job.finish(report.to_dict())


class WorkerPool:
    """N threads draining the queue through the shared runner.

    With a :class:`~repro.durability.service_log.ServiceLog` attached
    (``serve --state-dir``), every pickup and terminal transition is
    journaled: ``started`` *before* the check runs (so a crash
    mid-check burns one delivery) and ``completed``/``quarantined``
    after it, so the next process never re-runs finished work.
    """

    def __init__(self, queue: JobQueue, index: JobIndex,
                 runner: PipelineRunner, workers: int,
                 log: "ServiceLog | None" = None) -> None:
        self.queue = queue
        self.index = index
        self.runner = runner
        self.workers = workers
        self.log = log
        self._stop = threading.Event()
        self._active = 0
        self._active_lock = threading.Lock()
        self._threads = [
            threading.Thread(target=self._loop, daemon=True,
                             name=f"ppchecker-worker-{i}")
            for i in range(workers)
        ]

    def start(self) -> None:
        for thread in self._threads:
            thread.start()

    def _loop(self) -> None:
        while not self._stop.is_set():
            job = self.queue.get(timeout=0.1)
            if job is None:
                continue
            with self._active_lock:
                self._active += 1
            try:
                if job.deadline is not None and job.deadline.expired:
                    # shed at dequeue: the submitter's budget is
                    # already gone, so the job must never burn
                    # pipeline work
                    metrics = self.runner.metrics
                    metrics.jobs.inc(status=jobstates.SHED)
                    metrics.deadline_shed.inc()
                    job.shed(shed_error(job.package, job.deadline,
                                        "while the job was queued"))
                    if self.log is not None:
                        self.log.job_shed(job.id, job.error or {})
                    # forget, don't complete: a shed job must never
                    # be a coalesce target -- a resubmission with a
                    # fresh budget deserves to actually run
                    self.index.forget(job)
                    self.runner.drain_rate.note()
                    continue
                job.state = jobstates.RUNNING
                job.deliveries += 1
                if self.log is not None:
                    self.log.job_started(job.id, job.deliveries)
                self.runner.run(job)
                if self.log is not None:
                    if job.state == jobstates.QUARANTINED:
                        self.log.job_quarantined(job.id,
                                                 job.error or {})
                    elif job.state == jobstates.SHED:
                        self.log.job_shed(job.id, job.error or {})
                    else:
                        self.log.job_completed(job.id)
                if job.state == jobstates.SHED:
                    self.index.forget(job)
                else:
                    # index first, then the job's own event is
                    # already set -- late submissions of the same key
                    # resolve to the finished job either way
                    self.index.complete(job)
                self.runner.drain_rate.note()
            finally:
                with self._active_lock:
                    self._active -= 1

    @property
    def alive(self) -> int:
        return sum(1 for t in self._threads if t.is_alive())

    @property
    def active(self) -> int:
        with self._active_lock:
            return self._active

    def idle(self) -> bool:
        return self.queue.depth == 0 and self.active == 0

    def drain(self, deadline: float) -> bool:
        """Wait up to *deadline* seconds for queued + running jobs to
        finish; True when fully drained."""
        end = time.monotonic() + deadline
        while time.monotonic() < end:
            if self.idle():
                return True
            time.sleep(0.02)
        return self.idle()

    def stop(self, deadline: float = 5.0) -> None:
        """Stop the loops and join workers within *deadline*."""
        self._stop.set()
        end = time.monotonic() + deadline
        for thread in self._threads:
            thread.join(max(0.0, end - time.monotonic()))


__all__ = [
    "ServiceConfig",
    "DrainRateEstimator",
    "PipelineRunner",
    "WorkerPool",
    "shed_error",
]
