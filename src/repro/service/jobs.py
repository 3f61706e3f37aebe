"""Jobs and the bounded queue feeding the service's worker pool.

A :class:`Job` is one unit of check work: an app bundle addressed by
its bundle key (:attr:`repro.core.checker.AppBundle.key`, from the
same part digests the pipeline keys its stages with).
Jobs move ``queued -> running -> completed | quarantined``; any number
of HTTP requests may wait on one job (see
:mod:`repro.service.coalescing`).

:class:`JobQueue` is the backpressure point: a bounded FIFO whose
``put`` fails fast with :class:`QueueFull` when the service is over
capacity -- the server maps that to ``429 Retry-After`` instead of
buffering unboundedly.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import TYPE_CHECKING

from repro.pipeline.resilience import Deadline

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.checker import AppBundle

#: job lifecycle states
QUEUED = "queued"
RUNNING = "running"
COMPLETED = "completed"
QUARANTINED = "quarantined"
#: parked by crash recovery after too many redeliveries (see
#: :mod:`repro.durability.service_log`); never runs again
DEADLETTERED = "deadlettered"
#: the request's deadline expired before (or while) the job ran; the
#: work was dropped, not failed -- resubmitting with a fresh budget
#: will run it
SHED = "shed"

TERMINAL_STATES = frozenset({COMPLETED, QUARANTINED, DEADLETTERED,
                             SHED})


class QueueFull(RuntimeError):
    """The job queue is at capacity; retry later."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        super().__init__(f"job queue full ({capacity} jobs)")


class ServiceDraining(RuntimeError):
    """The service is shutting down and rejects new work."""


class Job:
    """One coalescable unit of check work."""

    def __init__(self, job_id: str, key: str,
                 bundle: "AppBundle",
                 deadline: Deadline | None = None) -> None:
        self.id = job_id
        self.key = key
        self.bundle = bundle
        self.package = bundle.package
        self.state = QUEUED
        self.result: dict | None = None   # AppReport.to_dict()
        self.error: dict | None = None    # AppFailure.to_dict()
        self.waiters = 1                  # submissions riding this job
        self.deliveries = 0               # times a worker picked it up
        #: request-level wall-clock budget; an expired job is shed at
        #: dequeue instead of burning pipeline work
        self.deadline = deadline
        self._done = threading.Event()

    @property
    def done(self) -> bool:
        return self.state in TERMINAL_STATES

    def finish(self, result: dict) -> None:
        self.result = result
        self.state = COMPLETED
        self._done.set()

    def quarantine(self, error: dict) -> None:
        self.error = error
        self.state = QUARANTINED
        self._done.set()

    def shed(self, error: dict) -> None:
        """Terminal: the deadline ran out before the work finished."""
        self.error = error
        self.state = SHED
        self._done.set()

    def extend_deadline(self, deadline: Deadline | None) -> None:
        """A coalesced submission rides this job; the job keeps the
        *loosest* budget any waiter asked for (``None`` = unbounded),
        so a short-deadline straggler never sheds work a patient
        waiter still wants."""
        if self.deadline is None:
            return
        if deadline is None:
            self.deadline = None
        elif deadline.expires_at > self.deadline.expires_at:
            self.deadline = deadline

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job reaches a terminal state."""
        return self._done.wait(timeout)

    def to_dict(self) -> dict:
        """The job's REST rendering (``GET /v1/jobs/<id>``)."""
        doc: dict = {
            "id": self.id,
            "key": self.key,
            "package": self.package,
            "state": self.state,
        }
        if self.result is not None:
            doc["report"] = self.result
        if self.error is not None:
            doc["error"] = self.error
        return doc


class JobQueue:
    """Bounded, thread-safe FIFO of pending jobs."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("queue capacity must be >= 1")
        self.capacity = capacity
        self._jobs: deque[Job] = deque()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)

    @property
    def depth(self) -> int:
        with self._lock:
            return len(self._jobs)

    def put(self, job: Job) -> None:
        """Enqueue, or fail fast with :class:`QueueFull`."""
        with self._not_empty:
            if len(self._jobs) >= self.capacity:
                raise QueueFull(self.capacity)
            self._jobs.append(job)
            self._not_empty.notify()

    def get(self, timeout: float | None = None) -> Job | None:
        """Dequeue the oldest job, or ``None`` on timeout (workers
        poll so they can observe their stop flag)."""
        with self._not_empty:
            if not self._jobs:
                self._not_empty.wait(timeout)
            if not self._jobs:
                return None
            return self._jobs.popleft()


__all__ = [
    "QUEUED",
    "RUNNING",
    "COMPLETED",
    "QUARANTINED",
    "DEADLETTERED",
    "SHED",
    "TERMINAL_STATES",
    "QueueFull",
    "ServiceDraining",
    "Job",
    "JobQueue",
]
