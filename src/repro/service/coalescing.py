"""Request coalescing: one execution per bundle key.

Identical bundles submitted concurrently must run the pipeline once.
The artifact store already dedupes *sequential* re-checks per stage,
but two concurrent submissions of the same bundle would both miss the
cold cache and compute everything twice.  :class:`JobIndex` closes
that race at the job layer: submissions are keyed by the bundle's
key, and a submission whose key matches an in-flight or
recently completed job attaches to that job instead of enqueuing a
new one -- every attached waiter gets the same report.

Completed jobs stay resolvable in a bounded LRU so bursts of identical
requests (the hot-app pattern of a production checker) are answered
without touching the queue at all.
"""

from __future__ import annotations

import re
import threading
from collections import OrderedDict
from typing import Callable

from repro.service.jobs import Job

_JOB_ID = re.compile(r"^job-(\d+)$")


class JobIndex:
    """In-flight jobs by key, plus a completed-job LRU; also the
    ``id -> job`` directory behind ``GET /v1/jobs/<id>``."""

    def __init__(self, completed_capacity: int = 256,
                 on_evict: Callable[[Job], None] | None = None,
                 ) -> None:
        if completed_capacity < 0:
            raise ValueError("completed_capacity must be >= 0")
        self.completed_capacity = completed_capacity
        self._inflight: dict[str, Job] = {}
        self._completed: OrderedDict[str, Job] = OrderedDict()
        self._by_id: dict[str, Job] = {}
        self._lock = threading.Lock()
        self._counter = 0
        self._evictions = 0
        self._on_evict = on_evict

    # -- submission --------------------------------------------------------

    def submit(self, key: str,
               make_job: Callable[[str, str], Job],
               enqueue: Callable[[Job], None]) -> tuple[Job, bool]:
        """Resolve *key* to a job, creating and enqueuing one if no
        in-flight or completed job matches.

        ``make_job(job_id, key)`` builds the job, ``enqueue`` places
        it on the queue; both run under the index lock so concurrent
        submissions of the same key can never race into two
        executions.  If ``enqueue`` raises (queue full), nothing is
        registered.  Returns ``(job, coalesced)``.
        """
        with self._lock:
            job = self._inflight.get(key)
            if job is None:
                job = self._completed.get(key)
                if job is not None:
                    self._completed.move_to_end(key)
            if job is not None:
                job.waiters += 1
                return job, True
            self._counter += 1
            job = make_job(f"job-{self._counter}", key)
            enqueue(job)
            self._inflight[key] = job
            self._by_id[job.id] = job
            return job, False

    # -- crash recovery ----------------------------------------------------

    def restore(self, job: Job) -> None:
        """Register a journal-recovered job as in-flight under its
        original id (``serve --state-dir`` re-queues accepted jobs on
        startup; waiters from the previous process are gone, but the
        id stays resolvable and new submissions of the same key
        coalesce onto the redelivery)."""
        with self._lock:
            self._inflight[job.key] = job
            self._by_id[job.id] = job

    def ensure_counter(self, floor: int) -> None:
        """Advance the id counter to at least *floor* so ids issued
        after a recovery never collide with journaled ones."""
        with self._lock:
            self._counter = max(self._counter, floor)

    def issued(self, job_id: str) -> bool:
        """Whether *job_id* was ever handed out by this index (or a
        journaled predecessor, after :meth:`ensure_counter`).  An
        issued id that no longer resolves was evicted -- the basis of
        the ``410 Gone`` vs ``404 Not Found`` distinction, in O(1)
        memory: ids are ``job-N`` with N monotonically increasing, so
        ``N <= counter`` decides membership exactly."""
        match = _JOB_ID.match(job_id)
        if not match:
            return False
        with self._lock:
            return 1 <= int(match.group(1)) <= self._counter

    # -- lifecycle ---------------------------------------------------------

    def complete(self, job: Job) -> None:
        """Move *job* from in-flight to the completed LRU (evicting
        the oldest completed job, and its id, past capacity)."""
        evicted_jobs: list[Job] = []
        with self._lock:
            self._inflight.pop(job.key, None)
            if self.completed_capacity == 0:
                self._by_id.pop(job.id, None)
                self._evictions += 1
                evicted_jobs.append(job)
            else:
                self._completed[job.key] = job
                self._completed.move_to_end(job.key)
                while len(self._completed) > self.completed_capacity:
                    _, evicted = self._completed.popitem(last=False)
                    self._by_id.pop(evicted.id, None)
                    self._evictions += 1
                    evicted_jobs.append(evicted)
        if self._on_evict is not None:
            for evicted in evicted_jobs:
                self._on_evict(evicted)

    def forget(self, job: Job) -> None:
        """Drop *job* from the in-flight map without entering the
        completed LRU (dead-lettered jobs must never be coalesce
        targets: a resubmission of the same bundle deserves a fresh
        delivery budget, not the parked poison pill)."""
        with self._lock:
            self._inflight.pop(job.key, None)
            self._by_id.pop(job.id, None)

    # -- lookups -----------------------------------------------------------

    def by_id(self, job_id: str) -> Job | None:
        with self._lock:
            return self._by_id.get(job_id)

    @property
    def evictions(self) -> int:
        """Completed jobs aged out of the LRU since startup."""
        with self._lock:
            return self._evictions

    @property
    def inflight(self) -> int:
        with self._lock:
            return len(self._inflight)

    @property
    def completed(self) -> int:
        with self._lock:
            return len(self._completed)


__all__ = ["JobIndex"]
