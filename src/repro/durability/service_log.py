"""Persistent service jobs: accept-time journaling, crash replay,
and dead-lettering for poison pills.

``ppchecker serve --state-dir DIR`` opens a :class:`ServiceLog` over
``DIR/jobs.sqlite``.  The record vocabulary:

- ``accepted``     -- a job entered the queue: id, content key,
  package, and the full canonical bundle document (enough to rebuild
  and re-run the job after a crash).  Written before the ``202`` is
  answered, so an acknowledged job is never lost.
- ``started``      -- a worker picked the job up (one per delivery;
  the redelivery counter is the number of these records).
- ``completed`` / ``quarantined`` -- the job reached a terminal
  state; replay skips it.
- ``deadlettered`` -- recovery decided the job is a poison pill.

Recovery (:meth:`ServiceLog.recover`) folds the journal into per-job
state.  A job that was accepted but never finished is *redelivered*
-- re-queued exactly as submitted -- unless it has already been
delivered ``max_redeliveries`` times, in which case it is
dead-lettered: recorded as such in the journal (so the decision
itself survives the next crash), surfaced on ``GET /v1/deadletter``,
and never run again.  That bounds the damage of a job that crashes
the process (e.g. a ``crash``-kind fault): at most
``max_redeliveries`` process deaths, then the job is parked and the
service keeps serving everyone else.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.durability.journal import Journal, JournalError

JOB_ACCEPTED = "accepted"
JOB_STARTED = "started"
JOB_COMPLETED = "completed"
JOB_QUARANTINED = "quarantined"
JOB_DEADLETTERED = "deadlettered"
#: the job's request deadline expired and the work was dropped;
#: terminal for replay (the submitter stopped waiting -- a restart
#: must not resurrect work nobody wants)
JOB_SHED = "shed"

_JOB_NUMBER = re.compile(r"^job-(\d+)$")


@dataclass
class RecoveredJob:
    """One journaled job and everything replay learned about it."""

    id: str
    key: str
    package: str
    bundle_doc: dict[str, Any]
    deliveries: int = 0
    state: str = "queued"
    error: dict[str, Any] | None = None

    @property
    def terminal(self) -> bool:
        return self.state in (JOB_COMPLETED, JOB_QUARANTINED,
                              JOB_DEADLETTERED, JOB_SHED)


@dataclass
class RecoveredState:
    """What :meth:`ServiceLog.recover` hands the starting service."""

    #: journaled-but-unfinished jobs to re-queue, in acceptance order
    requeue: list[RecoveredJob] = field(default_factory=list)
    #: poison pills parked by this or an earlier recovery
    deadletters: list[RecoveredJob] = field(default_factory=list)
    #: highest job number ever issued (the index counter resumes past it)
    max_job_number: int = 0
    records_replayed: int = 0


def deadletter_doc(job_id: str, key: str, package: str,
                   deliveries: int) -> dict[str, Any]:
    """The structured 422-style payload for one dead-lettered job."""
    return {
        "id": job_id,
        "key": key,
        "package": package,
        "deliveries": deliveries,
        "state": JOB_DEADLETTERED,
        "error": {
            "kind": "deadlettered",
            "package": package,
            "error": "DeadLettered",
            "message": (
                f"job crashed the service in {deliveries} "
                f"deliver{'y' if deliveries == 1 else 'ies'} and "
                f"was dead-lettered"),
            "attempts": deliveries,
        },
    }


class ServiceLog:
    """The service's write-ahead job journal (thread-safe appends)."""

    FILENAME = "jobs.sqlite"
    #: an older build's JSONL job journal, which this build cannot read
    LEGACY_FILENAME = "jobs.jsonl"

    def __init__(self, state_dir: str,
                 listener: Callable[[str], None] | None = None,
                 ) -> None:
        legacy = os.path.join(state_dir, self.LEGACY_FILENAME)
        if os.path.exists(legacy):
            # starting without it would silently drop every job that
            # build acknowledged
            raise JournalError(
                f"{legacy}: job journal of an older build; finish its "
                f"jobs with that build or remove the file")
        os.makedirs(state_dir, exist_ok=True)
        self.state_dir = state_dir
        self.journal = Journal(os.path.join(state_dir, self.FILENAME),
                               listener=listener)

    # -- append sites (accept path + worker loop) --------------------------

    def job_accepted(self, job_id: str, key: str, package: str,
                     bundle_doc: dict[str, Any]) -> None:
        self.journal.append(JOB_ACCEPTED, {
            "id": job_id, "key": key, "package": package,
            "bundle": bundle_doc,
        })

    def job_started(self, job_id: str, delivery: int) -> None:
        self.journal.append(JOB_STARTED, {"id": job_id,
                                          "delivery": delivery})

    def job_completed(self, job_id: str) -> None:
        self.journal.append(JOB_COMPLETED, {"id": job_id})

    def job_quarantined(self, job_id: str,
                        error: dict[str, Any]) -> None:
        self.journal.append(JOB_QUARANTINED,
                            {"id": job_id, "error": error})

    def job_deadlettered(self, job_id: str, deliveries: int) -> None:
        self.journal.append(JOB_DEADLETTERED,
                            {"id": job_id, "deliveries": deliveries})

    def job_shed(self, job_id: str, error: dict[str, Any]) -> None:
        self.journal.append(JOB_SHED, {"id": job_id, "error": error})

    # -- recovery ----------------------------------------------------------

    def recover(self, max_redeliveries: int) -> RecoveredState:
        """Fold the journal into live state, dead-lettering poison
        pills that already burned *max_redeliveries* deliveries.

        Newly dead-lettered jobs are journaled immediately, so the
        decision is itself crash-safe (a second recovery sees the
        ``deadlettered`` record, not a fresh delivery budget).
        """
        state = RecoveredState()
        jobs: dict[str, RecoveredJob] = {}
        order: list[str] = []
        deliveries_only: dict[str, int] = {}
        for record in self.journal.records():
            state.records_replayed += 1
            payload = record["payload"]
            job_id = payload.get("id")
            if record["type"] == JOB_ACCEPTED:
                job = RecoveredJob(
                    id=job_id, key=payload["key"],
                    package=payload["package"],
                    bundle_doc=payload["bundle"],
                    deliveries=deliveries_only.pop(job_id, 0),
                )
                jobs[job_id] = job
                order.append(job_id)
                match = _JOB_NUMBER.match(job_id or "")
                if match:
                    state.max_job_number = max(
                        state.max_job_number, int(match.group(1)))
                continue
            job = jobs.get(job_id)
            if record["type"] == JOB_STARTED:
                if job is None:
                    # started landed before its accepted record (the
                    # two appends race only across threads); keep the
                    # count until the accepted record shows up
                    deliveries_only[job_id] = \
                        deliveries_only.get(job_id, 0) + 1
                else:
                    job.deliveries += 1
            elif job is not None:
                job.state = record["type"]
                if record["type"] == JOB_QUARANTINED:
                    job.error = payload.get("error")
        for job_id in order:
            job = jobs[job_id]
            if job.terminal:
                if job.state == JOB_DEADLETTERED:
                    state.deadletters.append(job)
                continue
            if job.deliveries >= max_redeliveries:
                self.job_deadlettered(job.id, job.deliveries)
                job.state = JOB_DEADLETTERED
                state.deadletters.append(job)
            else:
                state.requeue.append(job)
        return state

    @property
    def size_bytes(self) -> int:
        return self.journal.size_bytes

    def close(self) -> None:
        self.journal.close()


__all__ = [
    "JOB_ACCEPTED",
    "JOB_STARTED",
    "JOB_COMPLETED",
    "JOB_QUARANTINED",
    "JOB_DEADLETTERED",
    "JOB_SHED",
    "RecoveredJob",
    "RecoveredState",
    "deadletter_doc",
    "ServiceLog",
]
