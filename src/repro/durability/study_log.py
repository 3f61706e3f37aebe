"""Crash-safe checkpointing for ``study`` and ``batch-check`` runs.

A :class:`RunLog` wraps one :class:`~repro.durability.journal.Journal`
with the record vocabulary of a batch run:

- ``meta``    -- written once at the head: what run this journal
  belongs to (``study`` seed/app-count, or the content digest of a
  ``batch-check`` bundle set).  ``--resume`` refuses a journal whose
  meta does not match the current invocation -- a journal can never
  silently splice two different runs together.
- ``outcome`` -- one per finished app: the key (package for studies,
  bundle content digest for batch-check), whether the app produced a
  report or a quarantine record, and the full
  :meth:`~repro.core.report.AppReport.to_dict` /
  :meth:`~repro.core.report.AppFailure.to_dict` payload.

The commit point is per app: an outcome is journaled the moment it
reaches the batch loop, in the batch's order, so a ``kill -9`` loses
only the apps not yet journaled.  On resume the replayed outcomes are
handed back to the caller, which skips those apps and recomputes only
the rest -- the final report is byte-identical to an uninterrupted
run because report/failure documents round-trip exactly and every
aggregate is derived from them.  For ``study`` the journal is the
run's only per-app outcome record: resuming a complete journal
rebuilds every table without a check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.report import AppFailure, AppReport
from repro.durability.journal import Journal

META = "meta"
OUTCOME = "outcome"

REPORT = "report"
QUARANTINE = "quarantine"


class RunLogError(RuntimeError):
    """The journal cannot back this run (meta mismatch, clobber)."""


@dataclass
class RecoveryInfo:
    """What a resumed run replayed (the ``== recovery ==`` table)."""

    path: str
    records_replayed: int = 0
    reports_replayed: int = 0
    quarantine_replayed: int = 0
    resumed: bool = False


class RunLog:
    """One batch run's write-ahead journal."""

    def __init__(self, journal: Journal, meta: dict[str, Any],
                 recovery: RecoveryInfo) -> None:
        self.journal = journal
        self.meta = meta
        self.recovery = recovery

    # -- opening -----------------------------------------------------------

    @classmethod
    def fresh(cls, path: str, meta: dict[str, Any]) -> RunLog:
        """Start a new run journal at *path*.

        Refuses to clobber an existing journal with committed records
        -- pass ``--resume`` (use :meth:`resume`) or delete the file.
        """
        journal = Journal(path)
        if journal.records():
            journal.close()
            raise RunLogError(
                f"{path}: journal already exists; pass --resume to "
                f"continue that run or remove the file")
        journal.append(META, meta)
        return cls(journal, meta, RecoveryInfo(path=path))

    @classmethod
    def resume(cls, path: str, meta: dict[str, Any],
               ) -> tuple[RunLog, dict[str, AppReport | AppFailure]]:
        """Reopen the journal at *path* and replay its outcomes.

        Returns ``(runlog, outcomes)`` where ``outcomes`` maps each
        replayed key to its reconstructed report or failure.  A
        missing/empty journal resumes as a fresh run.  Raises
        :class:`RunLogError` when the journal's meta record does not
        match *meta*.
        """
        journal = Journal(path)
        records = journal.records()
        recovery = RecoveryInfo(path=path)
        if not records:
            journal.append(META, meta)
            return cls(journal, meta, recovery), {}
        head = records[0]
        if head["type"] != META or head["payload"] != meta:
            journal.close()
            raise RunLogError(
                f"{path}: journal belongs to a different run "
                f"(journal meta {head['payload']!r} != expected "
                f"{meta!r})")
        outcomes: dict[str, AppReport | AppFailure] = {}
        recovery.resumed = True
        for record in records[1:]:
            if record["type"] != OUTCOME:
                continue
            payload = record["payload"]
            key = payload["key"]
            if payload["kind"] == QUARANTINE:
                outcomes[key] = AppFailure.from_dict(payload["doc"])
            else:
                outcomes[key] = AppReport.from_dict(payload["doc"])
        recovery.records_replayed = len(records)
        # re-replayed keys may repeat after an overlapping crash
        # window; last record wins, but count distinct keys
        recovery.reports_replayed = sum(
            1 for o in outcomes.values() if isinstance(o, AppReport))
        recovery.quarantine_replayed = sum(
            1 for o in outcomes.values() if isinstance(o, AppFailure))
        return cls(journal, meta, recovery), outcomes

    # -- checkpointing -----------------------------------------------------

    def record_outcome(self, key: str,
                       outcome: AppReport | AppFailure) -> None:
        """Durably checkpoint one finished app."""
        kind = QUARANTINE if isinstance(outcome, AppFailure) else REPORT
        self.journal.append(OUTCOME, {"key": key, "kind": kind,
                                      "doc": outcome.to_dict()})

    def close(self) -> None:
        self.journal.close()


def open_run_log(
    path: str, meta: dict[str, Any], resume: bool,
) -> tuple[RunLog, dict[str, AppReport | AppFailure]]:
    """The CLI entry point: ``--journal path`` (+ ``--resume``).

    Without *resume* the journal must be fresh (or absent); with it,
    committed outcomes are replayed and skipped by the caller.
    """
    if resume:
        return RunLog.resume(path, meta)
    return RunLog.fresh(path, meta), {}


__all__ = [
    "META",
    "OUTCOME",
    "REPORT",
    "QUARANTINE",
    "RunLogError",
    "RecoveryInfo",
    "RunLog",
    "open_run_log",
]
