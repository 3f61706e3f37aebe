"""Durable execution: write-ahead journaling and crash recovery.

Long batch runs and a long-running service both die ungracefully in
the real world -- OOM kills, node preemption, power loss.  This
package makes that survivable:

- :mod:`repro.durability.journal` -- the primitive: numbered records
  as rows of one stamped sqlite file (WAL, ``synchronous = FULL``),
  one autocommit ``INSERT`` per append.  A file that is not a journal
  is refused with :class:`~repro.durability.journal.JournalError`,
  never overwritten.
- :mod:`repro.durability.study_log` -- per-app outcome checkpoints
  for ``study --journal`` / ``batch-check --journal``; ``--resume``
  replays finished apps and recomputes only the rest, reproducing
  the uninterrupted run's report byte for byte.
- :mod:`repro.durability.service_log` -- accept-time job persistence
  for ``serve --state-dir``: queued/in-flight jobs are replayed on
  startup, and jobs that repeatedly crash the process are
  dead-lettered after a bounded number of redeliveries.

See DESIGN.md §12 for the journal layout, commit points, replay
rules, and the dead-letter policy.
"""
