"""Artifact stores and per-stage counters for the staged pipeline.

An *artifact* is the output of one pipeline stage (a
:class:`~repro.policy.model.PolicyAnalysis`, a
:class:`~repro.android.static_analysis.StaticAnalysisResult`, an
inferred permission set, ...), addressed by ``(stage name, content
digest of the stage inputs)``.  Stores answer "have we computed this
before?":

- :class:`MemoryStore`     -- a bounded, thread-safe LRU holding live
  artifact objects; the default.
- :class:`SharedDiskStore` -- one sqlite database under a cache
  directory, using the stage codecs from :mod:`repro.pipeline.stages`;
  survives across processes and runs and is safe for many
  *concurrent* processes (the ``--shards N`` worker planes): readers
  always see either the old or the new complete document, and a
  cache hit in one worker is a hit in all.
- :class:`TieredStore`     -- memory in front of a disk tier,
  backfilling the memory layer on a disk hit.

:class:`PipelineStats` aggregates per-stage wall time, execution and
cache-hit counts; it is what ``StudyResult.stats`` and the CLI
``--json`` output surface.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Protocol

#: Sentinel distinguishing "never computed" from a stored ``None``
#: artifact (libs without a policy cache as ``None``).
MISS = object()


class ArtifactStore(Protocol):
    """Minimal store interface the pipeline drives."""

    def get(self, stage: str, digest: str) -> Any:
        """The stored artifact, or :data:`MISS`."""

    def put(self, stage: str, digest: str, artifact: Any) -> None:
        """Store *artifact* under ``(stage, digest)``."""


class MemoryStore:
    """Thread-safe in-memory LRU over ``(stage, digest)`` keys."""

    def __init__(self, max_entries: int = 8192) -> None:
        self.max_entries = max_entries
        self._entries: OrderedDict[tuple[str, str], Any] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, stage: str, digest: str) -> Any:
        key = (stage, digest)
        with self._lock:
            if key not in self._entries:
                return MISS
            self._entries.move_to_end(key)
            return self._entries[key]

    def put(self, stage: str, digest: str, artifact: Any) -> None:
        key = (stage, digest)
        with self._lock:
            self._entries[key] = artifact
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


class SharedDiskStore:
    """One ``<cache_dir>/artifacts.sqlite`` database, shared by every
    process and thread that points at the same cache directory.

    ``codecs`` maps a stage name to an ``(encode, decode)`` pair
    translating between the live artifact and its JSON document (the
    registry lives in :data:`repro.pipeline.stages.STAGE_CODECS`).
    Stages without a codec are passed through untouched -- their
    artifacts must already be JSON-serializable.

    The concurrency contract:

    - **readers never tear**: an artifact row is replaced in a single
      transaction, so a reader racing a writer sees either the old or
      the new complete document, never a splice of both;
    - **writes are advisory**: a :meth:`put` against a database that
      stays locked past the busy timeout quietly drops the write.  A
      lost cache write is a future miss, never an error.

    A missing, corrupt, or wrong-schema row -- or a database file
    that cannot be read at all -- decodes to :data:`MISS` and is
    recomputed.
    """

    def __init__(
        self,
        cache_dir: str,
        codecs: dict[str, tuple[Callable[[Any], Any],
                                Callable[[Any], Any]]] | None = None,
        busy_timeout: float = 5.0,
    ) -> None:
        if codecs is None:
            from repro.pipeline.stages import STAGE_CODECS
            codecs = STAGE_CODECS
        self.codecs = codecs
        self.busy_timeout = busy_timeout
        os.makedirs(cache_dir, exist_ok=True)
        self.path = os.path.join(cache_dir, "artifacts.sqlite")
        self._local = threading.local()
        try:
            with self._begin() as conn:
                conn.execute(
                    "CREATE TABLE IF NOT EXISTS artifacts ("
                    " stage TEXT NOT NULL, digest TEXT NOT NULL,"
                    " doc TEXT NOT NULL,"
                    " PRIMARY KEY (stage, digest))")
        except sqlite3.Error:
            # a file that is not a database (or one locked past the
            # busy timeout) leaves every get a miss and every put
            # dropped, as for damage found after opening
            pass

    # -- connection management --------------------------------------------

    def _conn(self) -> sqlite3.Connection:
        """A per-thread connection, re-opened after fork (sqlite
        handles must never cross a fork boundary)."""
        cached = getattr(self._local, "conn", None)
        if cached is not None and self._local.pid == os.getpid():
            return cached
        conn = sqlite3.connect(self.path,
                               timeout=self.busy_timeout,
                               isolation_level=None)
        conn.execute(f"PRAGMA busy_timeout = "
                     f"{int(self.busy_timeout * 1000)}")
        try:
            # WAL lets readers proceed under a writer; sqlite falls
            # back (e.g. some network filesystems) without breaking
            # the atomic-replacement contract
            conn.execute("PRAGMA journal_mode = WAL")
            conn.execute("PRAGMA synchronous = NORMAL")
        except sqlite3.Error:
            pass
        self._local.conn = conn
        self._local.pid = os.getpid()
        return conn

    @contextmanager
    def _begin(self) -> Any:
        """``with store._begin() as conn``: an IMMEDIATE (write-locked)
        transaction with commit/rollback handling."""
        conn = self._conn()
        conn.execute("BEGIN IMMEDIATE")
        try:
            yield conn
        except BaseException:
            try:
                conn.execute("ROLLBACK")
            except sqlite3.Error:
                pass
            raise
        else:
            conn.execute("COMMIT")

    # -- ArtifactStore protocol -------------------------------------------

    def get(self, stage: str, digest: str) -> Any:
        try:
            row = self._conn().execute(
                "SELECT doc FROM artifacts WHERE stage = ? "
                "AND digest = ?", (stage, digest)).fetchone()
        except sqlite3.Error:
            return MISS
        if row is None:
            return MISS
        try:
            doc = json.loads(row[0])
        except ValueError:
            return MISS
        codec = self.codecs.get(stage)
        if codec is None:
            return doc
        try:
            return codec[1](doc)
        except Exception:
            # wrong-schema rows (an older writer, a corrupted page
            # that still parsed) are misses, never crashes
            return MISS

    def put(self, stage: str, digest: str, artifact: Any) -> None:
        codec = self.codecs.get(stage)
        doc = artifact if codec is None else codec[0](artifact)
        payload = json.dumps(doc, sort_keys=True,
                             separators=(",", ":"))
        try:
            with self._begin() as conn:
                conn.execute(
                    "INSERT OR REPLACE INTO artifacts "
                    "(stage, digest, doc) VALUES (?, ?, ?)",
                    (stage, digest, payload))
        except sqlite3.Error:
            # a contended or momentarily unavailable database drops
            # the write -- the artifact is recomputed on the next miss
            return

    def __len__(self) -> int:
        try:
            row = self._conn().execute(
                "SELECT COUNT(*) FROM artifacts").fetchone()
        except sqlite3.Error:
            return 0
        return int(row[0])

    def close(self) -> None:
        cached = getattr(self._local, "conn", None)
        if cached is not None:
            try:
                cached.close()
            except sqlite3.Error:
                pass
            self._local.conn = None


class TieredStore:
    """Memory in front of a :class:`SharedDiskStore`; disk hits
    backfill the memory layer."""

    def __init__(self, memory: MemoryStore,
                 disk: SharedDiskStore) -> None:
        self.memory = memory
        self.disk = disk

    def get(self, stage: str, digest: str) -> Any:
        artifact = self.memory.get(stage, digest)
        if artifact is not MISS:
            return artifact
        artifact = self.disk.get(stage, digest)
        if artifact is not MISS:
            self.memory.put(stage, digest, artifact)
        return artifact

    def put(self, stage: str, digest: str, artifact: Any) -> None:
        self.memory.put(stage, digest, artifact)
        self.disk.put(stage, digest, artifact)


def build_store(cache_dir: str | None = None,
                max_entries: int = 8192) -> ArtifactStore:
    """The default store layout: in-memory LRU, plus the shared sqlite
    tier when a cache directory is given."""
    memory = MemoryStore(max_entries=max_entries)
    if cache_dir is None:
        return memory
    return TieredStore(memory, SharedDiskStore(cache_dir))


# -- counters ------------------------------------------------------------


@dataclass
class StageStats:
    """Counters for one stage."""

    executions: int = 0
    cache_hits: int = 0
    failures: int = 0
    seconds: float = 0.0

    @property
    def requests(self) -> int:
        return self.executions + self.cache_hits + self.failures

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.requests if self.requests else 0.0

    def to_dict(self) -> dict[str, int | float]:
        return {
            "executions": self.executions,
            "cache_hits": self.cache_hits,
            "failures": self.failures,
            "hit_rate": self.hit_rate,
            "seconds": self.seconds,
        }


class PipelineStats:
    """Thread-safe per-stage counters for one pipeline instance.

    Listeners registered with :meth:`add_listener` observe every
    recorded stage event (the serving layer's metrics registry hooks
    in here); they run outside the counter lock and after the
    counters are updated, and never change stage behaviour.
    """

    def __init__(self) -> None:
        self._stages: dict[str, StageStats] = {}
        self._lock = threading.Lock()
        self._listeners: list[Callable[..., None]] = []
        self._abandoned_live = 0
        self._abandoned_total = 0

    def add_listener(
        self, listener: Callable[..., None],
    ) -> None:
        """Call ``listener(stage, hit=..., failed=..., seconds=...)``
        for every subsequent :meth:`record`.  Listeners must be
        thread-safe and cheap; exceptions propagate to the recording
        thread."""
        with self._lock:
            self._listeners.append(listener)

    def record(self, stage: str, *, hit: bool, seconds: float,
               failed: bool = False) -> None:
        with self._lock:
            stats = self._stages.setdefault(stage, StageStats())
            if failed:
                stats.failures += 1
            elif hit:
                stats.cache_hits += 1
            else:
                stats.executions += 1
            stats.seconds += seconds
            listeners = tuple(self._listeners)
        for listener in listeners:
            listener(stage, hit=hit, failed=failed, seconds=seconds)

    # -- abandoned stage threads (the call_with_timeout ledger) ------------

    def thread_abandoned(self) -> None:
        """A timed-out stage thread was left behind (it cannot be
        killed; the cancellation event asks it to unwind)."""
        with self._lock:
            self._abandoned_live += 1
            self._abandoned_total += 1

    def thread_reclaimed(self) -> None:
        """An abandoned stage thread finally returned (usually by
        observing its cancellation event at a poll point)."""
        with self._lock:
            self._abandoned_live -= 1

    @property
    def abandoned_threads(self) -> int:
        """Stage threads abandoned by a timeout and still running.
        Bounded in a healthy process: cooperative stages unwind at
        their next cancellation poll."""
        with self._lock:
            return self._abandoned_live

    @property
    def abandoned_threads_total(self) -> int:
        """Stage threads ever abandoned by a timeout."""
        with self._lock:
            return self._abandoned_total

    def stage(self, name: str) -> StageStats:
        with self._lock:
            return self._stages.setdefault(name, StageStats())

    def snapshot(self) -> dict[str, dict[str, int | float]]:
        """A point-in-time copy (diff two snapshots to scope a run)."""
        with self._lock:
            return {name: stats.to_dict()
                    for name, stats in sorted(self._stages.items())}

    def to_dict(self) -> dict[str, dict[str, int | float]]:
        return self.snapshot()

    @staticmethod
    def nlp_caches() -> dict[str, dict[str, int]]:
        """Hit/miss/size counters of the process-wide NLP/ESA memo
        caches (ESA interpretation vectors, pair similarities, parsed
        sentences; see :mod:`repro.memo`).  Process-wide rather than
        per-pipeline: the caches sit below the stage layer and are
        shared by every pipeline in the process."""
        from repro.memo import cache_stats

        return cache_stats()


__all__ = [
    "MISS",
    "ArtifactStore",
    "MemoryStore",
    "SharedDiskStore",
    "TieredStore",
    "build_store",
    "StageStats",
    "PipelineStats",
]
