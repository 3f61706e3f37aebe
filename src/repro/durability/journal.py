"""An append-only write-ahead journal: numbered rows in one sqlite file.

One journal is one database with one table, ``records(seq INTEGER
PRIMARY KEY, type TEXT, payload TEXT)`` (``payload`` is canonical
JSON), in WAL mode with ``synchronous = FULL``.

- **Commit point.** :meth:`Journal.append` is one autocommit
  ``INSERT``: once it returns, the record survives a ``kill -9`` or
  power loss.  A torn append is sqlite's to roll back, so replay sees
  whole records numbered 1..N.  The parent directory is fsync'd when
  the file is created, so the file itself survives too.
- **Identity.** A journal is stamped with :data:`APPLICATION_ID` in
  the transaction that creates its table.  Any other file -- a text
  file, an older build's JSONL journal, an ``artifacts.sqlite`` cache
  -- raises :class:`JournalError` and is left untouched.  The artifact
  cache is disposable and rebuilt when damaged; a journal is
  authoritative, so it is refused instead.

Interpretation (study checkpoints, service jobs) lives in
:mod:`repro.durability.study_log` and
:mod:`repro.durability.service_log`.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
from typing import Any, Callable

from repro.hashing import canonical_json

#: ``PRAGMA application_id`` of every journal file ("PPJL")
APPLICATION_ID = 0x50504A4C


class JournalError(RuntimeError):
    """The file is not a journal (or cannot be opened as one)."""


def fsync_dir(path: str) -> None:
    """fsync the directory *path* so a just-created or just-renamed
    entry inside it survives power loss (no-op where directories
    cannot be opened, e.g. Windows)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-specific
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _connect(path: str) -> tuple[sqlite3.Connection, bool]:
    """``(connection, stamped)``; *stamped* is False for a database
    that holds nothing yet (an empty file).  Raises
    :class:`JournalError`, having written nothing, for anything else."""
    conn = None
    try:
        conn = sqlite3.connect(path, timeout=5.0, isolation_level=None,
                               check_same_thread=False)
        (app_id,) = conn.execute("PRAGMA application_id").fetchone()
        empty = app_id == 0 and conn.execute(
            "SELECT 1 FROM sqlite_master").fetchone() is None
    except sqlite3.Error as exc:
        if conn is not None:
            conn.close()
        raise JournalError(f"{path}: not a journal ({exc})") from exc
    if app_id != APPLICATION_ID and not empty:
        conn.close()
        raise JournalError(f"{path}: not a journal (a sqlite database "
                           "of another application)")
    return conn, not empty


def _select(conn: sqlite3.Connection, path: str) -> list[dict[str, Any]]:
    try:
        return [{"payload": json.loads(payload), "seq": seq, "type": type}
                for seq, type, payload in conn.execute(
                    "SELECT seq, type, payload FROM records ORDER BY seq")]
    except (sqlite3.DatabaseError, ValueError) as exc:
        # a damaged journal is refused, never replayed in part
        raise JournalError(f"{path}: unreadable journal ({exc})") \
            from exc


def replay(path: str) -> list[dict[str, Any]]:
    """Every committed record of the journal at *path*, in ``seq``
    order; a missing or empty file replays as empty.  Writes nothing
    (and raises :class:`JournalError`) for a file that is not a
    journal."""
    if not os.path.exists(path):
        return []
    conn, stamped = _connect(path)
    try:
        return _select(conn, path) if stamped else []
    finally:
        conn.close()


class Journal:
    """An open, appendable write-ahead journal.

    ``listener(type)`` (optional) observes every committed append --
    the service's metrics bridge.  Appends from any thread are
    serialized by the journal's own lock.
    """

    def __init__(self, path: str,
                 listener: Callable[[str], None] | None = None,
                 ) -> None:
        self.path = path
        self.listener = listener
        self._lock = threading.Lock()
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        existed = os.path.exists(path)
        self._conn, stamped = _connect(path)
        try:
            if not stamped:
                self._conn.executescript(
                    "BEGIN IMMEDIATE;"
                    f" PRAGMA application_id = {APPLICATION_ID};"
                    " CREATE TABLE IF NOT EXISTS records ("
                    "  seq INTEGER PRIMARY KEY, type TEXT NOT NULL,"
                    "  payload TEXT NOT NULL);"
                    " COMMIT;")
            self._conn.execute("PRAGMA journal_mode = WAL")
            self._conn.execute("PRAGMA synchronous = FULL")
        except sqlite3.Error as exc:
            self._conn.close()
            raise JournalError(f"{path}: cannot open journal ({exc})") \
                from exc
        if not existed:
            fsync_dir(parent)

    def append(self, type: str, payload: Any) -> dict[str, Any]:
        """Durably append one record; returns it once committed."""
        with self._lock:
            seq = self._conn.execute(
                "INSERT INTO records (type, payload) VALUES (?, ?)",
                (type, canonical_json(payload))).lastrowid
        if self.listener is not None:
            self.listener(type)
        return {"payload": payload, "seq": seq, "type": type}

    def records(self) -> list[dict[str, Any]]:
        """Every committed record, in ``seq`` order."""
        with self._lock:
            return _select(self._conn, self.path)

    @property
    def size_bytes(self) -> int:
        """On-disk size: the database file plus its ``-wal``."""
        size = 0
        for name in (self.path, self.path + "-wal"):
            try:
                size += os.path.getsize(name)
            except FileNotFoundError:
                pass
        return size

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> Journal:
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


__all__ = ["APPLICATION_ID", "JournalError", "fsync_dir", "replay",
           "Journal"]
