"""Append-only sharded NDJSON study results.

At corpus scale a study's per-app outcomes cannot live in one process
dict (or one giant JSON document).  This module writes them as a
directory of NDJSON shards and reconstitutes the study tables from
those shards later:

- :class:`ShardedResultWriter` -- the streaming sink.  Outcomes are
  routed to ``shards`` files by ``index % shards`` (deterministic, so
  two runs over the same corpus produce byte-identical shards), each
  record is one JSON line, and a shard becomes visible atomically:
  records accumulate in ``shard-NNNN.ndjson.tmp`` and the finalize
  step appends a footer, fsyncs, and renames to ``shard-NNNN.ndjson``.
  A directory with no ``.tmp`` files therefore holds a complete run.
- :func:`iter_shard` / :func:`iter_results` -- validating readers.
  ``iter_results`` heap-merges the per-shard iterators back into
  global index order without materializing more than one record per
  shard.
- :func:`read_meta` -- the run identity (kind/seed/apps/limit)
  stamped into every shard header, used by ``merge-results`` to
  regenerate the matching corpus plans and by ``study --out``
  to refuse mixing two different runs in one directory.

Record vocabulary (one JSON object per line, ``sort_keys`` compact)::

    {"type": "header", "schema_version": 1, "results_format": 1,
     "shard": 0, "shards": 4, "meta": {...}}
    {"type": "outcome", "index": 17, "key": "com.example...",
     "kind": "report" | "quarantine", "doc": {...}}
    {"type": "footer", "records": 299}

``doc`` is the exact :meth:`~repro.core.report.AppReport.to_dict` /
:meth:`~repro.core.report.AppFailure.to_dict` payload, so merged
results round-trip byte-identically into the materialized study
tables.
"""

from __future__ import annotations

import heapq
import json
import os
from typing import Any, Iterator

from repro.core.report import AppFailure, AppReport
from repro.core.schema import versioned
from repro.durability.journal import fsync_dir

#: bump when a line's keys are renamed/removed or change meaning.
RESULTS_FORMAT = 1

HEADER = "header"
OUTCOME = "outcome"
FOOTER = "footer"

REPORT = "report"
QUARANTINE = "quarantine"

_SHARD_PREFIX = "shard-"
_SHARD_SUFFIX = ".ndjson"
_TMP_SUFFIX = ".tmp"


class ResultShardError(RuntimeError):
    """A shard directory cannot back this operation (torn shard,
    foreign run, malformed record)."""


def shard_name(shard: int) -> str:
    return f"{_SHARD_PREFIX}{shard:04d}{_SHARD_SUFFIX}"


def shard_paths(out_dir: str) -> list[str]:
    """The finalized shard files of *out_dir*, in shard order."""
    try:
        names = sorted(
            name for name in os.listdir(out_dir)
            if name.startswith(_SHARD_PREFIX)
            and name.endswith(_SHARD_SUFFIX)
        )
    except FileNotFoundError:
        return []
    return [os.path.join(out_dir, name) for name in names]


def _dump_line(record: dict[str, Any]) -> str:
    return json.dumps(record, sort_keys=True,
                      separators=(",", ":")) + "\n"


class ShardedResultWriter:
    """Streaming result sink: one append-only NDJSON file per shard.

    ``emit`` must be called from one thread (the streaming study's
    drain loop emits in index order); records within a shard are
    strictly index-ascending, which is what lets the merge step
    reconstitute global order with a k-way heap merge.

    ``close()`` finalizes every shard (footer + fsync + atomic
    rename); ``abort()`` discards the temporaries.  Until ``close()``
    returns, the directory never contains a half-written *finalized*
    shard -- crash recovery can always distinguish committed runs
    (no ``.tmp`` files) from torn ones.
    """

    def __init__(self, out_dir: str, meta: dict[str, Any],
                 shards: int = 4) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        os.makedirs(out_dir, exist_ok=True)
        self.out_dir = out_dir
        self.meta = dict(meta)
        self.shards = shards
        self._counts = [0] * shards
        self._closed = False
        self._handles = []
        for shard in range(shards):
            path = os.path.join(out_dir,
                                shard_name(shard) + _TMP_SUFFIX)
            handle = open(path, "w", encoding="utf-8")
            handle.write(_dump_line(versioned({
                "type": HEADER,
                "results_format": RESULTS_FORMAT,
                "shard": shard,
                "shards": shards,
                "meta": self.meta,
            })))
            self._handles.append(handle)

    def emit(self, index: int, key: str,
             outcome: AppReport | AppFailure) -> None:
        """Append one finished app's outcome to its shard."""
        if self._closed:
            raise ResultShardError("writer already finalized")
        kind = QUARANTINE if isinstance(outcome, AppFailure) else REPORT
        shard = index % self.shards
        self._handles[shard].write(_dump_line({
            "type": OUTCOME,
            "index": index,
            "key": key,
            "kind": kind,
            "doc": outcome.to_dict(),
        }))
        self._counts[shard] += 1

    def close(self) -> None:
        """Finalize every shard atomically."""
        if self._closed:
            return
        self._closed = True
        for shard, handle in enumerate(self._handles):
            handle.write(_dump_line({
                "type": FOOTER,
                "records": self._counts[shard],
            }))
            handle.flush()
            os.fsync(handle.fileno())
            handle.close()
            final = os.path.join(self.out_dir, shard_name(shard))
            os.replace(handle.name, final)
        # the renames become durable with the directory entry
        fsync_dir(self.out_dir)

    def abort(self) -> None:
        """Drop the temporaries (crash path; finalized shards stay)."""
        if self._closed:
            return
        self._closed = True
        for handle in self._handles:
            handle.close()
            try:
                os.remove(handle.name)
            except FileNotFoundError:  # pragma: no cover
                pass

    def __enter__(self) -> "ShardedResultWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.abort()


# ---------------------------------------------------------------------------
# reading & merging
# ---------------------------------------------------------------------------


def _parse_outcome(record: dict[str, Any], path: str, lineno: int,
                   ) -> tuple[int, str, AppReport | AppFailure]:
    """One outcome line as ``(index, key, outcome)``; a line that does
    not decode raises :class:`ResultShardError` naming *path*:*lineno*."""
    where = f"{path}:{lineno}"
    index, key, kind = (record.get("index"), record.get("key"),
                        record.get("kind"))
    if type(index) is not int or index < 0:
        raise ResultShardError(
            f"{where}: index {index!r} is not a corpus index")
    if not isinstance(key, str):
        raise ResultShardError(
            f"{where}: key {key!r} is not a package name")
    if kind not in (QUARANTINE, REPORT):
        raise ResultShardError(
            f"{where}: unknown outcome kind {kind!r}")
    try:
        outcome: AppReport | AppFailure = (
            AppFailure.from_dict(record["doc"]) if kind == QUARANTINE
            else AppReport.from_dict(record["doc"]))
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ResultShardError(
            f"{where}: {kind} record does not decode "
            f"({type(exc).__name__}: {exc})") from exc
    return index, key, outcome


def iter_shard(path: str) -> Iterator[
        tuple[int, str, AppReport | AppFailure]]:
    """Yield ``(index, key, outcome)`` from one finalized shard,
    validating header, footer, record count, and the writer's routing:
    shard *s* of *n* holds only indices ``i % n == s``, ascending."""
    records = 0
    saw_footer = False
    shard = shards = None
    last = -1
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ResultShardError(
                    f"{path}:{lineno}: malformed NDJSON line"
                ) from exc
            if not isinstance(record, dict):
                raise ResultShardError(
                    f"{path}:{lineno}: record is not a JSON object")
            kind = record.get("type")
            if lineno == 1:
                if kind != HEADER:
                    raise ResultShardError(
                        f"{path}: missing shard header")
                if record.get("results_format") != RESULTS_FORMAT:
                    raise ResultShardError(
                        f"{path}: results_format "
                        f"{record.get('results_format')!r} != "
                        f"{RESULTS_FORMAT}")
                shard, shards = record.get("shard"), record.get("shards")
                if type(shard) is not int or type(shards) is not int \
                        or not 0 <= shard < shards:
                    raise ResultShardError(
                        f"{path}: header names shard {shard!r} of "
                        f"{shards!r}")
                continue
            if saw_footer:
                raise ResultShardError(
                    f"{path}:{lineno}: records after footer")
            if kind == FOOTER:
                saw_footer = True
                if record.get("records") != records:
                    raise ResultShardError(
                        f"{path}: footer count "
                        f"{record.get('records')!r} != {records} "
                        f"records read")
                continue
            if kind != OUTCOME:
                raise ResultShardError(
                    f"{path}:{lineno}: unknown record type {kind!r}")
            records += 1
            index, key, outcome = _parse_outcome(record, path, lineno)
            if index <= last or index % shards != shard:
                raise ResultShardError(
                    f"{path}:{lineno}: index {index} is out of place "
                    f"(shard {shard} of {shards} holds ascending "
                    f"indices i % {shards} == {shard}; the previous "
                    f"was {last})")
            last = index
            yield index, key, outcome
    if not saw_footer:
        raise ResultShardError(
            f"{path}: no footer -- shard was never finalized")


def read_meta(out_dir: str) -> dict[str, Any] | None:
    """The run meta stamped into *out_dir*'s shards, or ``None`` for
    a directory without finalized shards.  Raises
    :class:`ResultShardError` when shards disagree (spliced runs) or
    the shard set is incomplete."""
    paths = shard_paths(out_dir)
    if not paths:
        return None
    meta: dict[str, Any] | None = None
    shards_expected: int | None = None
    seen: set[int] = set()
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            line = handle.readline()
        try:
            header = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ResultShardError(
                f"{path}: malformed shard header") from exc
        if header.get("type") != HEADER:
            raise ResultShardError(f"{path}: missing shard header")
        if meta is None:
            meta = header.get("meta")
            shards_expected = header.get("shards")
        elif header.get("meta") != meta:
            raise ResultShardError(
                f"{path}: shard belongs to a different run "
                f"({header.get('meta')!r} != {meta!r})")
        seen.add(header.get("shard"))
    if type(shards_expected) is not int \
            or seen != set(range(shards_expected)):
        raise ResultShardError(
            f"{out_dir}: incomplete shard set ({sorted(seen)} of "
            f"{shards_expected} expected)")
    return meta


def has_tmp_shards(out_dir: str) -> bool:
    """True when *out_dir* holds torn (unfinalized) shard files."""
    try:
        names = os.listdir(out_dir)
    except FileNotFoundError:
        return False
    return any(name.startswith(_SHARD_PREFIX)
               and name.endswith(_TMP_SUFFIX) for name in names)


def iter_results(out_dir: str) -> Iterator[
        tuple[int, str, AppReport | AppFailure]]:
    """Stream every outcome of a finalized run in global index
    order, holding one record per shard in memory (k-way merge over
    the index-ascending shards)."""
    paths = shard_paths(out_dir)
    if not paths:
        raise ResultShardError(
            f"{out_dir}: no finalized result shards")
    read_meta(out_dir)  # validates completeness + one-run property
    yield from heapq.merge(*(iter_shard(path) for path in paths),
                           key=lambda rec: rec[0])


__all__ = [
    "RESULTS_FORMAT",
    "HEADER",
    "OUTCOME",
    "FOOTER",
    "REPORT",
    "QUARANTINE",
    "ResultShardError",
    "ShardedResultWriter",
    "shard_name",
    "shard_paths",
    "iter_shard",
    "iter_results",
    "read_meta",
    "has_tmp_shards",
]
