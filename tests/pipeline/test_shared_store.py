"""The sqlite artifact store shared by concurrent processes.

Two layers of proof (the disk-tier basics, as ``build_store`` wires
them, live in ``tests/pipeline/test_artifacts.py``):

1. the store honours the :class:`~repro.pipeline.artifacts.ArtifactStore`
   contract with the corrupt-cache tolerances of a cache (missing /
   corrupt / wrong-schema rows are misses, never crashes);
2. a multi-process stress run: N writer processes hammering
   overlapping keys while a reader races them never observes a torn
   document (every value seen carries a valid self-checksum).
"""

import contextlib
import hashlib
import json
import multiprocessing
import os
import sqlite3

from repro.pipeline import stages
from repro.pipeline.artifacts import (
    MISS,
    MemoryStore,
    SharedDiskStore,
    TieredStore,
)

# -- checksummed payloads (torn writes are self-evident) -----------------


def sealed(tag: int, seq: int) -> dict:
    """A document whose ``check`` field commits to the rest of it."""
    body = {"tag": tag, "seq": seq, "pad": "x" * 256}
    body["check"] = hashlib.sha256(
        json.dumps(body, sort_keys=True).encode()).hexdigest()
    return body


def is_sealed(doc) -> bool:
    if not isinstance(doc, dict) or "check" not in doc:
        return False
    body = {k: v for k, v in doc.items() if k != "check"}
    return doc["check"] == hashlib.sha256(
        json.dumps(body, sort_keys=True).encode()).hexdigest()


# -- spawn targets (module-level so the spawn context can import them) ---

STRESS_KEYS = [f"k{i:02d}" for i in range(16)]


def _writer_proc(cache_dir: str, tag: int, rounds: int) -> None:
    store = SharedDiskStore(cache_dir, codecs={})
    for seq in range(rounds):
        for key in STRESS_KEYS:
            store.put("stress", key, sealed(tag, seq))


GARBAGE = b"\x13garbage, not a database" * 64


def _garbage_opener_proc(cache_dir: str, out_dir: str, tag: int,
                         barrier) -> None:
    with open(os.path.join(out_dir, f"stderr-{tag}.txt"), "w") as err:
        with contextlib.redirect_stderr(err):
            barrier.wait(timeout=60)
            store = SharedDiskStore(cache_dir, codecs={})
    store.put("s", f"d{tag}", {"tag": tag})


class TestSharedStoreContract:
    def test_miss_then_hit(self, tmp_path):
        store = SharedDiskStore(str(tmp_path), codecs={})
        assert store.get("s", "d") is MISS
        store.put("s", "d", {"k": 42})
        assert store.get("s", "d") == {"k": 42}
        assert len(store) == 1

    def test_roundtrip_with_codec(self, tmp_path, analyzer):
        store = SharedDiskStore(str(tmp_path))
        analysis = analyzer.analyze(
            "We collect your location. We do not share your contacts."
        )
        store.put(stages.POLICY_ANALYSIS, "d1", analysis)
        loaded = store.get(stages.POLICY_ANALYSIS, "d1")
        assert loaded is not analysis
        assert loaded.to_dict() == analysis.to_dict()

    def test_none_lib_analysis_roundtrips(self, tmp_path):
        store = SharedDiskStore(str(tmp_path))
        store.put(stages.LIB_POLICY_ANALYSIS, "d", None)
        assert store.get(stages.LIB_POLICY_ANALYSIS, "d") is None

    def test_permission_set_roundtrips_as_set(self, tmp_path):
        store = SharedDiskStore(str(tmp_path))
        perms = {"android.permission.CAMERA",
                 "android.permission.READ_CONTACTS"}
        store.put(stages.DESCRIPTION_PERMISSIONS, "d", perms)
        assert store.get(stages.DESCRIPTION_PERMISSIONS, "d") == perms

    def test_corrupt_row_is_a_miss(self, tmp_path):
        store = SharedDiskStore(str(tmp_path), codecs={})
        conn = sqlite3.connect(store.path)
        conn.execute(
            "INSERT INTO artifacts (stage, digest, doc) "
            "VALUES (?, ?, ?)", ("s", "broken", "{not json"))
        conn.commit()
        conn.close()
        assert store.get("s", "broken") is MISS

    def test_wrong_schema_row_is_a_miss(self, tmp_path):
        # valid JSON whose shape the codec rejects: recompute, don't
        # crash the stage
        store = SharedDiskStore(str(tmp_path))
        conn = sqlite3.connect(store.path)
        conn.execute(
            "INSERT INTO artifacts (stage, digest, doc) VALUES "
            "(?, ?, ?)", (stages.POLICY_ANALYSIS, "odd", "[1,2,3]"))
        conn.commit()
        conn.close()
        assert store.get(stages.POLICY_ANALYSIS, "odd") is MISS

    def test_unreadable_database_degrades_to_miss(self, tmp_path):
        store = SharedDiskStore(str(tmp_path), codecs={})
        store.put("s", "d", {"k": 1})
        store.close()
        # clobber the database file wholesale: every read degrades
        # to a miss and every write is quietly dropped
        with open(store.path, "wb") as handle:
            handle.write(b"\x00" * 64)
        assert store.get("s", "d") is MISS
        store.put("s", "d2", {"k": 2})       # must not raise
        assert store.get("s", "d2") is MISS

    def test_garbage_database_file_at_open_degrades_to_miss(
            self, tmp_path, capsys):
        # the cache file was clobbered before this run started: the
        # run checks everything afresh instead of crashing at startup,
        # and the file is moved aside and rebuilt so later runs hit
        (tmp_path / "artifacts.sqlite").write_bytes(GARBAGE)
        store = SharedDiskStore(str(tmp_path), codecs={})
        assert store.get("s", "d") is MISS
        store.put("s", "d", {"k": 1})
        later = SharedDiskStore(str(tmp_path), codecs={})
        assert later.get("s", "d") == {"k": 1}
        assert (tmp_path / "artifacts.sqlite.corrupt").read_bytes() \
            == GARBAGE
        warnings = capsys.readouterr().err.splitlines()
        assert len(warnings) == 1 and "not a sqlite database" \
            in warnings[0]

    def test_garbage_file_that_cannot_be_moved_stays_a_miss(
            self, tmp_path, monkeypatch):
        # a read-only cache directory: no rebuild, no crash
        (tmp_path / "artifacts.sqlite").write_bytes(GARBAGE)

        def refuse(*args):
            raise PermissionError("read-only file system")

        monkeypatch.setattr(os, "replace", refuse)
        store = SharedDiskStore(str(tmp_path), codecs={})
        assert store.get("s", "d") is MISS
        store.put("s", "d", {"k": 1})
        assert store.get("s", "d") is MISS
        assert (tmp_path / "artifacts.sqlite").read_bytes() == GARBAGE

    def test_garbage_database_opened_by_two_processes_at_once(
            self, tmp_path):
        """Both openers end on one valid database holding both their
        writes; the garbage is moved aside once, with one warning."""
        cache = tmp_path / "cache"
        cache.mkdir()
        (cache / "artifacts.sqlite").write_bytes(GARBAGE)
        ctx = multiprocessing.get_context("spawn")
        barrier = ctx.Barrier(2)
        procs = [
            ctx.Process(target=_garbage_opener_proc,
                        args=(str(cache), str(tmp_path), tag, barrier))
            for tag in range(2)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=120)
        assert all(p.exitcode == 0 for p in procs)
        assert (cache / "artifacts.sqlite.corrupt").read_bytes() \
            == GARBAGE
        conn = sqlite3.connect(str(cache / "artifacts.sqlite"))
        assert conn.execute("PRAGMA integrity_check").fetchone() \
            == ("ok",)
        conn.close()
        store = SharedDiskStore(str(cache), codecs={})
        assert [store.get("s", f"d{tag}") for tag in range(2)] \
            == [{"tag": 0}, {"tag": 1}]
        warnings = [
            line
            for tag in range(2)
            for line in (tmp_path / f"stderr-{tag}.txt")
            .read_text().splitlines()
        ]
        assert len(warnings) == 1, warnings

    def test_replace_overwrites_previous_version(self, tmp_path):
        store = SharedDiskStore(str(tmp_path), codecs={})
        store.put("s", "d", sealed(1, 0))
        store.put("s", "d", sealed(2, 9))
        doc = store.get("s", "d")
        assert doc["tag"] == 2 and doc["seq"] == 9
        assert len(store) == 1

    def test_two_store_instances_share_one_database(self, tmp_path):
        a = SharedDiskStore(str(tmp_path), codecs={})
        b = SharedDiskStore(str(tmp_path), codecs={})
        a.put("s", "d", {"from": "a"})
        assert b.get("s", "d") == {"from": "a"}

    def test_tiered_backfill_over_shared_store(self, tmp_path):
        disk = SharedDiskStore(str(tmp_path))
        disk.put(stages.DESCRIPTION_PERMISSIONS, "d", {"p"})
        memory = MemoryStore()
        tiered = TieredStore(memory, disk)
        assert tiered.get(stages.DESCRIPTION_PERMISSIONS, "d") == {"p"}
        assert memory.get(stages.DESCRIPTION_PERMISSIONS, "d") == {"p"}


class TestMultiProcessStress:
    def test_concurrent_writers_never_tear_a_document(self, tmp_path):
        """4 writer processes × 16 overlapping keys × 25 versions,
        with the parent reading throughout: every observed value is a
        complete, self-consistent document."""
        ctx = multiprocessing.get_context("spawn")
        writers = [
            ctx.Process(target=_writer_proc,
                        args=(str(tmp_path), tag, 25))
            for tag in range(4)
        ]
        for proc in writers:
            proc.start()
        reader = SharedDiskStore(str(tmp_path), codecs={})
        observations = 0
        try:
            while any(p.is_alive() for p in writers):
                for key in STRESS_KEYS:
                    doc = reader.get("stress", key)
                    if doc is not MISS:
                        observations += 1
                        assert is_sealed(doc), f"torn read at {key}"
        finally:
            for proc in writers:
                proc.join(timeout=120)
        assert all(p.exitcode == 0 for p in writers)
        assert observations > 0, "reader never raced the writers"
        # after the dust settles every key holds some writer's final
        # version, intact
        for key in STRESS_KEYS:
            doc = reader.get("stress", key)
            assert is_sealed(doc)
            assert doc["seq"] == 24
        assert len(reader) == len(STRESS_KEYS)
