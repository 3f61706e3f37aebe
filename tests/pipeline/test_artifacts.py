"""Artifact stores, cache keys, and counters."""

import os
import sqlite3
import threading

import pytest

from repro.core.report import AppReport
from repro.hashing import canonical_json, fingerprint, fingerprint_text
from repro.pipeline.artifacts import (
    MISS,
    MemoryStore,
    PipelineStats,
    SharedDiskStore,
    TieredStore,
    build_store,
)
from repro.pipeline import stages


class TestHashing:
    def test_fingerprint_is_stable_and_order_insensitive(self):
        assert fingerprint({"a": 1, "b": 2}) == \
            fingerprint({"b": 2, "a": 1})
        assert fingerprint([1, 2]) != fingerprint([2, 1])

    def test_tuple_and_list_share_a_digest(self):
        assert fingerprint((1, "x")) == fingerprint([1, "x"])

    def test_canonical_json_compact(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == \
            '{"a":[1,2],"b":1}'

    def test_text_fingerprint_differs_from_json(self):
        assert fingerprint_text("abc") != fingerprint("abc")


class TestMemoryStore:
    def test_miss_then_hit(self):
        store = MemoryStore()
        assert store.get("s", "d") is MISS
        store.put("s", "d", 42)
        assert store.get("s", "d") == 42

    def test_none_artifact_is_not_a_miss(self):
        store = MemoryStore()
        store.put("s", "d", None)
        assert store.get("s", "d") is None

    def test_lru_eviction(self):
        store = MemoryStore(max_entries=2)
        store.put("s", "a", 1)
        store.put("s", "b", 2)
        store.get("s", "a")          # refresh a
        store.put("s", "c", 3)       # evicts b
        assert store.get("s", "a") == 1
        assert store.get("s", "b") is MISS
        assert store.get("s", "c") == 3

    def test_thread_safety_under_contention(self):
        store = MemoryStore(max_entries=64)

        def worker(tag):
            for i in range(200):
                store.put("s", f"{tag}-{i}", i)
                store.get("s", f"{tag}-{i % 7}")

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(store) <= 64


SQLITE_FILES = {"artifacts.sqlite", "artifacts.sqlite-wal",
                "artifacts.sqlite-shm"}


def damage_row(store: SharedDiskStore, stage: str, digest: str,
               doc: str) -> None:
    """Overwrite the stored document of one existing row, bypassing
    the codec -- how a torn page or an older writer's document reaches
    a later run."""
    conn = sqlite3.connect(store.path)
    updated = conn.execute(
        "UPDATE artifacts SET doc = ? WHERE stage = ? AND digest = ?",
        (doc, stage, digest)).rowcount
    conn.commit()
    conn.close()
    assert updated == 1


class TestDiskStore:
    """The disk tier that ``build_store(cache_dir=...)`` puts behind
    the memory LRU, seen across runs: one run writes, a fresh store on
    the same directory (the next run) reads.  Concurrent processes on
    one database are ``tests/pipeline/test_shared_store.py``."""

    @staticmethod
    def runs(tmp_path) -> tuple[SharedDiskStore, SharedDiskStore]:
        return (build_store(cache_dir=str(tmp_path)).disk,
                build_store(cache_dir=str(tmp_path)).disk)

    def test_roundtrip_with_codec(self, tmp_path, analyzer):
        first, second = self.runs(tmp_path)
        analysis = analyzer.analyze(
            "We collect your location. We do not share your contacts."
        )
        first.put(stages.POLICY_ANALYSIS, "d1", analysis)
        loaded = second.get(stages.POLICY_ANALYSIS, "d1")
        assert loaded is not analysis
        assert loaded.to_dict() == analysis.to_dict()
        # the database and its WAL sidecars are the whole layout
        assert set(os.listdir(tmp_path)) <= SQLITE_FILES

    def test_missing_and_corrupt_documents_are_misses(self, tmp_path):
        first, second = self.runs(tmp_path)
        assert second.get(stages.DETECT, "nope") is MISS
        first.put(stages.DETECT, "broken", AppReport(package="com.x"))
        damage_row(first, stages.DETECT, "broken", "{not json")
        assert second.get(stages.DETECT, "broken") is MISS

    def test_wrong_schema_document_is_a_miss(self, tmp_path):
        # valid JSON whose shape the codec rejects: recompute, don't
        # crash the stage
        first, second = self.runs(tmp_path)
        first.put(stages.DETECT, "odd", AppReport(package="com.x"))
        damage_row(first, stages.DETECT, "odd", "[1, 2, 3]")
        assert second.get(stages.DETECT, "odd") is MISS

    def test_none_lib_analysis_roundtrips(self, tmp_path):
        first, second = self.runs(tmp_path)
        first.put(stages.LIB_POLICY_ANALYSIS, "d", None)
        assert second.get(stages.LIB_POLICY_ANALYSIS, "d") is None

    def test_permission_set_roundtrips_as_set(self, tmp_path):
        first, second = self.runs(tmp_path)
        perms = {"android.permission.CAMERA",
                 "android.permission.READ_CONTACTS"}
        first.put(stages.DESCRIPTION_PERMISSIONS, "d", perms)
        assert second.get(stages.DESCRIPTION_PERMISSIONS, "d") == perms


class TestTieredStore:
    def test_disk_hit_backfills_memory(self, tmp_path):
        disk = SharedDiskStore(str(tmp_path))
        disk.put(stages.DESCRIPTION_PERMISSIONS, "d", {"p"})
        memory = MemoryStore()
        tiered = TieredStore(memory, disk)
        assert tiered.get(stages.DESCRIPTION_PERMISSIONS, "d") == {"p"}
        assert memory.get(stages.DESCRIPTION_PERMISSIONS, "d") == {"p"}

    def test_build_store_variants(self, tmp_path):
        assert isinstance(build_store(), MemoryStore)
        tiered = build_store(cache_dir=str(tmp_path), max_entries=3)
        assert isinstance(tiered, TieredStore)
        assert isinstance(tiered.disk, SharedDiskStore)
        assert tiered.memory.max_entries == 3


class TestPipelineStats:
    def test_counters_and_hit_rate(self):
        stats = PipelineStats()
        stats.record("s", hit=False, seconds=0.5)
        stats.record("s", hit=True, seconds=0.25)
        row = stats.stage("s")
        assert row.executions == 1
        assert row.cache_hits == 1
        assert row.requests == 2
        assert row.hit_rate == pytest.approx(0.5)
        assert row.seconds == pytest.approx(0.75)

    def test_failures_counter(self):
        stats = PipelineStats()
        stats.record("s", hit=False, seconds=0.1, failed=True)
        stats.record("s", hit=False, seconds=0.2)
        row = stats.stage("s")
        assert row.failures == 1
        assert row.executions == 1
        assert row.requests == 2
        assert stats.to_dict()["s"]["failures"] == 1

    def test_snapshot_is_a_copy(self):
        stats = PipelineStats()
        stats.record("s", hit=False, seconds=0.0)
        snap = stats.snapshot()
        stats.record("s", hit=False, seconds=0.0)
        assert snap["s"]["executions"] == 1
        assert stats.snapshot()["s"]["executions"] == 2


class TestCacheKeys:
    def test_policy_key_separates_html_and_config(self):
        base = stages.policy_key("fp", "text", False)
        assert stages.policy_key("fp", "text", True) != base
        assert stages.policy_key("other", "text", False) != base
        assert stages.policy_key("fp", "other", False) != base
        assert stages.policy_key("fp", "text", False) == base

    def test_lib_key_distinguishes_missing_policy_from_empty(self):
        with_text = stages.lib_policy_key("fp", "unity3d", "")
        without = stages.lib_policy_key("fp", "unity3d", None)
        assert with_text != without

    def test_stage_namespaces_never_collide(self):
        keys = {
            stages.policy_key("fp", "x", False),
            stages.description_key("fp", "x"),
            stages.lib_policy_key("fp", "x", None),
        }
        assert len(keys) == 3
