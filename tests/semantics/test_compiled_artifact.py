"""The compiled-KB artifact fallback ladder under damage.

A corrupt artifact -- truncated, bit-flipped, wrong magic, wrong
schema version, or compiled from different articles -- must never
crash the loader and never load as silently-wrong weights: the ladder
falls back to a fresh compile, overwrites the damaged file, and bumps
the ``warnings`` counter that the ``nlp_caches`` telemetry surfaces.
"""

from __future__ import annotations

import os
from array import array

import pytest

from repro.memo import cache_stats
from repro.semantics.compiled import (
    KB_ARTIFACT_STATS,
    KB_SCHEMA_VERSION,
    CompiledKB,
    CompiledKBError,
    _validate_layout,
    artifact_path,
    compile_kb,
    load_artifact,
    load_or_compile,
    save_artifact,
)
from repro.semantics.knowledge import CONCEPT_ARTICLES

ARTICLES = {"Location": "gps location latitude longitude position",
            "Contacts": "contact address book phone number friend"}


@pytest.fixture
def counters():
    """Snapshot-free counter access: reset before, reset after."""
    KB_ARTIFACT_STATS.clear()
    yield KB_ARTIFACT_STATS
    KB_ARTIFACT_STATS.clear()


def write_artifact(directory: str) -> str:
    path = artifact_path(ARTICLES, directory)
    save_artifact(compile_kb(ARTICLES), path)
    return path


def corruptions(data: bytes) -> dict[str, bytes]:
    """One damaged variant per failure mode the header defends."""
    return {
        "truncated_header": data[:10],
        "truncated_payload": data[:-7],
        "bad_magic": b"XXXX" + data[4:],
        "wrong_schema": data[:4] + bytes([KB_SCHEMA_VERSION + 1, 0])
        + data[6:],
        "flipped_bit": data[:-3] + bytes([data[-3] ^ 0x40]) + data[-2:],
        "empty": b"",
    }


class TestFromBytesRejectsDamage:
    def test_every_corruption_raises(self, tmp_path):
        data = open(write_artifact(str(tmp_path)), "rb").read()
        assert CompiledKB.from_bytes(data).articles_fp  # sanity: loads
        for label, damaged in corruptions(data).items():
            with pytest.raises(CompiledKBError):
                CompiledKB.from_bytes(damaged)
                pytest.fail(f"{label} loaded")  # pragma: no cover

    def test_load_artifact_raises_on_disk_damage(self, tmp_path):
        path = write_artifact(str(tmp_path))
        data = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(data[: len(data) // 2])
        with pytest.raises(CompiledKBError):
            load_artifact(path)


class TestFallbackLadder:
    def test_missing_artifact_is_a_miss(self, tmp_path, counters):
        kb = load_or_compile(ARTICLES, str(tmp_path))
        assert counters.stats() == {
            "hits": 0, "misses": 1, "entries": 0, "max_entries": 1,
            "warnings": 0,
        }
        assert os.path.exists(artifact_path(ARTICLES, str(tmp_path)))
        assert kb.terms  # the returned KB is usable either way

    def test_verified_artifact_is_a_hit(self, tmp_path, counters):
        load_or_compile(ARTICLES, str(tmp_path))
        kb = load_or_compile(ARTICLES, str(tmp_path))
        assert counters.warnings == 0
        assert counters.hits == 1
        _assert_same_kb(kb, compile_kb(ARTICLES))

    @pytest.mark.parametrize("label", sorted(corruptions(b"x" * 64)))
    def test_corruption_recovers_with_warning(self, tmp_path, counters,
                                              label):
        path = write_artifact(str(tmp_path))
        damaged = corruptions(open(path, "rb").read())[label]
        with open(path, "wb") as handle:
            handle.write(damaged)
        kb = load_or_compile(ARTICLES, str(tmp_path))
        # never crashes, never silently wrong: the recompiled KB is
        # the in-memory build, and the damage is counted
        _assert_same_kb(kb, compile_kb(ARTICLES))
        assert counters.warnings == 1
        assert counters.misses == 1
        # the damaged file was overwritten with a verifying artifact
        load_artifact(path)
        kb2 = load_or_compile(ARTICLES, str(tmp_path))
        assert counters.hits == 1
        _assert_same_kb(kb2, kb)

    def test_foreign_articles_artifact_recovers(self, tmp_path,
                                                counters):
        """A verifying artifact for *different* articles under this
        path (e.g. a poisoned cache) recompiles with a warning."""
        path = artifact_path(ARTICLES, str(tmp_path))
        save_artifact(compile_kb(CONCEPT_ARTICLES), path)
        kb = load_or_compile(ARTICLES, str(tmp_path))
        _assert_same_kb(kb, compile_kb(ARTICLES))
        assert counters.warnings == 1

    def test_persistence_disabled_compiles_in_memory(self, tmp_path,
                                                     counters,
                                                     monkeypatch):
        monkeypatch.setenv("REPRO_KB_CACHE_DIR", "")
        kb = load_or_compile(ARTICLES)
        _assert_same_kb(kb, compile_kb(ARTICLES))
        assert counters.misses == 1
        assert counters.warnings == 0


class TestTelemetry:
    def test_warnings_surface_in_nlp_caches(self, tmp_path, counters):
        path = write_artifact(str(tmp_path))
        with open(path, "wb") as handle:
            handle.write(b"garbage")
        load_or_compile(ARTICLES, str(tmp_path))
        row = cache_stats()["esa_kb_artifact"]
        assert row["warnings"] == 1
        assert row["misses"] == 1


class TestValidatorBackends:
    """The one layout validator, reached both ways: called directly and
    through the loader on an artifact whose checksum is intact but
    whose arrays break the layout."""

    def good(self) -> CompiledKB:
        return compile_kb(ARTICLES)

    def test_both_accept_valid_layout(self):
        kb = self.good()
        _validate_layout(len(kb.concepts), len(kb.terms), kb.offsets,
                         kb.cids, kb.weights)
        _assert_same_kb(CompiledKB.from_bytes(kb.to_bytes()), kb)

    @pytest.mark.parametrize("mutate", [
        lambda o, c: (array("q", [o[1], o[0]] + list(o[2:])), c),
        lambda o, c: (o, array("i", [-1] + list(c[1:]))),
        lambda o, c: (o, array("i", [10 ** 6] + list(c[1:]))),
    ], ids=["nonmonotone_offsets", "negative_cid", "cid_out_of_range"])
    def test_both_reject_broken_layout(self, mutate):
        kb = self.good()
        bad_offsets, bad_cids = mutate(kb.offsets, kb.cids)
        with pytest.raises(CompiledKBError):
            _validate_layout(len(kb.concepts), len(kb.terms),
                             bad_offsets, bad_cids, kb.weights)
        broken = CompiledKB(concepts=kb.concepts, terms=kb.terms,
                            offsets=bad_offsets, cids=bad_cids,
                            weights=kb.weights,
                            articles_fp=kb.articles_fp)
        with pytest.raises(CompiledKBError):
            CompiledKB.from_bytes(broken.to_bytes())


def _assert_same_kb(left: CompiledKB, right: CompiledKB) -> None:
    assert left.concepts == right.concepts
    assert left.terms == right.terms
    assert list(left.offsets) == list(right.offsets)
    assert list(left.cids) == list(right.cids)
    assert left.weights.tobytes() == right.weights.tobytes()
    assert left.articles_fp == right.articles_fp
