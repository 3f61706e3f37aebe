"""Unit tests of the write-ahead journal primitive."""

import hashlib
import os
import shutil
import signal
import subprocess
import sys
import threading

import pytest

from repro.durability.journal import Journal, JournalError, replay


def write_journal(path, n=3):
    with Journal(str(path)) as journal:
        for i in range(1, n + 1):
            journal.append("outcome", {"app": f"pkg{i}"})
    return str(path)


def crash_image(path, dest):
    """Copy the live journal at *path* (database plus ``-wal``) to
    *dest*, as a crash would leave it: committed records not yet
    checkpointed live only in the ``-wal``."""
    shutil.copyfile(path, dest)
    shutil.copyfile(path + "-wal", dest + "-wal")
    return str(dest)


def sha256(path):
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


class TestReplay:
    def test_missing_file_replays_empty(self, tmp_path):
        path = str(tmp_path / "absent.journal")
        assert replay(path) == []
        assert not os.path.exists(path)

    def test_replays_all_committed_records(self, tmp_path):
        path = write_journal(tmp_path / "j.journal")
        records = replay(path)
        assert [r["payload"]["app"] for r in records] == \
            ["pkg1", "pkg2", "pkg3"]
        assert [r["seq"] for r in records] == [1, 2, 3]
        assert {r["type"] for r in records} == {"outcome"}

    def test_torn_tail_keeps_committed_prefix(self, tmp_path):
        path = str(tmp_path / "j.journal")
        with Journal(path) as journal:
            journal.append("outcome", {"app": "pkg1"})
            journal.append("outcome", {"app": "pkg2"})
            image = crash_image(path, str(tmp_path / "image.journal"))
        # a crash mid-append leaves a partial frame after the last
        # committed one
        with open(image + "-wal", "ab") as handle:
            handle.write(b"\x00\x00\x00\x02torn frame")
        assert [r["payload"]["app"] for r in replay(image)] == \
            ["pkg1", "pkg2"]

    def test_corrupt_page_is_refused_not_cut_short(self, tmp_path):
        """The journal is authoritative: a damaged one is an error,
        never a silently shorter replay."""
        path = str(tmp_path / "j.journal")
        with Journal(path) as journal:
            for i in range(200):
                journal.append("outcome", {"i": i, "blob": "x" * 100})
        # scribble over a b-tree page header past page 1 (where the
        # stamp lives)
        with open(path, "r+b") as handle:
            handle.seek(3 * 4096)
            handle.write(b"\xff" * 64)
        with pytest.raises(JournalError, match="unreadable journal"):
            replay(path)
        with Journal(path) as journal, \
                pytest.raises(JournalError, match="unreadable journal"):
            journal.records()


class TestJournal:
    def test_append_is_immediately_replayable(self, tmp_path):
        path = str(tmp_path / "j.journal")
        with Journal(path) as journal:
            journal.append("outcome", {"app": "a"})
            # a concurrent reader (or the next process) already sees it
            assert len(replay(path)) == 1
            journal.append("outcome", {"app": "b"})
            assert len(replay(path)) == 2

    def test_reopen_resumes_sequence(self, tmp_path):
        path = write_journal(tmp_path / "j.journal", n=2)
        with Journal(path) as journal:
            assert len(journal.records()) == 2
            assert journal.append("outcome", {"app": "pkg3"})["seq"] == 3
        assert [r["seq"] for r in replay(path)] == [1, 2, 3]

    def test_open_truncates_torn_tail(self, tmp_path):
        path = str(tmp_path / "j.journal")
        with Journal(path) as journal:
            journal.append("outcome", {"app": "pkg1"})
            journal.append("outcome", {"app": "pkg2"})
            image = crash_image(path, str(tmp_path / "image.journal"))
        with open(image + "-wal", "ab") as handle:
            handle.write(b"torn garbage")
        with Journal(image) as journal:
            assert len(journal.records()) == 2
            journal.append("outcome", {"app": "after-repair"})
        records = replay(image)
        assert [r["seq"] for r in records] == [1, 2, 3]
        assert records[-1]["payload"]["app"] == "after-repair"

    def test_listener_observes_appends(self, tmp_path):
        seen = []
        with Journal(str(tmp_path / "j.journal"),
                     listener=seen.append) as journal:
            journal.append("meta", {"k": 1})
            journal.append("outcome", {"k": 2})
        assert seen == ["meta", "outcome"]

    def test_size_bytes_tracks_file(self, tmp_path):
        path = str(tmp_path / "j.journal")
        with Journal(path) as journal:
            before = journal.size_bytes
            journal.append("t", {"blob": "x" * 10000})
            on_disk = os.path.getsize(path) + os.path.getsize(
                path + "-wal")
            assert journal.size_bytes == on_disk > before

    def test_concurrent_appends_are_serialized(self, tmp_path):
        """Appends from many threads at once (the service's workers
        and accept path share one journal) each get their own seq."""
        path = str(tmp_path / "j.journal")
        threads, per_thread = 8, 50
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with Journal(path) as journal:
                seqs = []

                def work(t):
                    for i in range(per_thread):
                        seqs.append(journal.append(
                            "outcome", {"t": t, "i": i})["seq"])

                pool = [threading.Thread(target=work, args=(t,))
                        for t in range(threads)]
                for thread in pool:
                    thread.start()
                for thread in pool:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
        finally:
            sys.setswitchinterval(switch)
        total = threads * per_thread
        assert sorted(seqs) == list(range(1, total + 1))
        records = replay(path)
        assert [r["seq"] for r in records] == list(range(1, total + 1))
        assert sorted((r["payload"]["t"], r["payload"]["i"])
                      for r in records) == \
            [(t, i) for t in range(threads) for i in range(per_thread)]

    def test_empty_file_opens_as_fresh_journal(self, tmp_path):
        path = tmp_path / "j.journal"
        path.write_bytes(b"")
        assert replay(str(path)) == []
        with Journal(str(path)) as journal:
            assert journal.append("t", {})["seq"] == 1


class TestForeignFile:
    """A file that is not a journal is refused and left untouched --
    never mistaken for a torn journal and overwritten."""

    def test_open_refuses_and_writes_nothing(self, foreign):
        digest = sha256(foreign)
        with pytest.raises(JournalError, match="not a journal"):
            Journal(foreign)
        assert sha256(foreign) == digest

    def test_replay_refuses_and_writes_nothing(self, foreign):
        digest = sha256(foreign)
        with pytest.raises(JournalError, match="not a journal"):
            replay(foreign)
        assert sha256(foreign) == digest


CHILD = """
import sys
import threading
from repro.durability.journal import Journal

with Journal(sys.argv[1]) as journal:
    for i in range(1, 100001):
        record = journal.append("outcome", {"i": i, "blob": "x" * (i % 97)})
        print(record["seq"], flush=True)
"""


class TestKill9:
    def test_sigkill_mid_append_loop_loses_nothing_committed(
            self, tmp_path):
        """Every seq the child saw ``append`` return survives a
        SIGKILL, the rows run 1..N without a gap, and the next append
        continues at N+1."""
        path = str(tmp_path / "j.journal")
        root = os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))))
        env = dict(os.environ,
                   PYTHONPATH=os.path.join(root, "src"))
        child = subprocess.Popen(
            [sys.executable, "-c", CHILD, path], env=env,
            stdout=subprocess.PIPE, text=True)
        try:
            printed = [int(child.stdout.readline()) for _ in range(40)]
            child.send_signal(signal.SIGKILL)
            printed += [int(line) for line in child.stdout]
            child.wait(timeout=30)
        finally:
            if child.poll() is None:  # pragma: no cover
                child.kill()
                child.wait(timeout=10)
            child.stdout.close()
        assert child.returncode == -signal.SIGKILL
        assert printed == list(range(1, len(printed) + 1))

        records = replay(path)
        n = len(records)
        assert [r["seq"] for r in records] == list(range(1, n + 1))
        assert n >= printed[-1]
        assert all(r["payload"] == {"i": r["seq"],
                                    "blob": "x" * (r["seq"] % 97)}
                   for r in records)
        with Journal(path) as journal:
            assert journal.append("outcome", {})["seq"] == n + 1

