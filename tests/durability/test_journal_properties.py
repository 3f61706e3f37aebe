"""Property suite for the journal (hypothesis).

The durability contract, stated as properties:

1. Any JSON payload appended comes back equal from ``replay``.
2. Cutting the ``-wal`` at any byte offset inside the last append's
   frames, or following it with junk, never makes replay raise, and
   never drops a record committed before that append -- a torn
   append can only lose itself.
"""

import os
import sqlite3

from hypothesis import given, settings, strategies as st

from repro.durability.journal import Journal, replay

json_values = st.recursive(
    st.none() | st.booleans()
    | st.integers(min_value=-(2 ** 53), max_value=2 ** 53)
    | st.text(max_size=20),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=10,
)

record_types = st.sampled_from(["meta", "outcome", "accepted",
                                "started", "completed"])


class TestRoundTrip:
    @given(type=record_types, payloads=st.lists(json_values, min_size=1,
                                                max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_encode_decode_identity(self, tmp_path_factory, type,
                                    payloads):
        path = str(tmp_path_factory.mktemp("journal") / "j.journal")
        with Journal(path) as journal:
            for payload in payloads:
                journal.append(type, payload)
        assert replay(path) == [
            {"payload": payload, "seq": seq, "type": type}
            for seq, payload in enumerate(payloads, start=1)]


def committed_then_tail(tmp_path, payloads, tail):
    """``(database bytes, -wal bytes)`` of a crash image in which
    *payloads* are checkpointed into the database and the *tail*
    append is the only thing in the ``-wal``."""
    path = str(tmp_path / "j.journal")
    with Journal(path) as journal:
        for payload in payloads:
            journal.append("outcome", payload)
        conn = sqlite3.connect(path)
        conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        conn.close()
        journal.append("outcome", tail)
        with open(path, "rb") as db, open(path + "-wal", "rb") as wal:
            return db.read(), wal.read()


def replay_image(tmp_path, db, wal):
    path = str(tmp_path / "image.journal")
    for suffix in ("-wal", "-shm"):
        if os.path.exists(path + suffix):
            os.remove(path + suffix)
    with open(path, "wb") as handle:
        handle.write(db)
    with open(path + "-wal", "wb") as handle:
        handle.write(wal)
    return replay(path)


class TestTornTail:
    @given(payloads=st.lists(json_values, min_size=1, max_size=4),
           tail=json_values, data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_truncation_never_raises_never_drops_committed(
            self, tmp_path_factory, payloads, tail, data):
        tmp_path = tmp_path_factory.mktemp("journal")
        db, wal = committed_then_tail(tmp_path, payloads, tail)
        # the WAL header and each frame boundary, plus drawn offsets;
        # 0 is "the append never happened", len(wal) "it committed"
        frame = 24 + 4096
        cuts = {0, 31, 32, 33, len(wal) - 1, len(wal)}
        cuts.update(32 + k * frame + d
                    for k in range(1, (len(wal) - 32) // frame)
                    for d in (-1, 0, 1))
        cuts.update(data.draw(st.lists(
            st.integers(0, len(wal)), max_size=8)))
        for cut in sorted(cuts):
            records = replay_image(tmp_path, db, wal[:cut])
            expected = payloads + ([tail] if cut == len(wal) else [])
            assert [r["payload"] for r in records] == expected
            assert [r["seq"] for r in records] == \
                list(range(1, len(expected) + 1))

    @given(payloads=st.lists(json_values, min_size=2, max_size=3),
           junk=st.binary(min_size=1, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_arbitrary_junk_tail_never_raises(
            self, tmp_path_factory, payloads, junk):
        tmp_path = tmp_path_factory.mktemp("journal")
        db, wal = committed_then_tail(tmp_path, payloads[:-1],
                                      payloads[-1])
        # junk after the last frame could only count as a record if
        # it carried the WAL's salt and a matching checksum -- random
        # bytes never do, so every committed record is all there is
        records = replay_image(tmp_path, db, wal + junk)
        assert [r["payload"] for r in records] == payloads

