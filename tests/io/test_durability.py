"""Unit contracts of the durability layer (:mod:`repro.io.durability`).

The write-ahead log's framing (length + CRC32, torn tail truncated on
open), the snapshot container's atomicity and version handshake, recovery's
snapshot-then-tail composition under compaction, and the writer lock.  The
crash sweep in ``test_crash_recovery.py`` drives the same machinery through
injected failures; here each piece is pinned in isolation.
"""

import json

import pytest

from repro.errors import DirectoryInUseError, SequenceDatalogError, SnapshotUnsupportedError
from repro.io.durability import (
    KEEP_SNAPSHOTS,
    SessionDurability,
    WriteAheadLog,
    load_snapshot,
    write_snapshot,
)
from repro.model import Fact, path


def edge(source, target):
    return Fact("E", (path(source), path(target)))


def commit(generation, *, adds=(), retracts=()):
    """A commit record shaped like the serving layer's, by generation."""
    from repro.io.durability import encode_commit

    return encode_commit(generation, adds, retracts, 1)


class TestWriteAheadLog:
    def test_append_read_roundtrip(self, tmp_path):
        log_path = tmp_path / "wal.log"
        wal = WriteAheadLog(log_path)
        records = [commit(g, adds=[edge(f"a{g}", "b")]) for g in (1, 2, 3)]
        for record in records:
            wal.append(record)
        wal.close()
        assert WriteAheadLog.read(log_path) == records

    def test_torn_tail_is_truncated_on_open(self, tmp_path):
        log_path = tmp_path / "wal.log"
        wal = WriteAheadLog(log_path)
        wal.append(commit(1))
        wal.append(commit(2))
        wal.close()
        intact = log_path.read_bytes()
        # A crash mid-append leaves a prefix of the third frame.
        wal = WriteAheadLog(log_path)
        wal.append(commit(3))
        wal.close()
        torn = intact + (log_path.read_bytes()[len(intact) :][: 5])
        log_path.write_bytes(torn)
        assert [r["generation"] for r in WriteAheadLog.read(log_path)] == [1, 2]
        # Re-opening truncates the torn frame and appending resumes cleanly.
        wal = WriteAheadLog(log_path)
        assert wal.size == len(intact)
        assert wal.last_generation == 2
        wal.append(commit(3))
        wal.close()
        assert [r["generation"] for r in WriteAheadLog.read(log_path)] == [1, 2, 3]

    def test_garbage_tail_is_tolerated(self, tmp_path):
        # Regression: a tail of pure garbage (not a truncated frame — wrong
        # checksum, unparseable payload) must also read as end-of-log.
        log_path = tmp_path / "wal.log"
        wal = WriteAheadLog(log_path)
        wal.append(commit(1))
        wal.close()
        valid = log_path.read_bytes()
        for tail in (
            b"\xff" * 3,  # short header
            b"\x04\x00\x00\x00\x00\x00\x00\x00junk",  # CRC mismatch
            valid[:8] + b"x" * (len(valid) - 8),  # length ok, payload wrong
        ):
            log_path.write_bytes(valid + tail)
            assert [r["generation"] for r in WriteAheadLog.read(log_path)] == [1]
            reopened = WriteAheadLog(log_path)
            assert reopened.size == len(valid)
            reopened.close()
            assert log_path.read_bytes() == valid

    def test_corrupted_middle_record_ends_the_valid_prefix(self, tmp_path):
        log_path = tmp_path / "wal.log"
        wal = WriteAheadLog(log_path)
        for generation in (1, 2, 3):
            wal.append(commit(generation))
        wal.close()
        data = bytearray(log_path.read_bytes())
        data[len(data) // 2] ^= 0xFF  # flip a bit mid-file
        log_path.write_bytes(bytes(data))
        records = WriteAheadLog.read(log_path)
        assert [r["generation"] for r in records] == [1]


class TestSnapshots:
    def test_atomic_write_and_load(self, tmp_path):
        target = tmp_path / "snapshot-000000000001.json"
        document = {
            "format": "repro-session-snapshot",
            "version": 1,
            "generation": 1,
            "config": {},
            "state": {"edb": {}},
        }
        write_snapshot(target, document)
        assert load_snapshot(target) == document
        assert not list(tmp_path.glob("*.tmp"))

    def test_unknown_version_is_refused_loudly(self, tmp_path):
        target = tmp_path / "snap.json"
        write_snapshot(
            target,
            {"format": "repro-session-snapshot", "version": 99, "state": {}},
        )
        with pytest.raises(SnapshotUnsupportedError, match="snapshot_unsupported"):
            load_snapshot(target)

    def test_foreign_json_is_refused(self, tmp_path):
        target = tmp_path / "snap.json"
        target.write_text(json.dumps({"hello": "world"}))
        with pytest.raises(SnapshotUnsupportedError):
            load_snapshot(target)

    def test_corrupt_snapshot_raises_value_error(self, tmp_path):
        target = tmp_path / "snap.json"
        target.write_text("{ not json")
        with pytest.raises(ValueError):
            load_snapshot(target)


class TestSessionDurability:
    def test_empty_directory_recovers_none(self, tmp_path):
        assert SessionDurability(tmp_path).recover() is None

    def test_initialize_log_recover(self, tmp_path):
        durability = SessionDurability(tmp_path)
        durability.initialize({"name": "demo"}, {"edb": {}}, generation=0)
        for generation in (1, 2, 3):
            durability.log_commit(generation, [edge(f"a{generation}", "b")], [], 1)
        durability.close()
        recovered = SessionDurability(tmp_path).recover()
        assert recovered.generation == 0
        assert recovered.config == {"name": "demo"}
        assert [r["generation"] for r in recovered.tail] == [1, 2, 3]

    def test_log_commit_requires_an_open_log(self, tmp_path):
        with pytest.raises(SequenceDatalogError, match="not open"):
            SessionDurability(tmp_path).log_commit(1, [], [], 1)

    def test_snapshot_rotates_log_and_prunes(self, tmp_path):
        durability = SessionDurability(tmp_path)
        durability.initialize({}, {"edb": {}}, generation=0)
        generation = 0
        for round_index in range(4):
            for _ in range(3):
                generation += 1
                durability.log_commit(generation, [edge(f"a{generation}", "b")], [], 1)
            durability.snapshot({}, {"edb": {}}, generation)
        snapshots = durability.snapshot_paths()
        assert len(snapshots) == KEEP_SNAPSHOTS
        # Every kept wal file serves a kept snapshot's tail.
        oldest_kept = snapshots[0][0]
        assert all(base >= oldest_kept for base, _path in durability.wal_paths())
        recovered = SessionDurability(tmp_path).recover()
        assert recovered.generation == generation
        assert recovered.tail == []
        durability.close()

    def test_recovery_falls_back_over_a_corrupt_newest_snapshot(self, tmp_path):
        durability = SessionDurability(tmp_path)
        durability.initialize({}, {"stamp": "old"}, generation=0)
        for generation in (1, 2):
            durability.log_commit(generation, [edge(f"a{generation}", "b")], [], 1)
        durability.snapshot({}, {"stamp": "new"}, 2)
        durability.log_commit(3, [edge("a3", "b")], [], 1)
        durability.close()
        newest = durability.snapshot_paths()[-1][1]
        newest.write_text("{ corrupt")
        recovered = SessionDurability(tmp_path).recover()
        # Fell back to the generation-0 snapshot; the old wal still holds
        # records 1..3, contiguous from there — nothing acked is lost.
        assert recovered.generation == 0
        assert recovered.state == {"stamp": "old"}
        assert [r["generation"] for r in recovered.tail] == [1, 2, 3]

    def test_all_snapshots_corrupt_is_a_loud_error(self, tmp_path):
        durability = SessionDurability(tmp_path)
        durability.initialize({}, {}, generation=0)
        durability.close()
        for _generation, snap_path in durability.snapshot_paths():
            snap_path.write_text("{ corrupt")
        with pytest.raises(SequenceDatalogError, match="corrupt"):
            SessionDurability(tmp_path).recover()

    def test_unknown_version_snapshot_refuses_instead_of_falling_back(self, tmp_path):
        # A parseable-but-newer snapshot must NOT silently fall back to the
        # older one — that would resurrect stale state as if it were current.
        durability = SessionDurability(tmp_path)
        durability.initialize({}, {"stamp": "old"}, generation=0)
        durability.log_commit(1, [edge("a", "b")], [], 1)
        durability.snapshot({}, {"stamp": "new"}, 1)
        durability.close()
        newest = durability.snapshot_paths()[-1][1]
        document = json.loads(newest.read_text())
        document["version"] = 99
        newest.write_text(json.dumps(document))
        with pytest.raises(SnapshotUnsupportedError):
            SessionDurability(tmp_path).recover()

    def test_open_for_append_recreates_a_missing_rotated_log(self, tmp_path):
        # Crash window: snapshot written, log rotation not yet performed.
        durability = SessionDurability(tmp_path)
        durability.initialize({}, {}, generation=0)
        durability.log_commit(1, [edge("a", "b")], [], 1)
        durability.snapshot({}, {}, 1)
        durability.close()
        for _base, wal_path in durability.wal_paths():
            wal_path.unlink()
        resumed = SessionDurability(tmp_path)
        assert resumed.recover().generation == 1
        resumed.open_for_append()
        resumed.log_commit(2, [edge("b", "c")], [], 1)
        resumed.close()
        assert [r["generation"] for r in SessionDurability(tmp_path).recover().tail] == [2]

    def test_tail_stops_at_a_generation_gap(self, tmp_path):
        durability = SessionDurability(tmp_path)
        durability.initialize({}, {}, generation=0)
        durability.log_commit(1, [edge("a", "b")], [], 1)
        durability.log_commit(3, [edge("c", "d")], [], 1)  # 2 is missing
        durability.close()
        recovered = SessionDurability(tmp_path).recover()
        assert [r["generation"] for r in recovered.tail] == [1]



class TestWriterLock:
    def test_one_writer_per_directory_and_readers_take_no_lock(self, tmp_path):
        writer = SessionDurability(tmp_path)
        writer.initialize({}, {}, generation=0)
        writer.open_for_append()  # already the writer: a no-op
        writer.log_commit(1, [edge("a", "b")], [], 1)
        rival = SessionDurability(tmp_path)
        with pytest.raises(DirectoryInUseError):
            rival.open_for_append()
        with pytest.raises(DirectoryInUseError):
            rival.initialize({}, {}, generation=0)
        assert [r["generation"] for r in rival.recover().tail] == [1]
        writer.close()
        rival.open_for_append()
        rival.log_commit(2, [edge("b", "c")], [], 1)
        rival.close()
        assert [r["generation"] for r in SessionDurability(tmp_path).recover().tail] == [1, 2]
