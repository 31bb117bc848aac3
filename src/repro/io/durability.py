"""Durability: write-ahead logging, versioned snapshots, and crash recovery.

A served session (:mod:`repro.service.core`) that dies today loses its
materialization, its answer tables, and its committed generation — everything
has to be recomputed from the uploaded program and instance.  This module
makes the session state *durable* with the classic two-file scheme:

* **Write-ahead log** (:class:`WriteAheadLog`) — an append-only file of
  length+CRC32-framed JSON records, one per committed maintenance pass (the
  *merged* batch the flusher handed to :meth:`QuerySession.update`, plus the
  generation it committed).  An append *is* write + fsync and returns before
  the pass is acknowledged to any client: the log holds every acked batch.
  Opening a log for append scans the valid prefix and truncates a torn tail
  (a frame cut short by a crash mid-write) — a half-written record was by
  construction never acked, so dropping it is exactly right.

* **Versioned snapshots** — the full session state
  (:meth:`QuerySession.export_state`: materialization rows, stratum support
  state, answer-table entries) plus the session config,
  wrapped in a ``{format, version, generation, config, state}`` document and
  written atomically (temp file → fsync → ``os.replace``).  A snapshot at
  generation *g* makes every log record ``≤ g`` redundant; writing one
  rotates the log (*snapshot-then-truncate compaction*), triggered by log
  size (:meth:`SessionDurability.should_snapshot`).

* **Recovery** (:meth:`SessionDurability.recover`) — load the newest
  *loadable* snapshot, then replay the contiguous log tail past its
  generation.  A snapshot that parses but declares an unknown format or
  version raises :class:`~repro.errors.SnapshotUnsupportedError` loudly
  (falling back would silently resurrect stale state); only a snapshot that
  is actually *corrupt* (unreadable JSON) falls back to the previous one —
  which is why compaction keeps the last two snapshots and every log file
  their tails need.  The tail is collected across *all* log files and
  required to be contiguous from the snapshot's generation, so recovery is
  correct under every compaction crash interleaving without depending on
  the pruning deletions having completed.

* **Ownership** — one writer per directory, enforced: the writer holds an
  exclusive ``flock`` on the directory's ``LOCK`` file from
  :meth:`SessionDurability.initialize` or
  :meth:`SessionDurability.open_for_append` until
  :meth:`SessionDurability.close`, and a second opener is refused with
  :class:`~repro.errors.DirectoryInUseError`.  The kernel drops the lock
  with the process's descriptors, so a killed writer's directory restores.
  :meth:`SessionDurability.recover` only reads and takes no lock.

Every filesystem mutation goes through an injectable :class:`FileSystemShim`
(``write``/``fsync``/``replace``), which is the seam the fault-injection
harness (``tests/io/test_crash_recovery.py``) uses to kill the write path at
every interesting point and assert recovery lands on an acked-prefix state.
"""

from __future__ import annotations

import fcntl
import json
import os
import struct
import zlib
from pathlib import Path
from typing import IO, Iterable, Mapping

from repro.engine.reasons import SNAPSHOT_UNSUPPORTED, reason
from repro.errors import DirectoryInUseError, SequenceDatalogError, SnapshotUnsupportedError
from repro.io.serialization import fact_from_json, fact_to_json
from repro.model.instance import Fact

__all__ = [
    "FileSystemShim",
    "RecoveredState",
    "SessionDurability",
    "WriteAheadLog",
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_VERSION",
]

#: The snapshot document's container identity and version.  ``format`` guards
#: against loading a foreign JSON file as a snapshot; ``version`` is the
#: forward-compatibility handshake — a build refuses versions it does not
#: know with :class:`SnapshotUnsupportedError` instead of guessing.
SNAPSHOT_FORMAT = "repro-session-snapshot"
SNAPSHOT_VERSION = 1
SUPPORTED_SNAPSHOT_VERSIONS = frozenset({1})

#: Log frame header: payload length + CRC-32 of the payload, little-endian.
_FRAME = struct.Struct("<II")

#: Default compaction trigger: snapshot once the live log grows past this.
DEFAULT_SNAPSHOT_WAL_BYTES = 1 << 20

#: How many snapshots compaction keeps.  Two, not one: recovery falls back to
#: the previous snapshot when the newest is unreadable, and the log files its
#: tail needs are retained alongside it.
KEEP_SNAPSHOTS = 2

#: The file whose exclusive ``flock`` makes its holder the directory's writer.
LOCK_FILE = "LOCK"


class FileSystemShim:
    """The injectable seam between durability and the filesystem.

    Production uses this default implementation; the fault-injection tests
    substitute a shim that crashes (optionally mid-write, leaving a torn
    frame) at a scripted operation index.  Only the three operations whose
    ordering carries the durability argument go through the shim — buffered
    writes, fsync barriers, and atomic renames.
    """

    def write(self, handle: "IO[bytes]", data: bytes) -> None:
        handle.write(data)

    def fsync(self, handle: "IO[bytes]") -> None:
        handle.flush()
        os.fsync(handle.fileno())

    def replace(self, source: "Path | str", target: "Path | str") -> None:
        os.replace(source, target)


def _scan_frames(data: bytes) -> "tuple[list[dict], int]":
    """Parse the valid record prefix of raw log bytes.

    Returns ``(records, valid_length)``: everything after ``valid_length``
    is a torn or garbage tail (short header, short payload, CRC mismatch,
    or unparseable JSON) and must be truncated before appending resumes.
    """
    records: "list[dict]" = []
    offset = 0
    total = len(data)
    while offset + _FRAME.size <= total:
        length, checksum = _FRAME.unpack_from(data, offset)
        start = offset + _FRAME.size
        end = start + length
        if end > total:
            break
        payload = data[start:end]
        if zlib.crc32(payload) != checksum:
            break
        try:
            record = json.loads(payload)
        except ValueError:
            break
        if not isinstance(record, dict):
            break
        records.append(record)
        offset = end
    return records, offset


class WriteAheadLog:
    """One append-only, checksummed, fsync-on-commit log file.

    Opening scans the existing file and truncates its torn tail, so a log
    that survived a crash mid-append is immediately appendable again.  Pass
    ``truncate=True`` to start empty (log rotation), and ``fsync=False`` to
    trade the per-commit barrier away (testing only — without the barrier
    an acked batch can be lost, which is the whole point of the log).
    """

    def __init__(
        self,
        path: "Path | str",
        *,
        shim: "FileSystemShim | None" = None,
        fsync: bool = True,
        truncate: bool = False,
    ):
        self.path = Path(path)
        self.shim = shim if shim is not None else FileSystemShim()
        self._fsync = fsync
        self.last_generation: "int | None" = None
        if truncate or not self.path.exists():
            self._handle: "IO[bytes]" = open(self.path, "wb")
            self.size = 0
        else:
            records, valid = _scan_frames(self.path.read_bytes())
            self._handle = open(self.path, "r+b")
            self._handle.seek(valid)
            self._handle.truncate(valid)
            self.size = valid
            if records:
                self.last_generation = int(records[-1]["generation"])

    def append(self, record: "Mapping[str, object]") -> None:
        """Frame, write, and fsync one record.

        The caller must not acknowledge the corresponding commit before this
        returns: the fsync barrier is what makes "acked" imply "durable".
        """
        payload = json.dumps(record, separators=(",", ":"), sort_keys=True).encode("utf-8")
        frame = _FRAME.pack(len(payload), zlib.crc32(payload)) + payload
        self.shim.write(self._handle, frame)
        if self._fsync:
            self.shim.fsync(self._handle)
        else:
            self._handle.flush()
        self.size += len(frame)
        generation = record.get("generation")
        if generation is not None:
            self.last_generation = int(generation)  # type: ignore[arg-type]

    @staticmethod
    def read(path: "Path | str") -> "list[dict]":
        """All valid records of a log file, tolerating a torn tail."""
        file_path = Path(path)
        if not file_path.exists():
            return []
        records, _valid = _scan_frames(file_path.read_bytes())
        return records

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()


def write_snapshot(
    path: "Path | str", document: "Mapping[str, object]", *, shim: "FileSystemShim | None" = None
) -> None:
    """Atomically persist a snapshot document (temp → fsync → replace).

    A reader never observes a half-written snapshot: either the rename
    happened (the file is complete and fsynced) or it did not (the old file,
    if any, is untouched and only a ``.tmp`` leftover remains).
    """
    shim = shim if shim is not None else FileSystemShim()
    target = Path(path)
    temp = target.with_name(target.name + ".tmp")
    payload = json.dumps(document, separators=(",", ":"), sort_keys=True).encode("utf-8")
    with open(temp, "wb") as handle:
        shim.write(handle, payload)
        shim.fsync(handle)
    shim.replace(temp, target)


def load_snapshot(path: "Path | str") -> dict:
    """Load and handshake one snapshot document.

    Raises :class:`SnapshotUnsupportedError` for a document that *parses*
    but declares an unknown format or version — the forward-compatibility
    contract — and :class:`ValueError` for one that does not parse at all
    (corruption; the caller may fall back to an older snapshot).
    """
    document = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(document, dict):
        raise ValueError(f"snapshot {path} does not hold a JSON object")
    declared_format = document.get("format")
    version = document.get("version")
    if declared_format != SNAPSHOT_FORMAT or version not in SUPPORTED_SNAPSHOT_VERSIONS:
        raise SnapshotUnsupportedError(
            reason(
                SNAPSHOT_UNSUPPORTED,
                f"snapshot {Path(path).name} declares format {declared_format!r} "
                f"version {version!r}; this build reads {SNAPSHOT_FORMAT!r} versions "
                f"{sorted(SUPPORTED_SNAPSHOT_VERSIONS)} — refusing to guess",
            )
        )
    return document


def _generation_of(path: Path, prefix: str) -> "int | None":
    stem = path.name
    if not stem.startswith(prefix):
        return None
    body = stem[len(prefix) :].split(".", 1)[0]
    try:
        return int(body)
    except ValueError:
        return None


class RecoveredState:
    """What :meth:`SessionDurability.recover` found on disk.

    ``config`` and ``state`` come from the loaded snapshot (taken at
    ``generation``); ``tail`` is the contiguous list of log records with
    generations ``generation+1 …`` that must be replayed through the normal
    maintenance path to reach the durable frontier.
    """

    __slots__ = ("config", "state", "generation", "tail")

    def __init__(self, config: dict, state: dict, generation: int, tail: "list[dict]"):
        self.config = config
        self.state = state
        self.generation = generation
        self.tail = tail

    def __repr__(self) -> str:
        return (
            f"RecoveredState(generation={self.generation}, "
            f"tail={len(self.tail)} records)"
        )


def encode_commit(
    generation: int,
    additions: "Iterable[Fact]",
    retractions: "Iterable[Fact]",
    batches: int,
) -> dict:
    """The log record for one committed (merged) maintenance pass."""
    return {
        "generation": generation,
        "additions": [fact_to_json(fact) for fact in additions],
        "retractions": [fact_to_json(fact) for fact in retractions],
        "batches": batches,
    }


def decode_commit(record: "Mapping[str, object]") -> "tuple[int, list[Fact], list[Fact], int]":
    """Decode a record written by :func:`encode_commit`."""
    return (
        int(record["generation"]),  # type: ignore[arg-type]
        [fact_from_json(fact) for fact in record.get("additions", ())],  # type: ignore[union-attr]
        [fact_from_json(fact) for fact in record.get("retractions", ())],  # type: ignore[union-attr]
        int(record.get("batches", 1)),  # type: ignore[arg-type]
    )


class SessionDurability:
    """One session's durable directory: ``snapshot-<gen>.json`` + ``wal-<gen>.log``.

    The log file is named by the snapshot generation it extends, so the pair
    a recovery needs is self-describing.  Construction only binds the
    directory; the two writer entry modes are explicit, and both take the
    directory's writer lock:

    * :meth:`initialize` — fresh session: write the initial snapshot and
      open a fresh log (the create path);
    * :meth:`open_for_append` + :meth:`recover` — restart: claim the
      directory, load state, then resume logging where the previous writer
      stopped.

    :meth:`recover` alone is a lock-free read.
    """

    def __init__(
        self,
        directory: "Path | str",
        *,
        fsync: bool = True,
        snapshot_wal_bytes: int = DEFAULT_SNAPSHOT_WAL_BYTES,
        shim: "FileSystemShim | None" = None,
    ):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.shim = shim if shim is not None else FileSystemShim()
        self.fsync = fsync
        self.snapshot_wal_bytes = snapshot_wal_bytes
        self._wal: "WriteAheadLog | None" = None
        self._lock: "IO[bytes] | None" = None
        #: Counters surfaced by the service stats endpoint.
        self.snapshots_written = 0
        self.records_logged = 0

    # -- directory layout ---------------------------------------------------------------

    def snapshot_paths(self) -> "list[tuple[int, Path]]":
        """``(generation, path)`` of every snapshot file, ascending."""
        found = []
        for path in self.directory.glob("snapshot-*.json"):
            generation = _generation_of(path, "snapshot-")
            if generation is not None:
                found.append((generation, path))
        return sorted(found)

    def wal_paths(self) -> "list[tuple[int, Path]]":
        """``(base generation, path)`` of every log file, ascending."""
        found = []
        for path in self.directory.glob("wal-*.log"):
            generation = _generation_of(path, "wal-")
            if generation is not None:
                found.append((generation, path))
        return sorted(found)

    @property
    def wal_bytes(self) -> int:
        return self._wal.size if self._wal is not None else 0

    # -- writer side --------------------------------------------------------------------

    def _claim(self) -> None:
        """Take the directory's writer lock, or raise :class:`DirectoryInUseError`.

        A non-blocking exclusive ``flock``, held until :meth:`close`; taking
        it twice is a no-op.  Two opens of the lock file conflict even within
        one process, and the kernel releases it when the holder dies.
        """
        if self._lock is not None:
            return
        handle = open(self.directory / LOCK_FILE, "ab")
        try:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            handle.close()
            raise DirectoryInUseError(
                f"{self.directory} already has a writer (its {LOCK_FILE} is held)"
            ) from None
        self._lock = handle

    def initialize(self, config: dict, state: dict, generation: int = 0) -> None:
        """Claim the directory and persist a fresh session: initial snapshot + empty log."""
        self._claim()
        try:
            self._write_snapshot(config, state, generation)
        except BaseException:
            self.close()
            raise

    def log_commit(
        self,
        generation: int,
        additions: "Iterable[Fact]",
        retractions: "Iterable[Fact]",
        batches: int,
    ) -> None:
        """Append one committed pass; returns only after the fsync barrier."""
        if self._wal is None:
            raise SequenceDatalogError(
                "the write-ahead log is not open for append (initialize, or "
                "recover + open_for_append, first)"
            )
        self._wal.append(encode_commit(generation, additions, retractions, batches))
        self.records_logged += 1

    def should_snapshot(self) -> bool:
        """Whether the live log has grown past the compaction trigger."""
        return self._wal is not None and self._wal.size >= self.snapshot_wal_bytes

    def snapshot(self, config: dict, state: dict, generation: int) -> None:
        """Snapshot-then-truncate compaction: persist state, rotate the log.

        Ordering is the correctness argument: the new snapshot lands
        atomically *first*, then the log rotates, then old files are pruned
        best-effort.  A crash anywhere in between leaves either the old
        snapshot+log pair intact or the new pair recoverable — recovery
        filters records by generation across all log files, so a surviving
        stale log never resurrects pre-snapshot state.
        """
        self._write_snapshot(config, state, generation)

    def _write_snapshot(self, config: dict, state: dict, generation: int) -> None:
        document = {
            "format": SNAPSHOT_FORMAT,
            "version": SNAPSHOT_VERSION,
            "generation": generation,
            "config": dict(config),
            "state": state,
        }
        write_snapshot(
            self.directory / f"snapshot-{generation:012d}.json", document, shim=self.shim
        )
        if self._wal is not None:
            self._wal.close()
        self._wal = WriteAheadLog(
            self.directory / f"wal-{generation:012d}.log",
            shim=self.shim,
            fsync=self.fsync,
            truncate=True,
        )
        self.snapshots_written += 1
        self._prune()

    def _prune(self) -> None:
        """Best-effort deletion of snapshots/logs no recovery can need.

        Keeps the last :data:`KEEP_SNAPSHOTS` snapshots and every log file
        whose records any kept snapshot's tail could still want.  Deletion
        failures are ignored — a leftover file only wastes disk; recovery
        filters by generation and never trusts pruning to have run.
        """
        snapshots = self.snapshot_paths()
        kept = snapshots[-KEEP_SNAPSHOTS:]
        oldest_kept = kept[0][0] if kept else 0
        doomed = [path for generation, path in snapshots[:-KEEP_SNAPSHOTS]]
        doomed += [path for generation, path in self.wal_paths() if generation < oldest_kept]
        doomed += list(self.directory.glob("*.tmp"))
        for path in doomed:
            try:
                path.unlink()
            except OSError:
                pass

    # -- recovery -----------------------------------------------------------------------

    def recover(self) -> "RecoveredState | None":
        """Load the newest loadable snapshot plus its contiguous log tail.

        ``None`` when the directory holds no snapshot at all (nothing was
        ever initialized — a crash before the first snapshot completed
        leaves at most a ``.tmp``, and no batch can have been acked).
        Unknown-version snapshots raise :class:`SnapshotUnsupportedError`
        (see :func:`load_snapshot`); corrupt ones fall back to the previous
        snapshot, and a directory whose every snapshot is corrupt raises a
        plain :class:`SequenceDatalogError` naming the files.
        """
        snapshots = self.snapshot_paths()
        if not snapshots:
            return None
        document = None
        generation = 0
        corrupt: "list[str]" = []
        for snap_generation, path in reversed(snapshots):
            try:
                document = load_snapshot(path)
            except ValueError:
                corrupt.append(path.name)
                continue
            generation = snap_generation
            break
        if document is None:
            raise SequenceDatalogError(
                f"no loadable snapshot in {self.directory}: "
                f"{', '.join(corrupt)} are corrupt"
            )
        tail = self._tail_after(generation)
        return RecoveredState(
            dict(document.get("config", {})),
            dict(document.get("state", {})),
            generation,
            tail,
        )

    def _tail_after(self, generation: int) -> "list[dict]":
        """Records past *generation*, collected across all logs, contiguous.

        Pruning may or may not have run; duplicate generations (the writer
        lock rules them out; defended anyway) keep the first occurrence.
        """
        records: "dict[int, dict]" = {}
        for _base, path in self.wal_paths():
            for record in WriteAheadLog.read(path):
                record_generation = int(record.get("generation", -1))
                if record_generation > generation:
                    records.setdefault(record_generation, record)
        tail: "list[dict]" = []
        expected = generation + 1
        while expected in records:
            tail.append(records[expected])
            expected += 1
        return tail

    def open_for_append(self) -> None:
        """Claim the directory and resume logging (restart).

        Attaches to the newest log file — truncating its torn tail — or
        creates one at the newest snapshot's generation when the rotation
        crashed between snapshot and log creation.  Called before
        :meth:`recover`, so a refused opener reads nothing.
        """
        if self._wal is not None:
            return
        self._claim()
        wals = self.wal_paths()
        if wals:
            path = wals[-1][1]
        else:
            snapshots = self.snapshot_paths()
            base = snapshots[-1][0] if snapshots else 0
            path = self.directory / f"wal-{base:012d}.log"
        self._wal = WriteAheadLog(path, shim=self.shim, fsync=self.fsync)

    def close(self) -> None:
        """Close the log and release the writer lock."""
        if self._wal is not None:
            self._wal.close()
            self._wal = None
        if self._lock is not None:
            self._lock.close()  # closing the descriptor drops the flock
            self._lock = None

