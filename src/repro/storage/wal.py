"""Write-ahead logging and REDO.

Every committed mutation is appended to the log before the transaction
acknowledges commit; redo applies only the changes of transactions whose
commit point made it to stable storage.  This is the "recovery" service
section 2 requires of the MDM.  What a record does to a table is decided
in one place, :class:`RedoApplier`, which crash recovery
(:func:`replay`) feeds from the log file and a WAL-shipping replica
feeds from shipped frames -- a replica's state is by construction what
the primary itself would recover.

On-disk framing is ``<length:I><crc32:I><payload>`` per record, where
the CRC covers the payload.  The tail scan stops at the first frame
that is torn (runs past end-of-file) or fails its checksum; everything
from that point on is discarded and, at open, physically truncated
away — the ARIES-style rule that the log's valid prefix *is* the log.
Without the truncation a corrupt record would hide every record behind
it while leaving their LSNs on disk, so a reopened log could hand out
duplicate LSNs; see ``_scan``.

A transaction reaches the log once, whole, at commit: its frames are
appended in one hold of the append mutex
(``TransactionManager._publish``) and the fsync takes the same mutex, so
the durable prefix -- ``flushed_lsn``, every ``stream_frames`` batch,
every pinned snapshot and seed LSN -- always ends between transactions.
``BEGIN`` is the first frame of such a run; ``ABORT`` is no longer
written (an abort touches no file) but, like interleaved runs, is still
read, so a log written by an earlier version recovers to the same rows.
"""

import contextlib
import logging
import os
import struct
import threading
import time
import zlib

from repro.errors import RecoveryError
from repro.obs.metrics import MetricsRegistry
from repro.storage.faults import fsync_file
from repro.storage.row import decode_row_run, encode_row_run

logger = logging.getLogger(__name__)

# Record kinds.
BEGIN = 1
INSERT = 2
UPDATE = 3
DELETE = 4
COMMIT = 5
ABORT = 6
CHECKPOINT = 7
# Self-committing change records: the record's presence in the log's
# valid prefix IS the commit point — no separate BEGIN/COMMIT frames.
# Auto-commit writes exactly one AC_* frame per statement (one frame
# where the old write path paid three), and bulk ingest writes one
# BATCH_INSERT frame per batch of rows, so a torn tail makes a whole
# batch durable or absent, never a prefix of it.
AC_INSERT = 8
AC_UPDATE = 9
AC_DELETE = 10
BATCH_INSERT = 11
# Text-index DDL records: self-committing, no row images.  The target
# is encoded in the ``table`` field as ``"table\x1fcolumn"`` (the ASCII
# unit separator cannot appear in an identifier), so the frame layout —
# and every decoder — is unchanged.  Logged *before* the in-memory
# create/drop and the catalog sidecar write, so a crash between them
# replays the DDL idempotently on recovery.
TEXT_INDEX_CREATE = 12
TEXT_INDEX_DROP = 13

#: Separator packing ``(table, column)`` into a record's table field.
TEXT_TARGET_SEP = "\x1f"

_KIND_NAMES = {
    BEGIN: "BEGIN",
    INSERT: "INSERT",
    UPDATE: "UPDATE",
    DELETE: "DELETE",
    COMMIT: "COMMIT",
    ABORT: "ABORT",
    CHECKPOINT: "CHECKPOINT",
    AC_INSERT: "AC-INSERT",
    AC_UPDATE: "AC-UPDATE",
    AC_DELETE: "AC-DELETE",
    BATCH_INSERT: "BATCH-INSERT",
    TEXT_INDEX_CREATE: "TEXT-INDEX-CREATE",
    TEXT_INDEX_DROP: "TEXT-INDEX-DROP",
}

#: Kinds whose presence alone marks their transaction committed.
SELF_COMMITTING = frozenset(
    (AC_INSERT, AC_UPDATE, AC_DELETE, BATCH_INSERT,
     TEXT_INDEX_CREATE, TEXT_INDEX_DROP)
)

#: Frame header: payload length, CRC32 of the payload.
_FRAME = struct.Struct("<II")
_BODY = struct.Struct("<QQBH I I")


class LogRecord:
    """One log entry: (lsn, txn, kind, table, row-image)."""

    __slots__ = ("lsn", "txn_id", "kind", "table", "row", "old_row")

    def __init__(self, lsn, txn_id, kind, table=None, row=None, old_row=None):
        self.lsn = lsn
        self.txn_id = txn_id
        self.kind = kind
        self.table = table
        self.row = row
        self.old_row = old_row

    def __repr__(self):
        return "LogRecord(lsn=%d, txn=%d, %s, table=%r)" % (
            self.lsn,
            self.txn_id,
            _KIND_NAMES.get(self.kind, self.kind),
            self.table,
        )


def _encode_record(record, column_orders):
    table_bytes = (record.table or "").encode("utf-8")
    if record.row is not None:
        order = column_orders[record.table]
        row_bytes = record.row.serialize(order)
    else:
        row_bytes = b""
    if record.old_row is not None:
        order = column_orders[record.table]
        old_bytes = record.old_row.serialize(order)
    else:
        old_bytes = b""
    body = _BODY.pack(
        record.lsn,
        record.txn_id,
        record.kind,
        len(table_bytes),
        len(row_bytes),
        len(old_bytes),
    )
    return body + table_bytes + row_bytes + old_bytes


class WriteAheadLog:
    """Append-only, checksummed log file with leader/follower group commit.

    *opener* is an injectable binary-mode substitute for :func:`open`
    (see :mod:`repro.storage.faults`); production code passes nothing.

    A log whose tail is torn or corrupt is truncated to its valid
    prefix at open time, so LSN assignment always continues past every
    record that could ever be replayed.  LSNs are additionally kept
    globally monotone across :meth:`truncate` (checkpoints) via a
    base-LSN sidecar file, so a WAL-shipping replica can order records
    across checkpoint generations.

    **Group commit.**  A committing transaction appends its frames (in
    one hold of the append mutex) and
    then calls :meth:`commit_flush` with its COMMIT record's LSN.
    Whichever thread reaches the flush point while no flush is in
    flight becomes the *leader*: it fsyncs once on behalf of every
    record appended so far.  Threads arriving while that fsync is in
    flight append their frames (appends and the fsync serialize on the
    log mutex, so frames queue up behind the running flush) and then
    *follow*: they block on a flush ticket — the condition variable
    plus their commit LSN — until a leader's fsync covers them.  One
    fsync thus acknowledges every transaction that arrived while the
    previous flush was in flight.

    **Failure.**  The first ``OSError`` out of a write or an fsync
    *poisons* the log: every waiting and later append and flush raises,
    so no commit can be acknowledged by a later fsync that would also
    make its failed neighbour's frames durable.  Nothing acknowledged
    lies past the byte offset the last successful fsync covered;
    :meth:`discard_unsynced` cuts the file back to it and lifts the
    poison.
    """

    def __init__(self, path, opener=None, metrics=None):
        self.path = path
        self._opener = opener if opener is not None else open
        # Durability counters ("wal.*"): appended frames/bytes and
        # barrier (fsync) counts, for the bench report and \metrics.
        if metrics is None:
            metrics = MetricsRegistry()
        self.metrics = metrics
        self._appends = metrics.counter("wal.appends")
        self._append_bytes = metrics.counter("wal.append_bytes")
        self._fsyncs = metrics.counter("wal.fsyncs")
        self._truncations = metrics.counter("wal.truncations")
        # Group-commit accounting: fsyncs issued by commit flushes,
        # commits acknowledged by another thread's fsync, the running
        # amortization ratio, and how long followers waited.
        self._group_commits = metrics.counter("wal.group_commits")
        self._group_riders = metrics.counter("wal.group_commit_riders")
        self._commits_synced = metrics.counter("wal.commits_synced")
        self._commits_per_fsync = metrics.gauge("wal.commits_per_fsync")
        self._flush_waits = metrics.histogram("wal.flush_wait_seconds")
        # Serializes appends and fsyncs.  A transaction appends all its
        # frames in one hold (re-entrant: append() takes it again
        # inside) and the fsync runs under it too, so the durable
        # prefix is always a whole number of transactions.
        self._mutex = threading.RLock()
        # Flush tickets: _flushed_lsn is the highest durable LSN;
        # _flush_leading is True while some thread's fsync is in
        # flight.  Lock order: _mutex, then the condition (an fsync
        # publishes its LSN while it still holds the mutex); a waiter
        # on the condition never holds or takes _mutex.
        self._flush_cond = threading.Condition(threading.Lock())
        self._flush_leading = False
        # Failure memory (guarded by _mutex): the first OSError a write
        # or an fsync raised, and the byte offset the last successful
        # fsync covered (see discard_unsynced).
        self._poison = None
        self._base_path = path + ".base"
        self._file = self._opener(path, "ab+")
        entries, valid_end, corruption = self._scan()
        self._synced_end = valid_end
        self.base_lsn = self._read_base_lsn()
        max_lsn = changed = self.base_lsn
        for entry in entries:
            max_lsn = max(max_lsn, entry[0])
            if entry[2] != CHECKPOINT:
                changed = max(changed, entry[0])
        self._next_lsn = max_lsn + 1
        self._flushed_lsn = max_lsn
        # See change_lsn; the second is its value at the last fsync,
        # which discard_unsynced goes back to.
        self._change_lsn = self._synced_change_lsn = changed
        if corruption is not None:
            logger.warning(
                "WAL %s: %s; truncating log to valid prefix (%d bytes)",
                path, corruption, valid_end,
            )
            self._file.seek(valid_end)
            self._file.truncate(valid_end)
            fsync_file(self._file)

    def close(self):
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False

    @property
    def last_lsn(self):
        """The highest LSN assigned so far (0 on a fresh log)."""
        return self._next_lsn - 1

    @property
    def flushed_lsn(self):
        """The highest LSN known durable (records <= this survived)."""
        return self._flushed_lsn

    @property
    def change_lsn(self):
        """The LSN of the newest record that can change a row or an
        index -- any kind but a ``CHECKPOINT`` marker -- and at least
        the base LSN, whose records live in the image.  The same number
        whether counted as the records are appended or, by the next
        open, from the file: two states of one directory with equal
        ``change_lsn`` hold the same committed rows, which is what the
        posting stream (``Database``) is matched by."""
        return self._change_lsn

    def append(self, txn_id, kind, table=None, row=None, old_row=None,
               column_orders=None, flush=False):
        """Append a record; returns its LogRecord."""
        with self._mutex:
            record = LogRecord(self._next_lsn, txn_id, kind, table, row, old_row)
            self._next_lsn += 1
            payload = _encode_record(record, column_orders or {})
            self._append_frame(payload)
            if kind != CHECKPOINT:
                self._change_lsn = record.lsn
        # The flush happens outside the mutex: waiting on a flush
        # ticket while holding the append mutex would deadlock against
        # the leader, which needs the mutex to fsync.
        if flush:
            self.sync_to(record.lsn)
        return record

    def append_batch(self, txn_id, table, rows, column_orders):
        """Append one self-committing BATCH_INSERT frame covering *rows*.

        The whole batch lands in a single checksummed frame, so crash
        recovery replays it all-or-nothing; returns its LogRecord.
        """
        table_bytes = table.encode("utf-8")
        row_bytes = b"".join(encode_row_run(rows, column_orders[table]))
        with self._mutex:
            record = LogRecord(self._next_lsn, txn_id, BATCH_INSERT, table)
            self._next_lsn += 1
            body = _BODY.pack(
                record.lsn, txn_id, BATCH_INSERT, len(table_bytes),
                len(row_bytes), 0,
            )
            self._append_frame(body + table_bytes + row_bytes)
            self._change_lsn = record.lsn
        return record

    def _refuse_if_poisoned(self):
        if self._poison is not None:
            raise OSError(
                "log refuses writes until cut back to its last fsync; "
                "it failed with: %s" % (self._poison,)
            ) from self._poison

    def _append_frame(self, payload):
        self._refuse_if_poisoned()
        frame = _FRAME.pack(len(payload), zlib.crc32(payload) & 0xFFFFFFFF)
        try:
            self._file.seek(0, os.SEEK_END)
            self._file.write(frame + payload)
        except OSError as exc:
            self._poison = exc
            raise
        self._appends.inc()
        self._append_bytes.inc(len(frame) + len(payload))

    def flush(self):
        """Make everything appended so far durable (group flush)."""
        with self._mutex:
            target = self._next_lsn - 1
        self.sync_to(target)

    def sync_to(self, lsn, deadline=None):
        """Block until every record with LSN <= *lsn* is durable.

        Returns ``"noop"`` (already durable on entry), ``"rode"``
        (another thread's fsync covered us), or ``"led"`` (this thread
        fsynced).  *deadline* (absolute ``time.monotonic``) bounds how
        long a follower waits passively: past it, the thread escalates
        to leading the next flush itself rather than queueing behind
        further rounds.  Durability is never abandoned mid-commit — an
        expired deadline shortens the wait, it does not skip the fsync.
        """
        waited = 0.0
        role = "noop"
        with self._flush_cond:
            while self._flushed_lsn < lsn:
                self._refuse_if_poisoned()
                if not self._flush_leading:
                    self._flush_leading = True
                    role = "led"
                    break
                if role == "noop":
                    role = "rode"
                timeout = 0.05
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining > 0:
                        timeout = min(timeout, remaining)
                started = time.monotonic()
                self._flush_cond.wait(timeout)
                waited += time.monotonic() - started
            if role != "led":
                if waited:
                    self._flush_waits.observe(waited)
                return role
        # Leader: fsync under the append mutex (no cond held), so the
        # durable target is exactly the frames appended before it.
        try:
            with self._mutex:
                self._fsync_locked()
        finally:
            # Success or not, free the leader slot and wake followers:
            # after a failure each surfaces the poison as its own error
            # instead of hanging on the ticket.
            with self._flush_cond:
                self._flush_leading = False
                self._flush_cond.notify_all()
        if waited:
            self._flush_waits.observe(waited)
        return "led"

    def _fsync_locked(self):
        """fsync every frame appended so far and publish its LSN as
        flushed; returns that LSN.  The caller holds ``_mutex``."""
        self._refuse_if_poisoned()
        target = self._next_lsn - 1
        try:
            end = self._file.seek(0, os.SEEK_END)
            fsync_file(self._file)
        except OSError as exc:
            self._poison = exc
            raise
        self._fsyncs.inc()
        self._synced_end = end
        self._synced_change_lsn = self._change_lsn
        with self._flush_cond:
            if target > self._flushed_lsn:
                self._flushed_lsn = target
            self._flush_cond.notify_all()
        return target

    @contextlib.contextmanager
    def quiesced(self):
        """Hold the append mutex over a log that is durable to its last
        frame; yields that frame's LSN.

        For the length of the block nothing can be appended and no
        fsync can run, so the yielded LSN stays ``last_lsn`` and
        ``flushed_lsn`` alike and lies between transactions: a
        checkpoint writes its image from a snapshot pinned there and
        truncates inside the block, and no commit point can land
        between the two.  Committers wait for the length of the block;
        pinned readers do not.  The fsync is issued here rather than
        through :meth:`sync_to`, and the block must not call ``sync_to``
        (``flush``, ``append(flush=True)``) either: a group-commit
        leader may already be parked on the mutex, and a ticket wait
        for it from inside the hold would never end.
        """
        with self._mutex:
            yield self._fsync_locked()

    def discard_unsynced(self):
        """Lift the poison by cutting the log back to its last fsync.

        Everything past that byte belongs to commits that were reported
        failed (their waiters all raised), so it must not come back at
        the next recovery; their LSNs are handed out again.  A no-op on
        a healthy log.  Raises ``OSError``, still poisoned, if the disk
        refuses the cut.  Call it once the failed commits have returned
        to their callers (``Database.exit_degraded`` does, as the
        operator's step after a repair).
        """
        with self._mutex:
            if self._poison is None:
                return
            self._file.truncate(self._synced_end)
            fsync_file(self._file)
            self._fsyncs.inc()
            self._next_lsn = self._flushed_lsn + 1
            self._change_lsn = self._synced_change_lsn
            self._poison = None

    def commit_flush(self, lsn, deadline=None):
        """Group-commit barrier: make the commit at *lsn* durable.

        Exactly :meth:`sync_to` plus the commit-amortization
        accounting behind ``wal.commits_per_fsync``.
        """
        role = self.sync_to(lsn, deadline=deadline)
        self._commits_synced.inc()
        if role == "led":
            self._group_commits.inc()
        else:
            self._group_riders.inc()
        leaders = self._group_commits.value
        if leaders:
            self._commits_per_fsync.set(self._commits_synced.value / leaders)
        return role

    # -- record streaming (WAL shipping) ----------------------------------------

    def wait_for_flushed(self, lsn, timeout=None):
        """Block until ``flushed_lsn >= lsn`` or *timeout* seconds pass.

        The tail-follow primitive for WAL shipping: a shipper that has
        sent everything durable parks here instead of polling the file.
        Returns the flushed LSN at wake-up (the caller re-checks it).
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._flush_cond:
            while self._flushed_lsn < lsn:
                remaining = 0.05
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    remaining = min(remaining, 0.05)
                self._flush_cond.wait(remaining)
            return self._flushed_lsn

    def stream_frames(self, from_lsn):
        """Raw CRC-framed records with ``from_lsn <= lsn <= flushed_lsn``.

        Returns a list of ``(lsn, frame_bytes)`` where *frame_bytes* is
        the record exactly as framed on disk (``<length><crc><payload>``),
        so a WAL-shipping consumer can re-verify the checksum itself.
        Only durable records ship: anything past ``flushed_lsn`` might
        still be torn away by a crash, and an acknowledged replica must
        never be ahead of the primary's durable prefix.

        Raises :class:`ReplicationError` when *from_lsn* falls at or
        below the truncation base — those records now live only in the
        checkpoint image, so the consumer must re-seed from a snapshot.
        """
        from repro.errors import ReplicationError

        with self._flush_cond:
            flushed = self._flushed_lsn
        with self._mutex:
            base = self.base_lsn
            if from_lsn <= base:
                raise ReplicationError(
                    "records from LSN %d truncated away (base LSN %d); "
                    "re-seed from a checkpoint" % (from_lsn, base)
                )
            # One whole-file read under the mutex: a checkpoint
            # truncation cannot swap the file out from under the parse.
            self._file.flush()
            with self._opener(self.path, "rb") as handle:
                data = handle.read()
        frames = []
        offset = 0
        while offset < len(data):
            try:
                record, end = _parse_frame(data, offset)
            except RecoveryError:
                break  # torn tail: necessarily past flushed_lsn
            lsn = record[0]
            if lsn > flushed:
                break
            if lsn >= from_lsn:
                frames.append((lsn, data[offset:end]))
            offset = end
        return frames

    # -- reading ---------------------------------------------------------------

    def _scan(self):
        """Parse the log's valid prefix.

        Returns ``(entries, valid_end, corruption)`` where *entries* is
        a list of ``(lsn, txn, kind, table, row_bytes, old_bytes)``
        tuples, *valid_end* the byte offset just past the last good
        record, and *corruption* a message describing why the scan
        stopped early (None for a clean log; a torn frame at the very
        end of the file is normal crash residue, reported so the tail
        gets trimmed).
        """
        self._file.flush()
        with self._opener(self.path, "rb") as handle:
            data = handle.read()
        entries = []
        offset = 0
        while offset < len(data):
            try:
                record, offset = _parse_frame(data, offset)
            except RecoveryError as error:
                return entries, offset, str(error)
            entries.append(record)
        return entries, offset, None

    # -- truncation (checkpoints) ---------------------------------------------

    def _read_base_lsn(self):
        """The persisted base LSN (last LSN assigned before the most
        recent truncation), or 0 for a log that never truncated."""
        if not os.path.exists(self._base_path):
            return 0
        try:
            with self._opener(self._base_path, "rb") as handle:
                raw = handle.read()
            return int(raw.decode("ascii").strip() or "0")
        except (OSError, ValueError, UnicodeDecodeError):
            logger.warning(
                "WAL %s: unreadable base-LSN sidecar %s; assuming 0",
                self.path, self._base_path,
            )
            return 0

    def _write_base_lsn(self, base_lsn):
        """Durably publish *base_lsn* via temp + fsync + rename."""
        tmp = self._base_path + ".tmp"
        handle = self._opener(tmp, "wb")
        try:
            handle.write(("%d" % base_lsn).encode("ascii"))
            fsync_file(handle)
            self._fsyncs.inc()
        finally:
            handle.close()
        os.replace(tmp, self._base_path)

    def _fsync_directory(self):
        """Make the directory entry of the emptied log durable.

        Best-effort: platforms that cannot open a directory read-only
        (or fsync one) simply skip the barrier, matching the usual
        POSIX-vs-elsewhere handling of directory durability.
        """
        directory = os.path.dirname(os.path.abspath(self.path))
        try:
            fd = os.open(directory, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)

    def truncate(self):
        """Discard the log contents (after a checkpoint).

        Two durability obligations beyond emptying the file:

        * the emptied file (and its directory entry) is fsynced, so a
          crash right after the checkpoint cannot resurrect
          pre-checkpoint records and REDO-replay them over the newer
          checkpoint image;
        * the last assigned LSN is persisted to a sidecar first, so
          LSN assignment stays globally monotone across truncations —
          the continuity WAL-shipping replicas need.  (Sidecar before
          emptying: if the crash lands between the two, records remain
          replayable and the reopened log resumes past ``max(base,
          scanned)`` either way.)
        """
        with self._mutex:
            base_lsn = self._next_lsn - 1
            self._write_base_lsn(base_lsn)
            self.base_lsn = base_lsn
            self._file.close()
            self._file = self._opener(self.path, "wb+")
            fsync_file(self._file)
            self._fsyncs.inc()
            self._synced_end = 0
            self._change_lsn = self._synced_change_lsn = base_lsn
            self._fsync_directory()
            self._truncations.inc()
        with self._flush_cond:
            # Records <= base_lsn now live in the checkpoint image; a
            # pending commit_flush for one of them must not fsync an
            # empty file.
            if base_lsn > self._flushed_lsn:
                self._flushed_lsn = base_lsn
            self._flush_cond.notify_all()


def _parse_frame(data, offset):
    """Parse the ``<length><crc><payload>`` frame at ``data[offset:]``.

    The one frame parser: the open-time scan, the shipper and the
    replica all go through it, so they cannot disagree on which bytes
    are a valid record.  Returns ``(record, end)`` -- *record* the
    ``(lsn, txn_id, kind, table, row_bytes, old_bytes)`` fields (*table*
    ``""`` when the record names none), *end* the offset just past the
    frame.  Raises :class:`RecoveryError` naming the defect.
    """
    start = offset + _FRAME.size
    if start > len(data):
        raise RecoveryError("torn frame header at offset %d" % offset)
    length, crc = _FRAME.unpack_from(data, offset)
    end = start + length
    if end > len(data):
        raise RecoveryError("torn record at offset %d" % offset)
    payload = data[start:end]
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        raise RecoveryError("checksum mismatch at offset %d" % offset)
    if length < _BODY.size:
        raise RecoveryError("short record body at offset %d" % offset)
    lsn, txn_id, kind, table_len, row_len, old_len = _BODY.unpack_from(payload, 0)
    cursor = _BODY.size
    if cursor + table_len + row_len + old_len != length:
        raise RecoveryError("inconsistent lengths at offset %d" % offset)
    try:
        table = payload[cursor:cursor + table_len].decode("utf-8")
    except UnicodeDecodeError:
        raise RecoveryError("undecodable table name at offset %d" % offset)
    cursor += table_len
    row_bytes = payload[cursor:cursor + row_len]
    old_bytes = payload[cursor + row_len:]
    return (lsn, txn_id, kind, table, row_bytes, old_bytes), end


def decode_frame(frame):
    """Parse one raw on-disk frame into its record fields.

    Verifies the frame's CRC and length bookkeeping -- the integrity
    check a WAL-shipping replica runs on every received record -- and
    returns ``(lsn, txn_id, kind, table, row_bytes, old_bytes)``.
    Raises :class:`RecoveryError` on any corruption.
    """
    record, end = _parse_frame(frame, 0)
    if end != len(frame):
        raise RecoveryError(
            "frame of %d bytes carries %d more" % (end, len(frame) - end)
        )
    return record


class RedoApplier:
    """The one interpreter of log records: what each kind does to a table.

    Fed records in log order through :meth:`apply`.  Change frames of an
    explicit transaction are buffered until its COMMIT and dropped at
    its ABORT; a commit point -- COMMIT, a self-committing kind, text-
    index DDL, CHECKPOINT -- installs at once.  *stamp_commits* picks
    the LSN installed versions carry: False (crash recovery) installs at
    LSN 0, visible to every snapshot; True (a replica serving pinned
    readers while it applies) installs at the commit point's own LSN.

    ``applied_lsn`` is the newest commit point installed; one at or
    below it is skipped, so a feed that re-ships applied commits
    installs each exactly once.  The reader is wider than today's
    writer: transactions may interleave, a BEGIN may sit anywhere before
    its first change and an ABORT drops a buffer, as earlier versions
    wrote them.
    """

    def __init__(self, database, stamp_commits, applied_lsn=0):
        self._database = database
        self._stamp_commits = stamp_commits
        self.applied_lsn = applied_lsn
        # txn_id -> [change, ...] of its not yet committed frames
        self._buffered = {}

    def apply(self, lsn, txn_id, kind, table, row_bytes, old_bytes):
        """Apply one record; True when it installed a commit point
        (visibility advanced to *lsn*)."""
        if kind == BEGIN:
            # A fresh buffer, not the frames a crashed process left
            # under the same id: transaction ids restart with the
            # process, the log does not.
            self._buffered[txn_id] = []
            return False
        if kind in (INSERT, UPDATE, DELETE):
            self._buffered.setdefault(txn_id, []).append(
                (kind, table, row_bytes, old_bytes)
            )
            return False
        if kind == ABORT:
            self._buffered.pop(txn_id, None)
            return False
        changes = self._buffered.pop(txn_id, ())
        if lsn <= self.applied_lsn:
            return False
        if kind == COMMIT:
            for change in changes:
                self._install(lsn, *change)
        elif kind == CHECKPOINT:
            # The primary pruned its version chains here; so do we.
            self._database.prune_versions()
        elif kind in (TEXT_INDEX_CREATE, TEXT_INDEX_DROP):
            # The target rides in the table field as "table\x1fcolumn".
            # Both directions are idempotent (create returns an existing
            # index, drop of a missing one is a no-op), so the sidecar
            # or seed catalog and the log can overlap freely; a table
            # since dropped from the catalog has no index to maintain.
            name, _, column = table.partition(TEXT_TARGET_SEP)
            if self._database.has_table(name):
                target = self._database.table(name)
                if kind == TEXT_INDEX_CREATE:
                    target.create_text_index(column)
                else:
                    target.drop_text_index(column)
        elif kind in SELF_COMMITTING:
            self._install(lsn, kind, table, row_bytes, old_bytes)
        else:
            raise RecoveryError("unknown log record kind %d" % kind)
        self.applied_lsn = lsn
        return True

    def _install(self, commit_lsn, kind, table_name, row_bytes, old_bytes):
        if not self._database.has_table(table_name):
            raise RecoveryError("log references unknown table %r" % table_name)
        table = self._database.table(table_name)
        order = table.schema.column_names()
        lsn = commit_lsn if self._stamp_commits else 0
        if kind == BATCH_INSERT:
            for row in decode_row_run(row_bytes, order):
                table.install_committed(lsn, row.rowid, row)
        elif kind in (DELETE, AC_DELETE):
            (old_row,) = decode_row_run(old_bytes, order, count=1)
            table.install_committed(lsn, old_row.rowid, None)
        else:
            (row,) = decode_row_run(row_bytes, order, count=1)
            table.install_committed(lsn, row.rowid, row)

    def discard_buffered(self):
        """Forget every uncommitted transaction's frames."""
        self._buffered = {}


def replay(log, database):
    """Crash recovery's REDO: apply *log*'s valid prefix to *database*.

    Only committed work lands (see :class:`RedoApplier`); a record past
    the first torn or corrupt frame does not exist.  Returns the number
    of records read.
    """
    entries, _, corruption = log._scan()
    if corruption is not None:
        logger.warning("WAL %s: %s; replaying valid prefix only",
                       log.path, corruption)
    redo = RedoApplier(database, stamp_commits=False)
    for entry in entries:
        redo.apply(*entry)
    return len(entries)
