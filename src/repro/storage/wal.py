"""Write-ahead logging and REDO.

Every commit is appended to the log before it is acknowledged; redo
applies only commits that reached stable storage -- the "recovery"
service section 2 requires of the MDM.  What a record does to a table
is decided in one place, :class:`RedoApplier`, fed by crash recovery
(:func:`replay`) from the file and by a replica from shipped frames, so
a replica's state is by construction what the primary would recover.

A record is ``<length:I><crc32:I><payload>``, CRC over the payload.  A
scan stops at the first torn or checksum-failing frame: open cuts the
live segment there and refuses a sealed one -- the valid prefix *is*
the log; kept, a corrupt record would hide the ones behind it while
their LSNs stayed on disk (``_scan``).  The payload, little-endian::

    payload := <lsn:Q> <kind:B> run*          a CHECKPOINT has no runs
    run     := <op:B> <name:H> <size:I> name body
    body    := a row run (_INSTALL_RUN: repro.storage.row)
             | <rowid:q>*                     (_REMOVE_RUN)
             | <seq:q> <result:q>             (_REQUEST_RUN)

A ``COMMIT`` is one whole commit -- a transaction's, a statement's or a
bulk batch's, from ``TransactionManager._publish`` -- its changes in
order, consecutive ones of one table and kind folded into a run.  A
remote write's commit ends with one ``_REQUEST_RUN``, whose name is the
client's id: the request it answers and its result, what the database's
exactly-once ledger (``Database.ledger``) holds for that client from
this commit on.  A ``CHECKPOINT`` is a checkpoint's marker.  So a
commit lands whole or not at all, and the durable prefix --
``flushed_lsn``, every ``stream_frames`` batch, every snapshot and seed
LSN -- ends between commits.  A segment opens with :data:`LOG_HEADER`,
magic and format byte: a log of any other format is refused, never
misread.
"""

import contextlib
import itertools
import logging
import os
import re
import struct
import threading
import time
import zlib

from repro.errors import RecoveryError, ReplicationError
from repro.obs.metrics import MetricsRegistry
from repro.storage.faults import fsync_directory, fsync_file
from repro.storage.row import decode_row_run, encode_row_run

logger = logging.getLogger(__name__)

# Record kinds.  Every other number is retired: no writer emits it.
COMMIT = 5
CHECKPOINT = 7

#: The log's format number, and the bytes every log file begins with.
LOG_FORMAT = 6
LOG_HEADER = b"MDM-WAL" + bytes((LOG_FORMAT,))

#: Frame header: payload length, CRC32 of the payload.
_FRAME = struct.Struct("<II")
#: Payload head: LSN, kind.  Run head: what it does, name and body sizes.
_HEAD = struct.Struct("<QB")
_RUN = struct.Struct("<BHI")
#: A request run's body: the request's seq, its result.
_REQUEST = struct.Struct("<qq")
# What a run does: install its rows, delete its rowids, or answer a
# client's request.
_INSTALL_RUN = 0
_REMOVE_RUN = 1
_REQUEST_RUN = 2


def _encode_runs(changes, schemas, out):
    """Append a commit's runs (module docstring) to the bytearray *out*:
    *changes* are the journal's ``(action, table, new_row, old_row)``;
    the rows of a table are encoded by ``schemas[table]``.
    Written in place, so a large commit is held once, not per run."""
    for (removes, table), group in itertools.groupby(
        changes, key=lambda change: (change[0] == "delete", change[1])
    ):
        name = table.encode("utf-8")
        head = len(out)
        out += bytes(_RUN.size) + name
        if removes:
            rowids = [old_row.rowid for _, _, _, old_row in group]
            out += struct.pack("<%dq" % len(rowids), *rowids)
            op = _REMOVE_RUN
        else:
            rows = [new_row for _, _, new_row, _ in group]
            encode_row_run(rows, schemas[table], out)
            op = _INSTALL_RUN
        size = len(out) - head - _RUN.size - len(name)
        _RUN.pack_into(out, head, op, len(name), size)


class WriteAheadLog:
    """Append-only, checksummed log file with leader/follower group commit.

    *opener* is an injectable binary-mode substitute for :func:`open`
    (see :mod:`repro.storage.faults`); production code passes nothing.

    *path* is the live segment, which :meth:`rolled` seals as
    ``<path>.<last LSN>``; open cuts its torn or corrupt tail, so LSN
    assignment continues past every record that could ever be replayed.
    *base_lsn* is the LSN the checkpoint image holds (0: none); open and
    :meth:`drop_through` delete the segments it holds.  Assignment
    continues past it too, so LSNs stay monotone across checkpoints and
    a WAL-shipping replica can order records across them.

    **Group commit.**  A committing transaction appends its frame and
    then calls :meth:`commit_flush` with its LSN.
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
    make its failed neighbour's frame durable.  Nothing acknowledged
    lies past the byte offset the last successful fsync covered;
    :meth:`discard_unsynced` cuts the file back to it and lifts the
    poison.
    """

    def __init__(self, path, base_lsn=0, opener=None, metrics=None):
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
        self._rolls = metrics.counter("wal.rolls")
        # Group-commit accounting: fsyncs issued by commit flushes,
        # commits acknowledged by another thread's fsync, the
        # amortization ratio (the first two's, computed when read), and
        # how long followers waited.
        self._group_commits = metrics.counter("wal.group_commits")
        self._group_riders = metrics.counter("wal.group_commit_riders")
        self._commits_synced = metrics.counter("wal.commits_synced")
        metrics.ratio(
            "wal.commits_per_fsync", self._commits_synced, self._group_commits
        )
        self._flush_waits = metrics.histogram("wal.flush_wait_seconds")
        # Serializes appends and fsyncs.  Re-entrant: a committer holds
        # it over its append and its stamps (TransactionManager._publish).
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
        # fsync covered (see discard_unsynced).  _end is the live
        # segment's length, counted as frames are written: every write
        # lands there, so no append or fsync asks the file for it.
        self._poison = None
        self.base_lsn = base_lsn
        directory, name = os.path.split(path)
        # The sealed segments, oldest first, as (last LSN, path).
        self._sealed = sorted(
            (int(entry[len(name) + 1:]), os.path.join(directory, entry))
            for entry in os.listdir(directory or os.curdir)
            if re.fullmatch(re.escape(name) + r"\.[0-9]{1,20}", entry)
        )
        self.drop_through(base_lsn)
        self._file = self._opener(path, "ab+")
        if self._file.seek(0, os.SEEK_END) < len(LOG_HEADER):
            # New, or cut while its header was first written: nothing in
            # it was ever durable.  The first fsync makes the header so.
            self._file.truncate(0)
            self._file.write(LOG_HEADER)
        entries, valid_end, corruption = self._scan()
        # The valid prefix, kept until replay takes it: an open reads
        # each segment once.
        self._opened = entries
        self._synced_end = self._end = valid_end
        max_lsn = changed = base_lsn
        for entry in entries:
            max_lsn = max(max_lsn, entry[0])
            if entry[1] != CHECKPOINT:
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

    def append(self, flush=False):
        """Append a ``CHECKPOINT`` marker; returns its LSN."""
        with self._mutex:
            lsn = self._next_lsn
            self._next_lsn += 1
            self._append_frame(_HEAD.pack(lsn, CHECKPOINT))
        # The flush happens outside the mutex: waiting on a flush
        # ticket while holding the append mutex would deadlock against
        # the leader, which needs the mutex to fsync.
        if flush:
            self.sync_to(lsn)
        return lsn

    def append_batch(self, changes, schemas, request=None):
        """Append one commit: a ``COMMIT`` frame holding *changes*
        (``(action, table, new_row, old_row)`` in order; the rows of a
        table encoded by ``schemas[table]``) and, where given, the
        *request* ``(client, seq, result)`` it answers; returns its LSN.
        Recovery replays the frame whole or, torn, not at all."""
        payload = bytearray(_HEAD.size)
        _encode_runs(changes, schemas, payload)
        if request is not None:
            client, seq, result = request
            name = client.encode("utf-8")
            payload += _RUN.pack(_REQUEST_RUN, len(name), _REQUEST.size)
            payload += name + _REQUEST.pack(seq, result)
        with self._mutex:
            lsn = self._next_lsn
            self._next_lsn += 1
            _HEAD.pack_into(payload, 0, lsn, COMMIT)
            self._append_frame(payload)
            self._change_lsn = lsn
        return lsn

    def _refuse_if_poisoned(self):
        if self._poison is not None:
            raise OSError(
                "log refuses writes until cut back to its last fsync; "
                "it failed with: %s" % (self._poison,)
            ) from self._poison

    def _append_frame(self, payload):
        self._refuse_if_poisoned()
        frame = _FRAME.pack(len(payload), zlib.crc32(payload) & 0xFFFFFFFF)
        size = len(frame) + len(payload)
        try:
            self._file.write(frame + payload)
        except OSError as exc:
            self._poison = exc
            raise
        self._end += size
        self._appends.inc()
        self._append_bytes.inc(size)

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
            fsync_file(self._file)
        except OSError as exc:
            self._poison = exc
            raise
        self._fsyncs.inc()
        self._synced_end = self._end
        self._synced_change_lsn = self._change_lsn
        with self._flush_cond:
            if target > self._flushed_lsn:
                self._flushed_lsn = target
            self._flush_cond.notify_all()
        return target

    @contextlib.contextmanager
    def rolled(self):
        """Seal the live segment in one short hold of the append mutex;
        yields the LSN of its last frame.

        The log is fsynced and renamed ``<path>.<LSN>``, and a new live
        segment's header and the directory are fsynced before the block
        runs, before any commit is acknowledged into it; a segment of no
        frames stays live.  In the block the LSN lies between
        transactions and is ``last_lsn``, ``flushed_lsn`` and
        ``change_lsn`` (what an open past an image at it computes).  A
        roll that fails part-way poisons the log.  The block must not
        call :meth:`sync_to` (``flush``, ``append(flush=True)``): a
        group-commit leader may already be parked on the mutex, and a
        ticket wait for it from inside the hold would never end.
        """
        with self._mutex:
            lsn = self._fsync_locked()
            if self._synced_end > len(LOG_HEADER):
                sealed = "%s.%020d" % (self.path, lsn)
                try:
                    os.rename(self.path, sealed)
                    self._sealed.append((lsn, sealed))
                    self._start_segment()
                except OSError as exc:
                    self._poison = exc
                    raise
            self._change_lsn = self._synced_change_lsn = lsn
            yield lsn

    def _start_segment(self):
        """A roll's second half, redone by :meth:`discard_unsynced` if it
        failed: a new live segment, its header and directory durable."""
        self._synced_end = 0  # until the header is durable
        self._file.close()
        self._file = self._opener(self.path, "wb+")
        self._file.write(LOG_HEADER)
        fsync_file(self._file)
        fsync_directory(os.path.dirname(self.path) or os.curdir)
        self._fsyncs.inc()
        self._rolls.inc()
        self._synced_end = self._end = len(LOG_HEADER)

    def drop_through(self, lsn):
        """Make *lsn*, which a durable image holds, the base, and delete
        the sealed segments holding no record above it.  A segment a
        crash keeps is deleted by the next open."""
        with self._mutex:
            self.base_lsn = max(self.base_lsn, lsn)
            while self._sealed and self._sealed[0][0] <= self.base_lsn:
                os.remove(self._sealed.pop(0)[1])

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
            if self._synced_end < len(LOG_HEADER):  # a roll failed
                self._start_segment()
            else:
                # A segment a roll began is not in append mode: its
                # next write lands where the cut puts the cursor.
                self._file.truncate(self._synced_end)
                self._file.seek(self._synced_end)
                fsync_file(self._file)
                self._fsyncs.inc()
                self._end = self._synced_end
            self._next_lsn = self._flushed_lsn + 1
            self._change_lsn = self._synced_change_lsn
            self._poison = None

    def commit_flush(self, lsn, deadline=None):
        """Group-commit barrier: make the commit at *lsn* durable.

        Exactly :meth:`sync_to` plus the commit-amortization counts
        ``wal.commits_per_fsync`` is read from.
        """
        role = self.sync_to(lsn, deadline=deadline)
        self._commits_synced.inc()
        if role == "led":
            self._group_commits.inc()
        else:
            self._group_riders.inc()
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
        below the base -- those records may live only in the checkpoint
        image, so the consumer must re-seed from a snapshot.
        """
        with contextlib.ExitStack() as stack:
            with self._mutex:
                if from_lsn <= self.base_lsn:
                    raise ReplicationError(
                        "records from LSN %d dropped (base LSN %d); "
                        "re-seed from a checkpoint" % (from_lsn, self.base_lsn)
                    )
                # A sealed segment never changes and the live one only
                # grows past its last fsync: the handles are opened in
                # the hold, and the durable bytes read outside it.
                reads = [
                    (stack.enter_context(self._opener(path, "rb")), -1)
                    for last, path in self._sealed if last >= from_lsn
                ]
                live = stack.enter_context(self._opener(self.path, "rb"))
                reads.append((live, self._synced_end))
            frames = []
            for handle, size in reads:
                data = handle.read(size)
                offset = len(LOG_HEADER)
                while offset < len(data):
                    try:
                        (lsn, _, _), end = _parse_frame(data, offset)
                    except RecoveryError:
                        return frames  # damage: ship what precedes it
                    if lsn >= from_lsn:
                        frames.append((lsn, data[offset:end]))
                    offset = end
        return frames

    # -- reading ---------------------------------------------------------------

    def _scan(self):
        """Parse the log's valid prefix: the sealed segments, then the
        live one.

        Returns ``(entries, valid_end, corruption)`` where *entries* is
        a list of ``(lsn, kind, runs)`` (:func:`decode_frame`),
        *valid_end* the live segment's offset just past its last good
        record, and *corruption* why its scan stopped early (None for a
        clean log; a torn frame at the very end is normal crash residue,
        reported so the tail gets trimmed).  A sealed segment was whole
        when fsynced, so a bad frame in one, like a segment that does
        not begin with :data:`LOG_HEADER`, raises :class:`RecoveryError`.
        """
        self._file.flush()
        entries = []
        for sealed, path in self._sealed + [(None, self.path)]:
            with self._opener(path, "rb") as handle:
                data = handle.read()
            if data[:len(LOG_HEADER)] != LOG_HEADER:
                raise RecoveryError(
                    "%s is not a format-%d log (it begins %r): written by "
                    "another version of the database"
                    % (path, LOG_FORMAT, data[:len(LOG_HEADER)])
                )
            offset = len(LOG_HEADER)
            while offset < len(data):
                try:
                    record, offset = _parse_frame(data, offset)
                except RecoveryError as error:
                    if sealed is not None:
                        raise RecoveryError("%s: %s" % (path, error))
                    return entries, offset, str(error)
                entries.append(record)
        return entries, offset, None


def _parse_frame(data, offset):
    """Parse the ``<length><crc><payload>`` frame at ``data[offset:]``.

    The one frame parser: the open-time scan, the shipper and the
    replica all go through it, so they cannot disagree on which bytes
    are a valid record.  Returns ``(record, end)`` -- *record* the
    ``(lsn, kind, runs)`` of :func:`decode_frame`, *end* the offset just
    past the frame.  Raises :class:`RecoveryError` naming the defect.
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
    if length < _HEAD.size:
        raise RecoveryError("short record body at offset %d" % offset)
    lsn, kind = _HEAD.unpack_from(payload, 0)
    runs = []
    cursor = _HEAD.size
    while cursor < length:
        if cursor + _RUN.size > length:
            raise RecoveryError("torn run header at offset %d" % offset)
        op, name_len, size = _RUN.unpack_from(payload, cursor)
        cursor += _RUN.size
        body_at = cursor + name_len
        if body_at + size > length:
            raise RecoveryError("inconsistent lengths at offset %d" % offset)
        try:
            table = payload[cursor:body_at].decode("utf-8")
        except UnicodeDecodeError:
            raise RecoveryError("undecodable table name at offset %d" % offset)
        cursor = body_at + size
        runs.append((op, table, payload[body_at:cursor]))
    return (lsn, kind, runs), end


def decode_frame(frame):
    """Parse one raw on-disk frame into ``(lsn, kind, runs)``, each run
    an ``(op, table, body)`` of the module docstring's layout.

    Verifies the frame's CRC and length bookkeeping -- the integrity
    check a WAL-shipping replica runs on every received record.  Raises
    :class:`RecoveryError` on any corruption.
    """
    record, end = _parse_frame(frame, 0)
    if end != len(frame):
        raise RecoveryError(
            "frame of %d bytes carries %d more" % (end, len(frame) - end)
        )
    return record


class RedoApplier:
    """The one interpreter of log records: what each kind does to a table.

    Fed records in log order through :meth:`apply`.  A ``COMMIT``
    installs its runs in order, each with one
    ``Table.install_committed`` call, and its request run, if it has
    one, sets its client's entry in ``Database.ledger``.
    *stamp_commits* picks the LSN installed versions carry: False (crash
    recovery) LSN 0, visible to every snapshot; True (a replica serving
    pinned readers) the commit's own.

    ``applied_lsn`` is the newest record installed; one at or below it
    is skipped, so a re-shipped commit, or one a checkpoint image
    already holds, installs exactly once.  A schema change is one more
    commit: its storage catalog rows make the tables.
    """

    def __init__(self, database, stamp_commits, applied_lsn=0):
        self._database = database
        self._stamp_commits = stamp_commits
        self.applied_lsn = applied_lsn

    def apply(self, lsn, kind, runs):
        """Apply one record; True when it installed it (visibility
        advanced to *lsn*)."""
        if lsn <= self.applied_lsn:
            return False
        if kind == COMMIT:
            for op, name, body in runs:
                if op == _REQUEST_RUN:
                    self._answer(name, body)
                else:
                    self._install(lsn, op, name, body)
        elif kind == CHECKPOINT:
            # The primary pruned its version chains here; so does a
            # replica.  Recovery installs at LSN 0, without chains:
            # nothing to prune.
            if self._stamp_commits:
                self._database.prune_versions()
        else:
            raise RecoveryError("unknown log record kind %d" % kind)
        self.applied_lsn = lsn
        return True

    def _answer(self, client, body):
        if len(body) != _REQUEST.size:
            raise RecoveryError(
                "malformed request run (%d bytes) for client %r"
                % (len(body), client)
            )
        self._database.ledger[client] = _REQUEST.unpack(body)

    def _install(self, commit_lsn, op, table_name, body):
        if not self._database.has_table(table_name):
            raise RecoveryError("log references unknown table %r" % table_name)
        table = self._database.table(table_name)
        lsn = commit_lsn if self._stamp_commits else 0
        if op == _INSTALL_RUN:
            table.install_committed(lsn, decode_row_run(body, table.schema))
        elif op == _REMOVE_RUN and len(body) % 8 == 0:
            rowids = struct.unpack("<%dq" % (len(body) // 8), body)
            table.install_committed(lsn, (), rowids)
        else:
            raise RecoveryError(
                "malformed run (op %d, %d bytes) for table %r"
                % (op, len(body), table_name)
            )


def replay(log, database, applied_lsn=0):
    """Crash recovery's REDO: apply the valid prefix *log*'s open
    scanned, which it hands over once, to *database*, whose checkpoint
    image holds every commit at or below *applied_lsn*.

    Only committed work lands (see :class:`RedoApplier`); a record past
    the first torn or corrupt frame does not exist.  Returns the number
    of records read.
    """
    entries, log._opened = log._opened, None
    redo = RedoApplier(database, stamp_commits=False, applied_lsn=applied_lsn)
    for entry in entries:
        redo.apply(*entry)
    return len(entries)
