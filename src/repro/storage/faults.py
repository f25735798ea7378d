"""Deterministic fault injection for the durability stack.

The WAL and the files the database publishes whole (the checkpoint
image, the posting stream) are opened through an injectable *opener*
(any callable with the signature of :func:`open` restricted to binary
modes).  Production runs pass nothing and get real files; crash tests
pass ``FaultPlan.opener`` and get :class:`FaultyFile` wrappers that
model a power failure precisely:

* every byte written goes straight to the OS file (so concurrent
  readers of the same path observe it), **but** bytes written since the
  last ``fsync`` are tracked as *pending* — not yet durable;
* at the simulated crash point the plan rolls every open file back to
  its last-synced image plus a seeded-random **prefix** of its pending
  bytes (the classic torn-write model for sequential logs), then raises
  :class:`SimulatedCrash`; afterwards every file operation raises, as
  if the process had died;
* the plan can also inject short reads (a read returns fewer bytes
  than available) and bit corruption on the read path, both keyed off
  deterministic counters so a failing schedule replays exactly.

Syncpoints are counted across *all* files opened through one plan, so
``crash_at_sync=k`` means "power fails during the k-th fsync anywhere
in the database" — the granularity the crash-consistency oracle
enumerates.

Limitations (documented, deliberate): ``os.replace`` and open-time
truncation (``"w"`` modes) are modelled as atomic and immediately
durable -- what a rename followed by :func:`fsync_directory` gives on
POSIX -- so a directory fsync is no syncpoint; pending writes tear as
a prefix rather than in arbitrary order.
"""

import os
import random


def _as_frame_set(spec):
    """Normalize a frame-fault spec (None, int, or iterable) to a frozenset."""
    if spec is None:
        return frozenset()
    if isinstance(spec, int):
        return frozenset((spec,))
    return frozenset(spec)


class SimulatedCrash(Exception):
    """The simulated power failure.

    Deliberately *not* an :class:`repro.errors.MDMError`: nothing in the
    production stack may catch it, exactly as nothing catches a power
    cut.  Crash harnesses catch it, discard the in-memory database, and
    reopen from disk to exercise recovery.
    """


def fsync_file(handle):
    """Flush *handle* to stable storage.

    Files from :class:`FaultPlan.opener` expose ``fsync()`` (a plan
    syncpoint); plain files get ``flush`` + ``os.fsync``.  Every file
    durability barrier goes through here so fault plans see each one.
    """
    fsync = getattr(handle, "fsync", None)
    if fsync is not None:
        fsync()
        return
    handle.flush()
    os.fsync(handle.fileno())


def fsync_directory(path):
    """Make the entries of directory *path* durable: POSIX makes a
    rename durable only once its directory is fsynced.  Best-effort: a
    platform that cannot open or fsync a directory skips the barrier."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


class FaultPlan:
    """A seeded, reproducible schedule of storage faults.

    Parameters
    ----------
    seed:
        Seeds the RNG that picks torn-write boundaries; the same seed
        and schedule produce byte-identical post-crash files.
    crash_at_sync:
        Power fails during the Nth (1-based) fsync across all files.
    crash_at_write:
        Power fails immediately after the Nth write call (its bytes
        join the pending pool and may partially survive).
    torn:
        ``"random"`` keeps a seeded-random prefix of each file's
        pending bytes at the crash, ``"all"`` keeps everything (crash
        just after the data hit the platter), ``"none"`` keeps nothing.
    short_reads:
        Mapping of read index (1-based, plan-wide) to the maximum byte
        count that read may return.
    bit_flips:
        Iterable of ``(path_fragment, offset, mask)``: reads from a
        file whose path contains *path_fragment* that cover absolute
        *offset* come back with that byte XOR *mask* — media corruption
        on the read path, without touching the real file.
    io_error_at_write / io_error_at_sync:
        Unlike a crash, an **I/O failure** leaves the process alive: from
        the Nth write (or fsync) on, every write-path operation raises
        ``OSError`` while reads keep working — the disk-full /
        remounted-read-only failure the degraded-mode service path
        handles.  The error is persistent (real disks rarely heal
        mid-run) until :meth:`heal_io` is called.
    disconnect_at_frame / partial_send_at / stall_at_frame:
        Wire faults, consumed by :class:`repro.net.transport.FaultyTransport`.
        Frames sent through any faulty transport under this plan are
        counted plan-wide (1-based, like syncpoints); each parameter is
        an int or a collection of ints naming frames to fault.  A
        *disconnect* tears the connection before the frame's bytes go
        out; a *partial send* writes a seeded-random strict prefix of
        the frame and then tears the connection (the peer sees a torn
        or checksum-failing frame, the wire analogue of a torn WAL
        record); a *stall* sleeps ``stall_seconds`` before sending, so
        deadline handling on the peer must engage.
    net_error_at_frame:
        From the Nth frame on, every send fails — a persistent
        partition, the wire analogue of ``io_error_at_write`` — until
        :meth:`heal_net` is called.
    """

    def __init__(self, seed=0, crash_at_sync=None, crash_at_write=None,
                 torn="random", short_reads=None, bit_flips=(),
                 io_error_at_write=None, io_error_at_sync=None,
                 disconnect_at_frame=None, partial_send_at=None,
                 stall_at_frame=None, stall_seconds=0.05,
                 net_error_at_frame=None):
        if torn not in ("random", "all", "none"):
            raise ValueError("torn must be 'random', 'all', or 'none'")
        self.seed = seed
        self.random = random.Random(seed)
        self.crash_at_sync = crash_at_sync
        self.crash_at_write = crash_at_write
        self.torn = torn
        self.short_reads = dict(short_reads or {})
        self.bit_flips = list(bit_flips)
        self.io_error_at_write = io_error_at_write
        self.io_error_at_sync = io_error_at_sync
        self.disconnect_at_frame = _as_frame_set(disconnect_at_frame)
        self.partial_send_at = _as_frame_set(partial_send_at)
        self.stall_at_frame = _as_frame_set(stall_at_frame)
        self.stall_seconds = stall_seconds
        self.net_error_at_frame = net_error_at_frame
        self.sync_count = 0
        self.write_count = 0
        self.read_count = 0
        self.frame_count = 0
        self.crashed = False
        self.io_failing = False
        self.net_failing = False
        self._files = []

    # -- the injectable opener ------------------------------------------------

    @property
    def opener(self):
        """A binary-mode ``open`` substitute producing FaultyFiles."""
        def _open(path, mode="rb"):
            return FaultyFile(path, mode, self)
        return _open

    # -- hooks called by FaultyFile ------------------------------------------

    def _register(self, faulty):
        self._files.append(faulty)

    def _check_alive(self):
        if self.crashed:
            raise SimulatedCrash("operation after simulated crash")

    def _on_write(self, faulty):
        self.write_count += 1
        if self.crash_at_write is not None and self.write_count >= self.crash_at_write:
            self._crash()
        if (
            self.io_error_at_write is not None
            and self.write_count >= self.io_error_at_write
        ):
            self.io_failing = True
        if self.io_failing:
            raise OSError("injected I/O error (write #%d)" % self.write_count)

    def _on_sync(self, faulty):
        self.sync_count += 1
        if self.crash_at_sync is not None and self.sync_count >= self.crash_at_sync:
            self._crash()
        if (
            self.io_error_at_sync is not None
            and self.sync_count >= self.io_error_at_sync
        ):
            self.io_failing = True
        if self.io_failing:
            raise OSError("injected I/O error (fsync #%d)" % self.sync_count)

    def heal_io(self):
        """Clear a persistent injected I/O failure (disk repaired)."""
        self.io_failing = False

    # -- hooks called by net.transport.FaultyTransport ------------------------

    def on_net_frame(self, frame_len):
        """Advance the plan-wide frame counter; returns the fault to
        inject for this frame send.

        ``("ok", None)`` sends normally; ``("stall", seconds)`` sends
        after sleeping; ``("disconnect", None)`` tears the connection
        before any byte; ``("partial", n)`` sends exactly *n* bytes
        (a seeded strict prefix of the *frame_len*-byte frame) and then
        tears the connection; ``("down", None)`` models a persistent
        partition (every send fails until :meth:`heal_net`).
        """
        self._check_alive()
        self.frame_count += 1
        count = self.frame_count
        if (
            self.net_error_at_frame is not None
            and count == self.net_error_at_frame
        ):
            self.net_failing = True
        if self.net_failing:
            return ("down", None)
        if count in self.disconnect_at_frame:
            return ("disconnect", None)
        if count in self.partial_send_at:
            # A *strict* prefix: the peer must always see a torn or
            # missing frame, never an intact one.
            return ("partial", self.random.randint(0, max(0, frame_len - 1)))
        if count in self.stall_at_frame:
            return ("stall", self.stall_seconds)
        return ("ok", None)

    def heal_net(self):
        """Clear a persistent injected network partition (link repaired)."""
        self.net_failing = False

    def _filter_read(self, faulty, start, data):
        self.read_count += 1
        limit = self.short_reads.get(self.read_count)
        if limit is not None and len(data) > limit:
            data = data[:limit]
        if self.bit_flips:
            data = bytearray(data)
            for fragment, offset, mask in self.bit_flips:
                if fragment in faulty.path and start <= offset < start + len(data):
                    data[offset - start] ^= mask
            data = bytes(data)
        return data

    def _torn_budget(self, total):
        if self.torn == "all":
            return total
        if self.torn == "none":
            return 0
        return self.random.randint(0, total)

    def _crash(self):
        """Roll every file back to its durable image and die."""
        self.crashed = True
        for faulty in self._files:
            faulty._rollback_to_durable()
        raise SimulatedCrash(
            "simulated power failure (sync #%d, write #%d)"
            % (self.sync_count, self.write_count)
        )


class FaultyFile:
    """A binary file wrapper that models the OS cache / platter split.

    Supports exactly the surface the WAL and the database use: ``read``,
    ``write``, ``seek``, ``tell``, ``truncate``, ``flush``, ``fsync``,
    ``fileno``, ``close``, and context management.
    """

    def __init__(self, path, mode, plan):
        if "b" not in mode:
            raise ValueError("FaultyFile supports binary modes only, not %r" % mode)
        plan._check_alive()
        self.path = path
        self.mode = mode
        self._plan = plan
        self._append = "a" in mode
        self._writable = "w" in mode or "a" in mode or "+" in mode
        # buffering=0 keeps the real file and fstat exact at all times.
        self._real = open(path, mode, buffering=0)
        self._closed = False
        # Everything on disk at open time is the durable baseline; a
        # "w"-mode truncation is modelled as immediately durable.
        with open(path, "rb") as handle:
            self._synced = handle.read()
        # Pending ops since the last fsync: ("write", pos, bytes) or
        # ("trunc", size).  Rollback applies a prefix of these.
        self._pending = []
        plan._register(self)

    # -- plumbing -------------------------------------------------------------

    def _check_open(self):
        self._plan._check_alive()
        if self._closed:
            raise ValueError("I/O operation on closed FaultyFile %r" % self.path)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False

    def fileno(self):
        self._check_open()
        return self._real.fileno()

    def seekable(self):
        return True

    def readable(self):
        return True

    def writable(self):
        return True

    # -- positioned I/O -------------------------------------------------------

    def seek(self, offset, whence=os.SEEK_SET):
        self._check_open()
        return self._real.seek(offset, whence)

    def tell(self):
        self._check_open()
        return self._real.tell()

    def read(self, size=-1):
        self._check_open()
        start = self._real.tell()
        data = self._real.read(size)
        filtered = self._plan._filter_read(self, start, data)
        if len(filtered) < len(data):
            # A short read leaves the cursor where the short read ended.
            self._real.seek(start + len(filtered))
        return filtered

    def write(self, data):
        self._check_open()
        data = bytes(data)
        if self._append:
            pos = os.fstat(self._real.fileno()).st_size
        else:
            pos = self._real.tell()
        written = self._real.write(data)
        self._pending.append(("write", pos, data))
        self._plan._on_write(self)
        return written

    def truncate(self, size=None):
        self._check_open()
        if size is None:
            size = self._real.tell()
        result = self._real.truncate(size)
        self._pending.append(("trunc", size, b""))
        return result

    # -- durability -----------------------------------------------------------

    def flush(self):
        """OS-cache flush: no durability implication in this model."""
        self._check_open()
        self._real.flush()

    def fsync(self):
        """A plan syncpoint; on survival, pending bytes become durable."""
        self._check_open()
        self._real.flush()
        self._plan._on_sync(self)  # may raise SimulatedCrash
        os.fsync(self._real.fileno())
        with open(self.path, "rb") as handle:
            self._synced = handle.read()
        self._pending = []

    def close(self):
        if self._closed:
            return
        if self._plan.crashed:
            self._closed = True
            return  # _rollback_to_durable already closed the real handle
        self._closed = True
        self._real.close()

    # -- crash support --------------------------------------------------------

    def _durable_image(self):
        """The bytes this file holds after the crash rollback.

        Pending ops apply in order until the torn-write byte budget is
        exhausted mid-write; truncations reached before that tear point
        apply atomically (they carry no payload bytes).
        """
        budget = self._plan._torn_budget(
            sum(len(payload) for kind, _, payload in self._pending if kind == "write")
        )
        data = bytearray(self._synced)
        for kind, pos, payload in self._pending:
            if kind == "trunc":
                del data[pos:]
                if pos > len(data):
                    data.extend(b"\0" * (pos - len(data)))
                continue
            take = min(len(payload), budget)
            if len(data) < pos:
                data.extend(b"\0" * (pos - len(data)))
            data[pos:pos + take] = payload[:take]
            budget -= take
            if take < len(payload):
                break
        return bytes(data)

    def _rollback_to_durable(self):
        if self._closed:
            return
        self._closed = True
        self._real.close()
        if not self._writable:
            return  # read-only views never rewrite the platter
        image = self._durable_image()
        with open(self.path, "wb") as handle:
            handle.write(image)
            handle.flush()
            os.fsync(handle.fileno())
