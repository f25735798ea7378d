"""Page-structured persistent storage with a buffer pool.

Tables are serialized into fixed-size pages in a single database file.
The pager provides pinned page access with LRU eviction; a trivial
free-list supports page reuse.  This is the disk layer the MDM would sit
on in a production deployment; recovery (see ``wal.py``) replays the log
against the page image taken at the last checkpoint.

Durability rules: header updates from ``allocate``/``free`` are batched
in memory and written once per :meth:`flush` (which also fsyncs), so a
checkpoint costs one durability barrier rather than one per page; a
read that comes back short of a full page is a hard :class:`PageError`,
never silently zero-padded — a truncated database file must fail
recovery loudly, not replay garbage.
"""

import collections
import os
import struct

from repro.errors import PageError
from repro.obs.metrics import MetricsRegistry
from repro.storage.faults import fsync_file

PAGE_SIZE = 4096
_HEADER = struct.Struct("<4sIII")  # magic, page_count, free_head, reserved
_MAGIC = b"MDM1"


class Page:
    """A mutable, fixed-size byte buffer with a dirty flag."""

    __slots__ = ("page_no", "data", "dirty")

    def __init__(self, page_no, data=None):
        if data is None:
            data = bytearray(PAGE_SIZE)
        elif len(data) != PAGE_SIZE:
            raise PageError("page %d has size %d" % (page_no, len(data)))
        self.page_no = page_no
        self.data = bytearray(data)
        self.dirty = False

    def write(self, offset, payload):
        if offset < 0 or offset + len(payload) > PAGE_SIZE:
            raise PageError(
                "write of %d bytes at %d overflows page" % (len(payload), offset)
            )
        self.data[offset:offset + len(payload)] = payload
        self.dirty = True

    def read(self, offset, length):
        if offset < 0 or offset + length > PAGE_SIZE:
            raise PageError("read of %d bytes at %d overflows page" % (length, offset))
        return bytes(self.data[offset:offset + length])


class Pager:
    """Buffer-pool manager over a single database file.

    *capacity* bounds the number of in-memory pages; least recently used
    clean pages are dropped, dirty pages are written back on eviction and
    at :meth:`flush`.  *opener* is an injectable binary-mode ``open``
    substitute (see :mod:`repro.storage.faults`).
    """

    def __init__(self, path, capacity=64, opener=None, metrics=None):
        self.path = path
        self.capacity = max(capacity, 4)
        self._opener = opener if opener is not None else open
        self._cache = collections.OrderedDict()
        self._page_count = 0
        self._free_head = 0  # 0 = no free pages (page numbers are 1-based)
        self._header_dirty = False
        self._file = None
        # I/O counters ("pager.*"): disk reads/writes, not cache hits.
        if metrics is None:
            metrics = MetricsRegistry()
        self.metrics = metrics
        self._reads = metrics.counter("pager.page_reads")
        self._writes = metrics.counter("pager.page_writes")
        self._allocations = metrics.counter("pager.allocations")
        self._free_count = metrics.counter("pager.frees")
        self._flushes = metrics.counter("pager.flushes")
        self._evictions = metrics.counter("pager.evictions")
        self._open()

    # -- file lifecycle ------------------------------------------------------

    def _open(self):
        fresh = not os.path.exists(self.path) or os.path.getsize(self.path) == 0
        self._file = self._opener(self.path, "w+b" if fresh else "r+b")
        if fresh:
            self._page_count = 0
            self._free_head = 0
            self._write_header()
        else:
            self._read_header()

    def close(self):
        if self._file is None:
            return
        self.flush()
        self._file.close()
        self._file = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False

    @property
    def page_count(self):
        return self._page_count

    # -- header ---------------------------------------------------------------

    def _write_header(self):
        self._file.seek(0)
        header = _HEADER.pack(_MAGIC, self._page_count, self._free_head, 0)
        self._file.write(header.ljust(PAGE_SIZE, b"\0"))
        self._header_dirty = False

    def _read_header(self):
        self._file.seek(0)
        raw = self._file.read(PAGE_SIZE)
        if len(raw) < _HEADER.size:
            raise PageError("truncated database header in %r" % self.path)
        magic, count, free_head, _ = _HEADER.unpack_from(raw)
        if magic != _MAGIC:
            raise PageError("bad magic in %r" % self.path)
        self._page_count = count
        self._free_head = free_head

    # -- page access ------------------------------------------------------------

    def allocate(self):
        """Allocate a page (reusing the free list) and return it."""
        if self._free_head:
            page_no = self._free_head
            if page_no > self._page_count:
                raise PageError(
                    "corrupt free list: head %d beyond page count %d"
                    % (page_no, self._page_count)
                )
            page = self.get(page_no)
            (next_free,) = struct.unpack_from("<I", page.data, 0)
            if next_free == page_no:
                raise PageError("corrupt free list: page %d links to itself" % page_no)
            self._free_head = next_free
            page.data[:] = bytes(PAGE_SIZE)
            page.dirty = True
        else:
            self._page_count += 1
            page_no = self._page_count
            page = Page(page_no)
            page.dirty = True
            self._cache[page_no] = page
            self._evict_if_needed()
        self._header_dirty = True
        self._allocations.inc()
        return page

    def free(self, page_no):
        """Return *page_no* to the free list."""
        if page_no == self._free_head:
            raise PageError("double free of page %d" % page_no)
        page = self.get(page_no)
        page.data[:] = bytes(PAGE_SIZE)
        struct.pack_into("<I", page.data, 0, self._free_head)
        page.dirty = True
        self._free_head = page_no
        self._header_dirty = True
        self._free_count.inc()

    def get(self, page_no):
        """Fetch a page, reading it from disk if not cached."""
        if page_no < 1 or page_no > self._page_count:
            raise PageError("page %d out of range (1..%d)" % (page_no, self._page_count))
        page = self._cache.get(page_no)
        if page is not None:
            self._cache.move_to_end(page_no)
            return page
        self._file.seek(page_no * PAGE_SIZE)
        raw = self._file.read(PAGE_SIZE)
        self._reads.inc()
        if len(raw) < PAGE_SIZE:
            raise PageError(
                "truncated read of page %d in %r: got %d of %d bytes"
                % (page_no, self.path, len(raw), PAGE_SIZE)
            )
        page = Page(page_no, raw)
        self._cache[page_no] = page
        self._cache.move_to_end(page_no)
        self._evict_if_needed()
        return page

    def _evict_if_needed(self):
        while len(self._cache) > self.capacity:
            page_no, page = self._cache.popitem(last=False)
            self._evictions.inc()
            if page.dirty:
                self._write_page(page)

    def _write_page(self, page):
        self._file.seek(page.page_no * PAGE_SIZE)
        self._file.write(bytes(page.data))
        self._writes.inc()
        page.dirty = False

    def flush(self):
        """Write back every dirty page and the header; fsync the file."""
        for page in self._cache.values():
            if page.dirty:
                self._write_page(page)
        self._write_header()
        fsync_file(self._file)
        self._flushes.inc()

    # -- stream helpers: store arbitrary byte strings across page chains ---------

    def write_stream(self, payload):
        """Store *payload* across a chain of pages; returns the head page no.

        *payload* is a byte string or an iterable of byte strings taken
        as their concatenation, so a caller can stream an image it never
        holds whole.  Each page holds ``<next:I><length:I><bytes>``.

        The chain is written page by page -- allocate, fill, link from
        the previous page -- so only the two newest pages need to be in
        the cache: a page allocated long before it is filled would be
        evicted still blank, and the later fill would land on a ``Page``
        object the pager no longer knows.
        """
        if isinstance(payload, (bytes, bytearray)):
            payload = (payload,)
        chunk_size = PAGE_SIZE - 8
        head = tail = 0
        buffered = bytearray()

        def append_page(chunk):
            nonlocal head, tail
            page = self.allocate()
            page.write(0, struct.pack("<II", 0, len(chunk)) + chunk)
            if tail:
                self.get(tail).write(0, struct.pack("<I", page.page_no))
            else:
                head = page.page_no
            tail = page.page_no

        for piece in payload:
            buffered += piece
            while len(buffered) >= chunk_size:
                append_page(bytes(buffered[:chunk_size]))
                del buffered[:chunk_size]
        if buffered or not head:
            append_page(bytes(buffered))
        return head

    def read_stream(self, head_page_no):
        """Read back a byte string stored by :meth:`write_stream`."""
        out = []
        page_no = head_page_no
        seen = set()
        while page_no:
            if page_no in seen:
                raise PageError("cycle in page chain at %d" % page_no)
            seen.add(page_no)
            page = self.get(page_no)
            next_no, length = struct.unpack_from("<II", page.data, 0)
            if length > PAGE_SIZE - 8:
                raise PageError("corrupt chunk length %d in page %d" % (length, page_no))
            out.append(page.read(8, length))
            page_no = next_no
        return b"".join(out)

    def free_stream(self, head_page_no):
        """Free every page of a chain written by :meth:`write_stream`."""
        page_no = head_page_no
        seen = set()
        while page_no:
            if page_no in seen:
                raise PageError("cycle in page chain at %d" % page_no)
            seen.add(page_no)
            page = self.get(page_no)
            (next_no,) = struct.unpack_from("<I", page.data, 0)
            self.free(page_no)
            page_no = next_no
