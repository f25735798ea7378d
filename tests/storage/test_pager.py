"""Pager: page allocation, persistence, free list, stream chains."""

import os
import struct

import pytest

from repro.errors import PageError
from repro.storage.pager import PAGE_SIZE, Pager


@pytest.fixture
def db_path(tmp_path):
    return str(tmp_path / "pages.db")


def patch_file(path, offset, payload):
    with open(path, "r+b") as handle:
        handle.seek(offset)
        handle.write(payload)


def disk_header(path):
    with open(path, "rb") as handle:
        return struct.unpack("<4sIII", handle.read(16))


class TestPages:
    def test_allocate_and_get(self, db_path):
        with Pager(db_path) as pager:
            page = pager.allocate()
            assert page.page_no == 1
            page.write(0, b"hello")
            assert pager.get(1).read(0, 5) == b"hello"

    def test_out_of_range(self, db_path):
        with Pager(db_path) as pager:
            with pytest.raises(PageError):
                pager.get(1)

    def test_write_overflow(self, db_path):
        with Pager(db_path) as pager:
            page = pager.allocate()
            with pytest.raises(PageError):
                page.write(PAGE_SIZE - 2, b"abcd")

    def test_persistence(self, db_path):
        with Pager(db_path) as pager:
            page = pager.allocate()
            page.write(10, b"durable")
            pager.flush()
        with Pager(db_path) as pager:
            assert pager.page_count == 1
            assert pager.get(1).read(10, 7) == b"durable"

    def test_eviction_writes_back(self, db_path):
        with Pager(db_path, capacity=4) as pager:
            numbers = []
            for i in range(12):
                page = pager.allocate()
                page.write(0, bytes([i]) * 8)
                numbers.append(page.page_no)
            # Early pages were evicted; reading them back hits disk.
            for i, page_no in enumerate(numbers):
                assert pager.get(page_no).read(0, 8) == bytes([i]) * 8

    def test_free_list_reuse(self, db_path):
        with Pager(db_path) as pager:
            first = pager.allocate().page_no
            second = pager.allocate().page_no
            pager.free(first)
            reused = pager.allocate().page_no
            assert reused == first
            assert pager.page_count == 2
            assert second == 2


class TestStreams:
    def test_small_stream(self, db_path):
        with Pager(db_path) as pager:
            head = pager.write_stream(b"tiny payload")
            assert pager.read_stream(head) == b"tiny payload"

    def test_empty_stream(self, db_path):
        with Pager(db_path) as pager:
            head = pager.write_stream(b"")
            assert pager.read_stream(head) == b""

    def test_multi_page_stream(self, db_path):
        payload = os.urandom(PAGE_SIZE * 3 + 123)
        with Pager(db_path) as pager:
            head = pager.write_stream(payload)
            assert pager.read_stream(head) == payload

    def test_stream_longer_than_the_cache(self, db_path):
        """Whole or in pieces, a chain of more pages than the cache
        holds reads back intact (it used to come back blank: pages
        allocated up front were evicted before they were filled)."""
        payload = os.urandom(PAGE_SIZE * 20 + 17)
        pieces = [payload[i:i + 1000] for i in range(0, len(payload), 1000)]
        with Pager(db_path, capacity=4) as pager:
            whole = pager.write_stream(payload)
            streamed = pager.write_stream(iter(pieces))
            assert pager.read_stream(whole) == payload
            assert pager.read_stream(streamed) == payload

    def test_stream_survives_reopen(self, db_path):
        payload = bytes(range(256)) * 40
        with Pager(db_path) as pager:
            head = pager.write_stream(payload)
            pager.flush()
        with Pager(db_path) as pager:
            assert pager.read_stream(head) == payload

    def test_free_stream_allows_reuse(self, db_path):
        payload = b"x" * (PAGE_SIZE * 2)
        with Pager(db_path) as pager:
            head = pager.write_stream(payload)
            count_before = pager.page_count
            pager.free_stream(head)
            pager.write_stream(payload)
            assert pager.page_count == count_before


class TestCorruption:
    """A damaged database file must fail loudly, never replay garbage."""

    def test_truncated_page_read_raises(self, db_path):
        with Pager(db_path) as pager:
            pager.allocate()
            pager.allocate()
            pager.flush()
        with open(db_path, "r+b") as handle:
            handle.truncate(os.path.getsize(db_path) - 100)
        with Pager(db_path) as pager:
            pager.get(1)  # fully present
            with pytest.raises(PageError, match="truncated read"):
                pager.get(2)

    def test_torn_header_raises(self, db_path):
        with open(db_path, "wb") as handle:
            handle.write(b"MD")
        with pytest.raises(PageError, match="truncated database header"):
            Pager(db_path)

    def test_bad_magic_raises(self, db_path):
        with Pager(db_path) as pager:
            pager.allocate()
            pager.flush()
        patch_file(db_path, 0, b"XXXX")
        with pytest.raises(PageError, match="bad magic"):
            Pager(db_path)

    def test_corrupt_stream_chunk_length_raises(self, db_path):
        with Pager(db_path) as pager:
            head = pager.write_stream(b"payload")
            pager.flush()
        # The chunk length lives 4 bytes into the head page.
        patch_file(db_path, head * PAGE_SIZE + 4, struct.pack("<I", PAGE_SIZE * 2))
        with Pager(db_path) as pager:
            with pytest.raises(PageError, match="corrupt chunk length"):
                pager.read_stream(head)

    def test_stream_cycle_detected(self, db_path):
        with Pager(db_path) as pager:
            head = pager.write_stream(b"z" * (PAGE_SIZE + 100))  # pages 1 -> 2
            pager.flush()
        # Point page 2 back at the head.
        patch_file(db_path, 2 * PAGE_SIZE, struct.pack("<I", head))
        with Pager(db_path) as pager:
            with pytest.raises(PageError, match="cycle in page chain"):
                pager.read_stream(head)

    def test_double_free_detected(self, db_path):
        with Pager(db_path) as pager:
            pager.allocate()
            pager.allocate()
            pager.free(1)
            with pytest.raises(PageError, match="double free"):
                pager.free(1)

    def test_free_list_self_link_detected(self, db_path):
        with Pager(db_path) as pager:
            pager.allocate()
            pager.free(1)
            # Corrupt the freed page's next-pointer to point at itself.
            struct.pack_into("<I", pager.get(1).data, 0, 1)
            with pytest.raises(PageError, match="links to itself"):
                pager.allocate()

    def test_free_head_beyond_page_count_detected(self, db_path):
        with Pager(db_path) as pager:
            pager.allocate()
            pager.flush()
        patch_file(db_path, 0, struct.pack("<4sIII", b"MDM1", 1, 99, 0))
        with Pager(db_path) as pager:
            with pytest.raises(PageError, match="beyond page count"):
                pager.allocate()


class TestHeaderBatching:
    def test_allocate_defers_header_write_until_flush(self, db_path):
        with Pager(db_path):
            pass  # creates an empty, flushed file
        with Pager(db_path) as pager:
            pager.allocate()
            # Header updates are batched: the on-disk count is stale
            # until flush, which writes it once and fsyncs.
            assert disk_header(db_path)[1] == 0
            pager.flush()
            assert disk_header(db_path)[1] == 1
