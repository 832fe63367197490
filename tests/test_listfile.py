"""Unit tests for inverted-list files and cursors."""

import pytest

from repro.config import StorageParams
from repro.errors import StorageError
from repro.storage.disk import SimulatedDisk
from repro.storage.listfile import ListCursor, ListFile, page_records


def make_disk(page_size=256, pool=8):
    return SimulatedDisk(StorageParams(page_size=page_size, buffer_pool_pages=pool))


class TestWriteScan:
    def test_roundtrip(self):
        disk = make_disk()
        records = [f"record-{i:04d}".encode() for i in range(100)]
        list_file = ListFile.write(disk, records)
        assert list(list_file.scan()) == records
        assert list_file.num_records == 100

    def test_empty_list(self):
        disk = make_disk()
        list_file = ListFile.write(disk, [])
        assert list(list_file.scan()) == []
        assert list_file.num_pages == 0

    def test_pages_consecutive(self):
        disk = make_disk()
        list_file = ListFile.write(disk, [b"x" * 50 for _ in range(20)])
        ids = list_file.page_ids
        assert ids == list(range(ids[0], ids[0] + len(ids)))

    def test_page_boundaries(self):
        disk = make_disk(page_size=128)
        records = [b"r" * 40 for _ in range(10)]
        list_file = ListFile.write(disk, records)
        assert list_file.page_boundaries[0] == 0
        assert len(list_file.page_boundaries) == list_file.num_pages
        # Boundaries must be strictly increasing and cover all records.
        bounds = list_file.page_boundaries
        assert bounds == sorted(set(bounds))
        assert bounds[-1] < 10

    def test_scan_is_sequential_io(self):
        disk = make_disk(page_size=128, pool=2)
        list_file = ListFile.write(disk, [b"r" * 40 for _ in range(30)])
        disk.reset_stats()
        disk.drop_cache()
        list(list_file.scan())
        assert disk.stats.random_reads == 1
        assert disk.stats.sequential_reads == list_file.num_pages - 1

    def test_oversized_record_rejected(self):
        disk = make_disk(page_size=64)
        with pytest.raises(StorageError):
            ListFile.write(disk, [b"x" * 100])

    def test_scan_page(self):
        disk = make_disk(page_size=128)
        records = [bytes([65 + i]) * 30 for i in range(12)]
        list_file = ListFile.write(disk, records)
        recovered = []
        for page_id in list_file.page_ids:
            recovered.extend(page_records(disk.read(page_id)))
        assert recovered == records

    def test_truncated_page_is_a_storage_error(self):
        disk = make_disk(page_size=128)
        list_file = ListFile.write(disk, [b"r" * 40])
        page = disk.read(list_file.page_ids[0])
        with pytest.raises(StorageError, match="truncated record"):
            page_records(page[:-1])

    def test_byte_size_accounts_pages(self):
        disk = make_disk()
        list_file = ListFile.write(disk, [b"abc"] * 10)
        assert list_file.byte_size > 10 * 3  # framing overhead included


class TestCursor:
    def test_peek_next_eof(self):
        disk = make_disk()
        list_file = ListFile.write(disk, [b"a", b"b", b"c"])
        cursor = ListCursor(list_file)
        assert cursor.peek() == b"a"
        assert cursor.peek() == b"a"  # peek does not consume
        assert cursor.next() == b"a"
        assert cursor.next() == b"b"
        assert not cursor.eof
        assert cursor.next() == b"c"
        assert cursor.eof
        with pytest.raises(StorageError):
            cursor.peek()

    def test_empty_cursor(self):
        disk = make_disk()
        cursor = ListCursor(ListFile.write(disk, []))
        assert cursor.eof
