"""Unit tests for inverted-list files and cursors."""

import gc
import pickle

import pytest

from repro.config import StorageParams
from repro.errors import StorageError
from repro.storage.disk import SimulatedDisk
from repro.storage.listfile import ListCursor, ListDirectory, ListFile, page_records


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


def records_of(count, tag=b"r"):
    return [tag + bytes([i % 256]) * 30 for i in range(count)]


def same_list(view, written):
    return (
        list(view.page_ids) == list(written.page_ids)
        and view.num_records == written.num_records
        and view.byte_size == written.byte_size
    )


class TestListDirectory:
    def test_views_match_the_written_lists(self):
        disk = make_disk(page_size=128)
        lists = ListDirectory(disk, "dil")
        written = {kw: lists.write(kw, records_of(n)) for kw, n in
                   (("alpha", 1), ("beta", 9), ("gamma", 0))}
        assert isinstance(lists["beta"].page_ids, range)
        for keyword, list_file in written.items():
            assert same_list(lists[keyword], list_file)
        assert list(lists["beta"].scan()) == records_of(9)
        assert lists.num_records("beta") == 9 and lists.num_pages("beta") > 1
        assert lists.num_records("delta") == 0 and lists.get("delta") is None
        assert lists.total_bytes() == sum(f.byte_size for f in written.values())
        with pytest.raises(StorageError, match="no inverted list"):
            lists["delta"]

    def test_keywords_out_of_key_order_keep_insertion_order(self):
        lists = ListDirectory(make_disk(), "dil")
        for keyword in ("m", "x", "b", "z", "a", "y"):
            lists.write(keyword, [keyword.encode()])
        assert list(lists) == ["m", "x", "b", "z", "a", "y"]
        assert lists.keys() == ("m", "x", "b", "z", "a", "y")
        for keyword in lists:
            assert keyword in lists
            assert list(lists[keyword].scan()) == [keyword.encode()]
        assert "c" not in lists and len(lists) == 6

    def test_rewrites_update_one_row(self):
        disk = make_disk(page_size=128)
        lists = ListDirectory(disk, "dil")
        lists.write("stay", records_of(7))
        for count in (3, 1, 6, 12, 2, 20, 0, 5) * 4:
            old = lists["grow"].page_ids if "grow" in lists else ()
            for page_id in old:
                disk.free(page_id)
            written = lists.write("grow", records_of(count, b"g"))
            assert same_list(lists["grow"], written)
            assert list(lists["grow"].scan()) == records_of(count, b"g")
            assert list(lists["stay"].scan()) == records_of(7)
            assert len(lists._first) == 2
        assert list(lists) == ["stay", "grow"]

    def test_pickled_directory_views_and_owners(self):
        disk = make_disk(page_size=128)
        lists = ListDirectory(disk, "hdil-head")
        lists.write("b", records_of(5))
        lists.write("a", records_of(2))
        restored = pickle.loads(pickle.dumps(lists))
        for keyword in ("a", "b"):
            assert same_list(restored[keyword], lists[keyword])
        page = restored["a"].page_ids[0]
        assert restored.disk.owner_of(page) == "hdil-head:a"

    def test_a_dropped_directory_names_no_owner(self):
        disk = make_disk()
        lists = ListDirectory(disk, "dil")
        (page,) = lists.write("kw", [b"x"]).page_ids
        assert disk.owner_of(page) == "dil:kw"
        del lists
        gc.collect()
        assert disk.owner_of(page) == ""
        assert not list(disk._directories)

    def test_a_list_must_be_one_run(self):
        disk = make_disk(page_size=128)
        lists = ListDirectory(disk, "dil")
        with pytest.raises(StorageError):
            lists["gap"] = ListFile(disk, [0, 2], 2, 10)
        assert "gap" not in lists
