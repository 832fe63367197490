"""Unit tests for the simulated disk, buffer pool and I/O classification."""

import pickle

import pytest

from repro.config import StorageParams
from repro.errors import PageError, ReproError, StorageError
from repro.faults import (
    SITE_READ_BITFLIP,
    SITE_READ_ERROR,
    SITE_READ_TORN,
    FaultPlan,
    FaultSpec,
)
from repro.storage.disk import BufferPool, SimulatedDisk

try:
    from hypothesis import example, given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover
    HAVE_HYPOTHESIS = False


class TestBufferPool:
    def test_lru_eviction(self):
        pool = BufferPool(2)
        assert not pool.touch(1)
        assert not pool.touch(2)
        assert pool.touch(1)          # 1 is now most recent
        assert not pool.touch(3)      # evicts 2
        assert 2 not in pool
        assert 1 in pool and 3 in pool

    def test_capacity_validation(self):
        with pytest.raises(PageError):
            BufferPool(0)

    def test_evict_and_clear(self):
        pool = BufferPool(4)
        pool.touch(1)
        pool.evict(1)
        assert 1 not in pool
        pool.touch(2)
        pool.clear()
        assert len(pool) == 0


    def test_frames_are_not_pickled(self):
        framed, plain = BufferPool(4), BufferPool(4)
        for page_id in (3, 1, 2):
            framed.touch(page_id)
            plain.touch(page_id)
        framed.keep(1, len, b"abc", 3)
        assert framed.frames() == [(1, len, b"abc", 3)]
        assert pickle.dumps(framed) == pickle.dumps(plain)
        assert pickle.loads(pickle.dumps(framed)).frames() == []


def _count_decode(calls):
    def decode(page):
        calls.append(page)
        return len(page)

    return decode


class TestReadDecoded:
    def make_disk(self, pool=2):
        disk = SimulatedDisk(StorageParams(page_size=64, buffer_pool_pages=pool))
        for i in range(3):
            disk.allocate(bytes([i]) * 4)
        disk.drop_cache()
        disk.reset_stats()
        return disk

    def test_one_decode_per_residency(self):
        disk = self.make_disk()
        calls = []
        decode = _count_decode(calls)
        for _ in range(3):
            assert disk.read_decoded(0, decode) == 4
        assert len(calls) == 1
        assert (disk.stats.page_reads, disk.stats.cache_hits) == (1, 2)

    def test_each_decoder_keeps_its_own_frame(self):
        disk = self.make_disk()
        first, second = [], []
        disk.read_decoded(0, _count_decode(first))
        other = _count_decode(second)
        disk.read_decoded(0, other)
        disk.read_decoded(0, other)
        assert (len(first), len(second)) == (1, 1)

    @pytest.mark.parametrize(
        "change",
        [
            lambda disk: disk.write(0, b"xyz"),
            lambda disk: (disk.free(0), disk.allocate(b"xyz")),
            lambda disk: disk.drop_cache(),
            lambda disk: (disk.read(1), disk.read(2)),  # LRU-evicts page 0
        ],
        ids=["write", "free-reuse", "drop-cache", "eviction"],
    )
    def test_frame_dies_with_its_page(self, change):
        disk = self.make_disk()
        calls = []
        decode = _count_decode(calls)
        disk.read_decoded(0, decode)
        change(disk)
        assert disk.read_decoded(0, decode) == len(disk.pages[0])
        assert len(calls) == 2

    def test_decode_errors_propagate_and_keep_nothing(self):
        disk = self.make_disk()

        def refuse(page):
            raise StorageError("undecodable")

        with pytest.raises(StorageError):
            disk.read_decoded(0, refuse)
        assert disk.pooled_frames() == []


# Pure decoders for the coherence property; one raises a typed error.
def _as_tuple(page):
    return tuple(page)


def _checksum_of(page):
    return sum(page) % 251


def _strict(page):
    if page and page[0] % 3 == 0:
        raise StorageError("leading byte divisible by three")
    return page[::-1]


_DECODERS = (_as_tuple, _checksum_of, _strict)


def _outcome(action):
    """("ok", value) or the typed error it raised, comparably."""
    try:
        return ("ok", action())
    except ReproError as exc:
        return ("error", type(exc), str(exc))


def _faulted_disk(pool_pages, checksums, seed):
    disk = SimulatedDisk(
        StorageParams(
            page_size=64, buffer_pool_pages=pool_pages, checksums=checksums
        )
    )
    for i in range(4):
        disk.allocate(bytes([i + 1]) * (8 + i))
    disk.drop_cache()
    disk.reset_stats()
    disk.fault_plan = FaultPlan(
        seed,
        [
            FaultSpec(SITE_READ_BITFLIP, probability=0.15),
            FaultSpec(SITE_READ_TORN, probability=0.2),
            FaultSpec(SITE_READ_ERROR, probability=0.2),
        ],
    )
    return disk


if HAVE_HYPOTHESIS:
    _PAGE = st.integers(min_value=0, max_value=4)
    _DATA = st.binary(min_size=1, max_size=48)
    _READ_DECODED = st.tuples(
        st.just("read_decoded"), _PAGE, st.integers(0, len(_DECODERS) - 1)
    )
    _OPS = st.lists(
        st.one_of(
            # Decoded reads twice as often, so frames meet every change.
            _READ_DECODED,
            _READ_DECODED,
            st.tuples(st.just("read"), _PAGE),
            st.tuples(st.just("write"), _PAGE, _DATA),
            st.tuples(st.just("free"), _PAGE),
            st.tuples(st.just("allocate"), _DATA),
            st.tuples(st.just("drop_cache")),
        ),
        min_size=4,
        max_size=40,
    )

    @settings(max_examples=200, deadline=None)
    @example(
        ops=[("read_decoded", 0, 0), ("write", 0, b"\x05"), ("read_decoded", 0, 0)],
        pool_pages=2,
        checksums=False,
        seed=0,
    )
    @example(
        ops=[
            ("read_decoded", 1, 0),
            ("free", 1),
            ("allocate", b"\x07\x07"),
            ("read_decoded", 1, 0),
        ],
        pool_pages=4,
        checksums=True,
        seed=0,
    )
    @given(
        ops=_OPS,
        pool_pages=st.integers(min_value=2, max_value=4),
        checksums=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_read_decoded_is_coherent_with_read(ops, pool_pages, checksums, seed):
        """Property: ``read_decoded`` answers exactly ``decode(read(...))``.

        A twin disk under the same fault plan runs every op with plain
        ``read``; results, typed errors, stored pages and I/O counters must
        match op for op, whatever writes, frees, reuses, cache drops, bit
        flips, torn reads and read errors come in between.
        """
        framed = _faulted_disk(pool_pages, checksums, seed)
        twin = _faulted_disk(pool_pages, checksums, seed)
        for op in ops:
            name, args = op[0], op[1:]
            if name == "read_decoded":
                page_id, which = args
                decode = _DECODERS[which]
                got = _outcome(lambda: framed.read_decoded(page_id, decode))
                want = _outcome(lambda: decode(twin.read(page_id)))
            else:
                got = _outcome(lambda: getattr(framed, name)(*args))
                want = _outcome(lambda: getattr(twin, name)(*args))
            assert got == want, op
            assert framed.pages == twin.pages
            assert framed.stats.as_dict() == twin.stats.as_dict()


class TestAllocation:
    def test_allocate_and_read(self):
        disk = SimulatedDisk()
        pid = disk.allocate(b"hello")
        assert disk.read(pid) == b"hello"
        assert disk.num_pages == 1

    def test_write_overwrites(self):
        disk = SimulatedDisk()
        pid = disk.allocate(b"old")
        disk.write(pid, b"new")
        assert disk.read(pid) == b"new"

    def test_page_overflow_rejected(self):
        disk = SimulatedDisk(StorageParams(page_size=64))
        with pytest.raises(PageError):
            disk.allocate(b"x" * 65)
        pid = disk.allocate(b"ok")
        with pytest.raises(PageError):
            disk.write(pid, b"x" * 65)

    def test_bad_page_id(self):
        disk = SimulatedDisk()
        with pytest.raises(PageError):
            disk.read(0)
        with pytest.raises(PageError):
            disk.write(5, b"")

    def test_space_accounting(self):
        disk = SimulatedDisk(StorageParams(page_size=128))
        disk.allocate(b"x" * 100)
        disk.allocate(b"y" * 28)
        assert disk.bytes_used() == 128
        assert disk.bytes_allocated() == 256


class TestIOClassification:
    def make_disk(self, pages=32, pool=4):
        disk = SimulatedDisk(
            StorageParams(page_size=128, buffer_pool_pages=pool)
        )
        for i in range(pages):
            disk.allocate(bytes([i]) * 8)
        disk.reset_stats()
        disk.drop_cache()
        return disk

    def test_sequential_scan(self):
        disk = self.make_disk()
        for pid in range(10):
            disk.read(pid)
        stats = disk.stats
        assert stats.page_reads == 10
        assert stats.random_reads == 1   # only the first read seeks
        assert stats.sequential_reads == 9

    def test_interleaved_streams_stay_sequential(self):
        """A DIL-style merge alternating between two lists reads each list
        sequentially; per-stream tracking must classify it that way."""
        disk = self.make_disk()
        for offset in range(8):
            disk.read(offset)          # stream A: pages 0..7
            disk.read(16 + offset)     # stream B: pages 16..23
        stats = disk.stats
        assert stats.random_reads == 2  # one seek per stream
        assert stats.sequential_reads == 14

    def test_random_probes_classified_random(self):
        disk = self.make_disk()
        for pid in (20, 3, 17, 9, 28):
            disk.read(pid)
        assert disk.stats.random_reads == 5
        assert disk.stats.sequential_reads == 0

    def test_cache_hits_are_free(self):
        disk = self.make_disk(pool=8)
        disk.read(1)
        disk.read(1)
        assert disk.stats.page_reads == 1
        assert disk.stats.cache_hits == 1

    def test_drop_cache_forces_rereads(self):
        disk = self.make_disk(pool=8)
        disk.read(1)
        disk.drop_cache()
        disk.read(1)
        assert disk.stats.page_reads == 2

    def test_cost_model(self):
        params = StorageParams(seek_cost_ms=10.0, transfer_cost_ms=1.0)
        disk = SimulatedDisk(params)
        for i in range(4):
            disk.allocate(b"x")
        disk.reset_stats()
        disk.drop_cache()
        for pid in range(4):   # 1 random + 3 sequential
            disk.read(pid)
        assert disk.stats.cost_ms(params) == pytest.approx(4 * 1.0 + 1 * 10.0)

    def test_stats_snapshot_and_delta(self):
        disk = self.make_disk()
        disk.read(0)
        before = disk.stats.snapshot()
        disk.read(10)
        delta = disk.stats.delta_since(before)
        assert delta.page_reads == 1
        assert delta.random_reads == 1

    def test_stats_addition(self):
        disk = self.make_disk()
        disk.read(0)
        total = disk.stats + disk.stats
        assert total.page_reads == 2 * disk.stats.page_reads


class TestFreePageManagement:
    def make_disk(self, pages=10):
        disk = SimulatedDisk(StorageParams(page_size=64))
        for i in range(pages):
            disk.allocate(bytes([65 + i]))
        return disk

    def test_free_and_reuse(self):
        disk = self.make_disk()
        disk.free(3)
        assert disk.num_free_pages == 1
        reused = disk.allocate(b"new")
        assert reused == 3
        assert disk.read(3) == b"new"
        assert disk.num_free_pages == 0

    def test_double_free_rejected(self):
        disk = self.make_disk()
        disk.free(2)
        with pytest.raises(PageError):
            disk.free(2)

    def test_free_evicts_from_pool(self):
        disk = self.make_disk()
        disk.read(4)
        disk.free(4)
        disk.allocate(b"x")  # page 4 again
        disk.reset_stats()
        disk.read(4)
        assert disk.stats.page_reads == 1  # not a stale cache hit

    def test_allocate_run_reuses_consecutive_gap(self):
        disk = self.make_disk(pages=12)
        for page_id in (4, 5, 6, 7):
            disk.free(page_id)
        ids = disk.allocate_run([b"a", b"b", b"c"])
        assert ids == [4, 5, 6]
        assert disk.num_free_pages == 1

    def test_allocate_run_skips_fragmented_free_list(self):
        disk = self.make_disk(pages=12)
        for page_id in (2, 4, 6):  # no consecutive run of 2
            disk.free(page_id)
        ids = disk.allocate_run([b"a", b"b"])
        assert ids == [12, 13]  # file grew instead

    def test_allocate_run_empty(self):
        disk = self.make_disk()
        assert disk.allocate_run([]) == []


class TestInPlaceMerge:
    def test_incremental_merge_reuses_pages(self):
        from repro.index.builder import IndexBuilder
        from repro.index.incremental import IncrementalDILIndex
        from repro.xmlmodel.graph import CollectionGraph
        from repro.xmlmodel.parser import parse_xml

        graph = CollectionGraph()
        for i in range(8):
            graph.add_document(
                parse_xml(f"<d><p>words shared text {i}</p></d>", doc_id=i)
            )
        graph.finalize()
        builder = IndexBuilder(graph)
        index = IncrementalDILIndex()
        index.build(builder.direct_postings)
        pages_before = index.main.disk.num_pages

        new_doc = parse_xml("<d><p>late words</p></d>", doc_id=50)
        index.add_documents([new_doc], reference=builder.elemranks)
        index.merge()
        # The rebuild reuses freed pages: growth stays below a full copy.
        assert index.main.disk.num_pages < 2 * pages_before
