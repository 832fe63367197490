"""Unit tests for posting streams and failure injection across storage."""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import StorageParams
from repro.engine import XRankEngine
from repro.errors import DeweyError, QueryError, StorageError
from repro.index.postings import Posting
from repro.query.streams import PostingStream, open_stream, smallest_head_index
from repro.service.cache import GenerationalLRU
from repro.storage.disk import SimulatedDisk
from repro.storage.listfile import ListCursor, ListFile
from repro.storage.records import RecordReader
from repro.xmlmodel.dewey import DeweyId


def posting(dewey_text, rank=0.5, positions=(1,)):
    return Posting(DeweyId.parse(dewey_text), rank, tuple(positions))


class TestPostingStream:
    def test_peek_next_eof(self):
        stream = PostingStream([posting("0.1"), posting("0.2")])
        assert stream.peek().dewey == DeweyId.parse("0.1")
        assert stream.next().dewey == DeweyId.parse("0.1")
        assert stream.next().dewey == DeweyId.parse("0.2")
        assert stream.eof
        with pytest.raises(QueryError):
            stream.peek()

    def test_none_source_is_empty(self):
        stream = PostingStream(None)
        assert stream.eof

    def test_tombstone_filtering(self):
        stream = PostingStream(
            [posting("0.1"), posting("1.1"), posting("2.1")],
            deleted_docs={1},
        )
        doc_ids = []
        while not stream.eof:
            doc_ids.append(stream.next().dewey.doc_id)
        assert doc_ids == [0, 2]

    def test_all_tombstoned(self):
        stream = PostingStream(
            [posting("0.1")], deleted_docs={0}
        )
        assert stream.eof

    def test_from_cursor(self):
        disk = SimulatedDisk(StorageParams(page_size=256))
        records = [posting(f"0.{i}").encode() for i in range(20)]
        list_file = ListFile.write(disk, records)
        stream = PostingStream.from_cursor(ListCursor(list_file))
        count = 0
        while not stream.eof:
            stream.next()
            count += 1
        assert count == 20

    def test_smallest_head_index(self):
        streams = [
            PostingStream([posting("0.5")]),
            PostingStream([posting("0.2")]),
            PostingStream([]),
        ]
        assert smallest_head_index(streams) == 1
        streams[1].next()
        assert smallest_head_index(streams) == 0
        streams[0].next()
        assert smallest_head_index(streams) is None


class _OneListIndex:
    """The slice of the index surface ``open_stream`` reads."""

    kind = "stub"

    def __init__(self, files, deleted_docs):
        self.files = files
        self.deleted_docs = deleted_docs

    def cursor(self, keyword):
        return ListCursor(*self.files) if keyword == "kw" else None


def _drain(stream):
    out = []
    while not stream.eof:
        out.append(stream.next())
    return out


class TestOneReadPath:
    """list files -> ListCursor -> decode -> (cache) -> PostingStream."""

    @settings(max_examples=60, deadline=None)
    @given(
        ids=st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 40)),
            unique=True, max_size=60,
        ),
        split=st.integers(0, 60),
        deleted=st.sets(st.integers(0, 5)),
        late_delete=st.integers(0, 5),
        cache_mode=st.sampled_from(["none", "cold", "warm"]),
    )
    def test_every_route_yields_the_live_postings_in_order(
        self, ids, split, deleted, late_delete, cache_mode
    ):
        postings = [
            Posting(DeweyId(pair), 0.25, (1 + i,))
            for i, pair in enumerate(sorted(ids))
        ]
        disk = SimulatedDisk(StorageParams(page_size=64))
        split = min(split, len(postings))  # 0 / len: a one-file list
        files = [
            ListFile.write(disk, [p.encode() for p in part])
            for part in (postings[:split], postings[split:])
            if part
        ]
        index = _OneListIndex(files, set(deleted))
        cache = None if cache_mode == "none" else GenerationalLRU(4)

        def read():
            return _drain(open_stream(index, "full", index.cursor, "kw", cache))

        def live():
            return [
                p for p in postings
                if p.dewey.doc_id not in index.deleted_docs
            ]

        if cache_mode == "warm":
            read()
        assert read() == live()
        # A delete issued after the (possibly cached) decode is honoured.
        index.deleted_docs.add(late_delete)
        assert read() == live()
        assert _drain(
            open_stream(index, "full", index.cursor, "absent", cache)
        ) == []


class TestFailureInjection:
    def test_corrupt_record_raises_typed_error(self):
        # Three components announced, two present: the Dewey ID is short.
        with pytest.raises(DeweyError):
            Posting.decode(b"\x03\x01\x02")

    def test_corrupt_page_in_list_raises(self):
        disk = SimulatedDisk(StorageParams(page_size=256))
        list_file = ListFile.write(disk, [posting("0.1").encode()])
        # Corrupt the page: claim 5 records but store garbage.
        disk.write(list_file.page_ids[0], b"\x05garbage")
        with pytest.raises(Exception):
            list(list_file.scan())

    def test_reader_bounds_checked(self):
        reader = RecordReader(b"\x02a")
        with pytest.raises(StorageError):
            reader.bytes_field()

    def test_decode_float_from_short_buffer(self):
        with pytest.raises(StorageError):
            RecordReader(b"\x00\x00").float32()


class TestEnginePickling:
    def test_full_engine_roundtrip(self):
        engine = XRankEngine()
        engine.add_xml("<a><b>hello world</b><c xlink=\"page\"/></a>", uri="doc")
        engine.add_html("<p>hello web page</p>", uri="page")
        engine.build(kinds=["hdil", "dil", "rdil", "naive-rank"])
        blob = pickle.dumps(engine)
        clone = pickle.loads(blob)
        for kind in ("hdil", "dil", "rdil", "naive-rank"):
            original = [(h.dewey, round(h.rank, 9)) for h in engine.search("hello", kind=kind)]
            restored = [(h.dewey, round(h.rank, 9)) for h in clone.search("hello", kind=kind)]
            assert original == restored

    def test_pickled_engine_supports_updates(self):
        engine = XRankEngine()
        engine.add_xml("<a>seed words</a>")
        engine.build(kinds=["dil-incremental"])
        clone = pickle.loads(pickle.dumps(engine))
        clone.add_xml_incremental("<b>added after unpickling</b>")
        assert clone.search("unpickling", kind="dil-incremental")


class TestUnicode:
    def test_unicode_words_indexed(self):
        engine = XRankEngine()
        engine.add_xml("<a><titre>éléphant größe 北京 данные</titre></a>")
        engine.build(kinds=["dil"])
        for word in ("éléphant", "größe", "北京", "данные"):
            assert engine.search(word, kind="dil"), word

    def test_underscore_not_a_word_character(self):
        from repro.text.tokenize import words

        assert words("snake_case words") == ["snake", "case", "words"]

    def test_unicode_in_attributes(self):
        engine = XRankEngine()
        engine.add_xml('<a name="café münchen"><b>text</b></a>')
        engine.build(kinds=["dil"])
        assert engine.search("café", kind="dil")
