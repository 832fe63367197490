"""The posting and Dewey codecs against a frozen reference.

``Ref*`` below is the codec as it stood before the record decoders were
rewritten as single-pass loops: one ``RecordReader``/``RecordWriter`` call
per field and one ``decode_varint`` call per component.  It is kept here,
verbatim in behaviour, as the oracle.  The rewrite must write the same
bytes, and on every input — valid, truncated at any byte, or random — read
the same value or raise the same ``repro.errors`` class.
"""

from __future__ import annotations

import random
import struct
from itertools import accumulate

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import StorageParams
from repro.errors import DeweyError, StorageError, XRankError
from repro.index.hdil import decode_list_page
from repro.index.postings import Posting
from repro.storage.btree import BTree
from repro.storage.disk import SimulatedDisk
from repro.storage.listfile import frame_record
from repro.storage.records import RecordReader, RecordWriter
from repro.xmlmodel.dewey import DeweyId

# -- the frozen reference ------------------------------------------------------

_REF_FLOAT32 = struct.Struct("<f")


def ref_encode_varint(value):
    if value < 0:
        raise DeweyError(f"varint components must be non-negative, got {value}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def ref_decode_varint(data, offset=0):
    result = 0
    shift = 0
    pos = offset
    while True:
        if pos >= len(data):
            raise DeweyError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 63:
            raise DeweyError("varint too long")


def ref_encode_dewey(components):
    out = bytearray(ref_encode_varint(len(components)))
    for c in components:
        out += ref_encode_varint(c)
    return bytes(out)


def ref_decode_dewey(data, offset=0):
    """``(components, next_offset)``, as ``DeweyId.decode`` used to read."""
    count, pos = ref_decode_varint(data, offset)
    if count == 0:
        raise DeweyError("encoded Dewey ID has zero components")
    comps = []
    for _ in range(count):
        value, pos = ref_decode_varint(data, pos)
        comps.append(value)
    return tuple(comps), pos


class RefWriter:
    def __init__(self):
        self.parts = []

    def uint(self, value):
        self.parts.append(ref_encode_varint(value))

    def float32(self, value):
        self.parts.append(_REF_FLOAT32.pack(value))

    def dewey(self, components):
        self.parts.append(ref_encode_dewey(components))

    def bytes_field(self, data):
        self.parts.append(ref_encode_varint(len(data)))
        self.parts.append(data)

    def uint_list(self, values):
        self.uint(len(values))
        previous = 0
        for value in values:
            if value < previous:
                raise StorageError("uint_list requires a sorted list")
            self.uint(value - previous)
            previous = value

    def getvalue(self):
        return b"".join(self.parts)


class RefReader:
    def __init__(self, data, offset=0):
        self.data = data
        self.offset = offset

    def uint(self):
        value, self.offset = ref_decode_varint(self.data, self.offset)
        return value

    def float32(self):
        end = self.offset + _REF_FLOAT32.size
        if end > len(self.data):
            raise StorageError("truncated float32 field")
        value = _REF_FLOAT32.unpack_from(self.data, self.offset)[0]
        self.offset = end
        return value

    def dewey(self):
        value, self.offset = ref_decode_dewey(self.data, self.offset)
        return value

    def uint_list(self):
        count = self.uint()
        values = []
        current = 0
        for _ in range(count):
            current += self.uint()
            values.append(current)
        return values


def ref_encode_posting(components, rank, positions):
    writer = RefWriter()
    writer.dewey(components)
    writer.float32(rank)
    writer.uint_list(list(positions))
    return writer.getvalue()


def ref_encode_payload(rank, positions):
    writer = RefWriter()
    writer.float32(rank)
    writer.uint_list(list(positions))
    return writer.getvalue()


def ref_decode_posting(data):
    reader = RefReader(data)
    return reader.dewey(), reader.float32(), tuple(reader.uint_list())


def ref_decode_payload(payload):
    reader = RefReader(payload)
    return reader.float32(), tuple(reader.uint_list())


def ref_decode_list_page(page):
    """``[(components, record)]`` of a list page: every record is framed
    before the first Dewey ID is read."""
    count, offset = ref_decode_varint(page, 0)
    records = []
    for _ in range(count):
        length, offset = ref_decode_varint(page, offset)
        end = offset + length
        if end > len(page):
            raise StorageError("truncated record in list page")
        records.append(page[offset:end])
        offset = end
    return [(ref_decode_dewey(record, 0)[0], record) for record in records]


def ref_encode_leaf(entries, prev_page, next_page):
    writer = RefWriter()
    writer.uint(0)
    writer.uint(prev_page + 1)
    writer.uint(next_page + 1)
    writer.uint(len(entries))
    for components, payload in entries:
        writer.dewey(components)
        writer.bytes_field(payload)
    return writer.getvalue()


def ref_leaf_groups(entries, page_size):
    groups, current, size = [], [], 16
    for components, payload in entries:
        entry_size = len(ref_encode_dewey(components)) + len(payload) + 5
        if current and size + entry_size > page_size:
            groups.append(current)
            current, size = [], 16
        current.append((components, payload))
        size += entry_size
    if current:
        groups.append(current)
    return groups


# -- comparing outcomes ------------------------------------------------------------


def _rank(value):
    """A decoded rank by its bits, so NaNs compare equal to themselves."""
    return struct.pack("<d", value)


def _plain(value):
    """The new codec's result in the reference's terms."""
    if isinstance(value, DeweyId):
        return value.components
    if isinstance(value, Posting):
        return (value.dewey.components, _rank(value.elemrank), value.positions)
    if isinstance(value, tuple):
        return tuple(_plain(v) for v in value)
    if isinstance(value, list):
        return [_plain(v) for v in value]
    return value


def _outcome(decode, args, plain):
    try:
        return "ok", plain(decode(*args))
    except XRankError as exc:
        return "error", type(exc)


def _same(new, ref, *args):
    """New and reference agree on ``args``.

    Only ``repro.errors`` classes are caught, so an untyped error from
    either side fails the test.
    """
    assert _outcome(new, args, _plain) == _outcome(ref, args, lambda v: v), args


def _ref_posting(data):
    components, rank, positions = ref_decode_posting(data)
    return components, _rank(rank), positions


def _payload_new(payload):
    posting = Posting.decode_payload(DeweyId((0,)), payload)
    return _rank(posting.elemrank), posting.positions


def _ref_payload(payload):
    rank, positions = ref_decode_payload(payload)
    return _rank(rank), positions


# -- strategies --------------------------------------------------------------------

#: One-byte and two-byte varint edges, the three-byte edge, and far beyond.
EDGES = [0, 1, 127, 128, 129, 16383, 16384, 2**21 - 1, 2**21, 2**35, 2**63]
component = st.one_of(st.sampled_from(EDGES), st.integers(0, 2**64))
dewey_components = st.one_of(
    st.lists(component, min_size=1, max_size=12),
    st.lists(st.sampled_from([0, 1, 128]), min_size=127, max_size=140),
).map(tuple)
deltas = st.lists(
    st.one_of(st.sampled_from(EDGES[:8]), st.integers(0, 2**30)), max_size=300
)
positions = deltas.map(lambda d: tuple(accumulate(d)))
ranks = st.floats(width=32)


def _cuts(record):
    """Every truncation of ``record``, plus the record with trailing bytes."""
    yield from (record[:cut] for cut in range(len(record) + 1))
    yield record + b"\x00\xff\x80"


# -- encoders ----------------------------------------------------------------------


class TestEncodersMatchReference:
    @given(dewey_components)
    def test_dewey_encode(self, comps):
        assert DeweyId(comps).encode() == ref_encode_dewey(comps)
        assert RecordWriter().dewey(DeweyId(comps)).getvalue() == ref_encode_dewey(comps)
        assert DeweyId(comps).encoded_size() == len(ref_encode_dewey(comps))

    @given(dewey_components, ranks, positions)
    @settings(max_examples=200, deadline=None)
    def test_posting_encode(self, comps, rank, pos):
        posting = Posting(DeweyId(comps), rank, pos)
        assert posting.encode() == ref_encode_posting(comps, rank, pos)
        assert posting.encode_payload() == ref_encode_payload(rank, pos)

    @given(positions)
    def test_uint_list_encode(self, values):
        writer = RefWriter()
        writer.uint_list(list(values))
        assert RecordWriter().uint_list(values).getvalue() == writer.getvalue()

    def test_unsorted_list_is_a_storage_error(self):
        for values in ([3, 1], [-1], [0, 5, 4]):
            with pytest.raises(StorageError):
                RefWriter().uint_list(values)
            with pytest.raises(StorageError):
                RecordWriter().uint_list(values)
            with pytest.raises(StorageError):
                Posting(DeweyId((0,)), 0.5, tuple(values)).encode()

    @given(st.lists(st.tuples(dewey_components, st.binary(max_size=40)),
                    min_size=1, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_bulk_load_leaves_are_byte_identical(self, entries):
        by_key = dict(entries)
        entries = sorted(by_key.items())
        # Small pages put many leaf boundaries in reach of the entry sizes.
        disk = SimulatedDisk(StorageParams(page_size=512))
        tree = BTree.bulk_load(disk, [(DeweyId(k), p) for k, p in entries])
        groups = ref_leaf_groups(entries, disk.page_size)
        pages = tree.leaf_pages
        assert len(pages) == len(groups)
        for i, (page_id, group) in enumerate(zip(pages, groups)):
            prev_page = pages[i - 1] if i else -1
            next_page = pages[i + 1] if i + 1 < len(pages) else -1
            expected = ref_encode_leaf(group, prev_page, next_page)
            assert disk.pages[page_id] == expected
        assert tree.leaf_bytes == sum(len(disk.pages[p]) for p in pages)


# -- decoders ----------------------------------------------------------------------


class TestDecodersMatchReference:
    @given(dewey_components, st.binary(max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_dewey_decode_at_every_cut_and_offset(self, comps, junk):
        record = junk + ref_encode_dewey(comps)
        assert DeweyId.decode(record, len(junk)) == (DeweyId(comps), len(record))
        for data in _cuts(record):
            _same(DeweyId.decode, ref_decode_dewey, data, len(junk))
            _same(lambda d, o: RecordReader(d, o).dewey(),
                  lambda d, o: RefReader(d, o).dewey(), data, len(junk))

    @given(dewey_components, ranks, positions)
    @settings(max_examples=200, deadline=None)
    def test_posting_decode_at_every_cut(self, comps, rank, pos):
        record = ref_encode_posting(comps, rank, pos)
        decoded = Posting.decode(record)
        assert decoded.dewey == DeweyId(comps) and decoded.positions == pos
        assert _rank(decoded.elemrank) == _rank(_REF_FLOAT32.unpack(
            _REF_FLOAT32.pack(rank))[0])
        for data in _cuts(record):
            _same(Posting.decode, _ref_posting, data)

    @given(ranks, positions)
    @settings(max_examples=200, deadline=None)
    def test_payload_decode_at_every_cut(self, rank, pos):
        payload = ref_encode_payload(rank, pos)
        for data in _cuts(payload):
            _same(_payload_new, _ref_payload, data)
            _same(lambda d: RecordReader(d, 4).uint_list(),
                  lambda d: RefReader(d, 4).uint_list(), data)

    @given(st.lists(st.tuples(dewey_components, ranks, positions), max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_list_page_decode_at_every_cut(self, postings):
        records = [ref_encode_posting(*p) for p in postings]
        page = ref_encode_varint(len(records)) + b"".join(frame_record(r) for r in records)
        assert [(d.components, r) for d, r in decode_list_page(page)] == \
            ref_decode_list_page(page)
        for data in _cuts(page):
            _same(decode_list_page, ref_decode_list_page, data)

    def test_overlong_varints(self):
        # Ten bytes make the longest varint; an eleventh is malformed.
        ten = b"\xff" * 9 + b"\x01"
        eleven = b"\xff" * 10 + b"\x01"
        for record in (b"\x01" + ten, b"\x01" + eleven, ten, eleven,
                       b"\x01\x00" + b"\x00" * 4 + eleven,
                       b"\x01\x00" + b"\x00" * 4 + b"\x01" + eleven):
            _same(lambda d: DeweyId.decode(d, 0), ref_decode_dewey, record)
            _same(Posting.decode, _ref_posting, record)

    def test_random_bytes(self):
        """~2k seeded byte strings through every rewritten decoder."""
        rng = random.Random(20031)
        # Bytes near the varint boundaries reach past the first field.
        alphabet = [0, 1, 2, 3, 5, 0x7F, 0x80, 0x81, 0xFF]
        for _ in range(2000):
            length = rng.randrange(0, 48)
            if rng.random() < 0.5:
                data = bytes(rng.choice(alphabet) for _ in range(length))
            else:
                data = bytes(rng.randrange(256) for _ in range(length))
            offset = rng.randrange(0, 4)
            _same(Posting.decode, _ref_posting, data)
            _same(_payload_new, _ref_payload, data)
            _same(DeweyId.decode, ref_decode_dewey, data, offset)
            _same(decode_list_page, ref_decode_list_page, data)

    def test_typed_errors_by_field(self):
        record = ref_encode_posting((5, 200), 0.25, (3, 900))
        dewey_end = len(ref_encode_dewey((5, 200)))
        with pytest.raises(DeweyError):
            Posting.decode(record[: dewey_end - 1])
        with pytest.raises(StorageError):
            Posting.decode(record[: dewey_end + 3])
        with pytest.raises(DeweyError):
            Posting.decode(record[:-1])
        with pytest.raises(DeweyError):
            Posting.decode(b"\x00")
