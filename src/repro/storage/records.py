"""Binary record primitives shared by the storage structures.

Everything persisted to the simulated disk is built from three primitives:
unsigned varints (LEB128, shared with the Dewey codec), fixed 8-byte floats,
and length-prefixed byte strings.  A :class:`RecordWriter` accumulates one
record; a :class:`RecordReader` walks one buffer.  Keeping the codecs here,
rather than inside each index, guarantees the space numbers in Table 1 are
measured with one consistent encoding.
"""

from __future__ import annotations

import struct
from typing import List, Sequence, Tuple

from ..errors import DeweyError, StorageError
from ..xmlmodel.dewey import DeweyId, decode_varint, encode_varint, varint_tail

_FLOAT = struct.Struct("<d")
#: A posting's rank field (ranks are stored at 4-byte precision).
FLOAT32 = struct.Struct("<f")


class RecordWriter:
    """Accumulates binary fields into one record buffer."""

    def __init__(self) -> None:
        self._parts: List[bytes] = []

    def uint(self, value: int) -> "RecordWriter":
        """Append an unsigned varint."""
        self._parts.append(encode_varint(value))
        return self

    def float64(self, value: float) -> "RecordWriter":
        """Append an 8-byte little-endian float."""
        self._parts.append(_FLOAT.pack(value))
        return self

    def float32(self, value: float) -> "RecordWriter":
        """4-byte float; ranks are stored at this precision (2003-era)."""
        self._parts.append(FLOAT32.pack(value))
        return self

    def raw(self, data: bytes) -> "RecordWriter":
        """Append bytes verbatim (no framing)."""
        self._parts.append(data)
        return self

    def bytes_field(self, data: bytes) -> "RecordWriter":
        """Append a length-prefixed byte string."""
        self._parts.append(encode_varint(len(data)))
        self._parts.append(data)
        return self

    def dewey(self, dewey: DeweyId) -> "RecordWriter":
        """Append an encoded Dewey ID."""
        self._parts.append(dewey.encode())
        return self

    def uint_list(self, values: Sequence[int]) -> "RecordWriter":
        """Delta-encoded sorted integer list (positions compress well)."""
        out = bytearray()
        put_uint_list(out, values)
        self._parts.append(bytes(out))
        return self

    def getvalue(self) -> bytes:
        """The accumulated record buffer."""
        return b"".join(self._parts)

    def __len__(self) -> int:
        return sum(len(part) for part in self._parts)


class RecordReader:
    """Sequential reader over a record buffer."""

    def __init__(self, data: bytes, offset: int = 0):
        self.data = data
        self.offset = offset

    @property
    def exhausted(self) -> bool:
        return self.offset >= len(self.data)

    def uint(self) -> int:
        """Read an unsigned varint."""
        value, self.offset = decode_varint(self.data, self.offset)
        return value

    def float64(self) -> float:
        """Read an 8-byte float."""
        end = self.offset + _FLOAT.size
        if end > len(self.data):
            raise StorageError("truncated float field")
        value = _FLOAT.unpack_from(self.data, self.offset)[0]
        self.offset = end
        return value

    def float32(self) -> float:
        """Read a 4-byte float."""
        end = self.offset + FLOAT32.size
        if end > len(self.data):
            raise StorageError("truncated float32 field")
        value = FLOAT32.unpack_from(self.data, self.offset)[0]
        self.offset = end
        return value

    def bytes_field(self) -> bytes:
        """Read a length-prefixed byte string."""
        length = self.uint()
        end = self.offset + length
        if end > len(self.data):
            raise StorageError("truncated bytes field")
        value = self.data[self.offset : end]
        self.offset = end
        return value

    def dewey(self) -> DeweyId:
        """Read an encoded Dewey ID."""
        value, self.offset = DeweyId.decode(self.data, self.offset)
        return value

    def uint_list(self) -> List[int]:
        """Read a delta-encoded sorted integer list."""
        values, self.offset = read_uint_list(self.data, self.offset)
        return values


def put_uint_list(out: bytearray, values: Sequence[int]) -> None:
    """Append ``varint(count) || varint(delta)*`` for a sorted list."""
    value = len(values)
    while value > 0x7F:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)
    previous = 0
    for current in values:
        value = current - previous
        if value < 0:
            raise StorageError("uint_list requires a sorted list")
        while value > 0x7F:
            out.append(value & 0x7F | 0x80)
            value >>= 7
        out.append(value)
        previous = current


def read_uint_list(data: bytes, offset: int) -> Tuple[List[int], int]:
    """Read :func:`put_uint_list`'s bytes; returns ``(values, next_offset)``.

    Truncated or malformed bytes raise :class:`~repro.errors.DeweyError`,
    the varint codec's error.
    """
    try:
        count = data[offset]
        pos = offset + 1
        if count > 0x7F:
            count, pos = varint_tail(data, pos, count)
        values: List[int] = []
        current = 0
        for _ in range(count):
            delta = data[pos]
            pos += 1
            if delta > 0x7F:
                delta, pos = varint_tail(data, pos, delta)
            current += delta
            values.append(current)
    except IndexError:
        raise DeweyError("truncated varint") from None
    return values, pos


def pack_into_pages(
    records: List[bytes], page_size: int
) -> Tuple[List[bytes], List[int]]:
    """Pack records into page-sized buffers without splitting a record.

    Each page is ``varint(record_count) || record*``.  Records larger than a
    page are rejected — the index layer is responsible for chunking anything
    that can outgrow a page (e.g. huge position lists).

    Returns ``(pages, first_record_index_per_page)``; the second list lets
    callers recover which records landed on which page, which HDIL uses to
    build a B+-tree whose leaf level *is* the list (paper Section 4.4.1).
    """
    pages: List[bytes] = []
    boundaries: List[int] = []
    current: List[bytes] = []
    current_size = 0
    emitted = 0

    def flush() -> None:
        nonlocal current, current_size, emitted
        if current:
            header = encode_varint(len(current))
            pages.append(header + b"".join(current))
            boundaries.append(emitted)
            emitted += len(current)
            current = []
            current_size = 0

    for record in records:
        overhead = 5  # generous bound for the count header
        if len(record) + overhead > page_size:
            raise StorageError(
                f"record of {len(record)} bytes cannot fit a {page_size}-byte page"
            )
        if current_size + len(record) + overhead > page_size:
            flush()
        current.append(record)
        current_size += len(record)
    flush()
    return pages, boundaries


def unpack_page(page: bytes) -> Tuple[int, RecordReader]:
    """Read a page header; returns (record_count, reader positioned at body)."""
    count, offset = decode_varint(page, 0)
    return count, RecordReader(page, offset)
