"""Inverted-list files: sequences of records on consecutive disk pages.

An inverted list is written once at index-build time into a run of
*consecutive* page ids, so a full scan is classified as sequential I/O by
the simulated disk — the property that makes DIL's single-pass merge cheap.
Records are opaque ``bytes`` at this layer; :mod:`repro.index.postings`
defines their content.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterator, List, Optional

from ..errors import StorageError
from ..xmlmodel.dewey import decode_varint, encode_varint
from .disk import SimulatedDisk
from .records import pack_into_pages, unpack_page


class ListFile:
    """One on-disk inverted list.

    Attributes:
        disk: the simulated disk holding the pages.
        page_ids: consecutive page ids, in list order.
        num_records: number of records across all pages.
        byte_size: exact serialized size (records + page headers).
    """

    def __init__(
        self,
        disk: SimulatedDisk,
        page_ids: List[int],
        num_records: int,
        byte_size: int,
        page_boundaries: Optional[List[int]] = None,
    ):
        self.disk = disk
        self.page_ids = page_ids
        self.num_records = num_records
        self.byte_size = byte_size
        #: index of the first record on each page (parallel to page_ids)
        self.page_boundaries = page_boundaries or []

    @classmethod
    def write(
        cls, disk: SimulatedDisk, records: List[bytes], owner: str = ""
    ) -> "ListFile":
        """Persist ``records`` onto freshly allocated consecutive pages.

        ``owner`` labels the pages with their owning structure (e.g.
        ``"dil:xql"``) so a :class:`~repro.errors.CorruptPageError` can
        name the inverted list it hit.
        """
        framed = [frame_record(record) for record in records]
        pages, boundaries = pack_into_pages(framed, disk.page_size)
        page_ids = disk.allocate_run(pages, owner=owner)
        for first, second in zip(page_ids, page_ids[1:]):
            if second != first + 1:
                raise StorageError("list pages were not allocated consecutively")
        return cls(
            disk,
            page_ids,
            num_records=len(records),
            byte_size=sum(len(page) for page in pages),
            page_boundaries=boundaries,
        )

    @property
    def num_pages(self) -> int:
        return len(self.page_ids)

    def scan(self) -> Iterator[bytes]:
        """Yield every record in order, charging sequential page reads."""
        for page_id in self.page_ids:
            yield from page_records(self.disk.read(page_id))


def page_records(page: bytes) -> List[bytes]:
    """The record bodies of one list page, in order.

    The only parser of the list page format, ``varint count ‖ (varint
    length ‖ record)*``: list scans and HDIL's external B+-tree leaves
    (:func:`repro.index.hdil.decode_list_page`) both read pages through it.
    """
    count, reader = unpack_page(page)
    offset = reader.offset
    records: List[bytes] = []
    for _ in range(count):
        length, offset = decode_varint(page, offset)
        end = offset + length
        if end > len(page):
            raise StorageError("truncated record in list page")
        records.append(page[offset:end])
        offset = end
    return records


def frame_record(body: bytes) -> bytes:
    """Length-prefix a record body for storage in a list page."""
    return encode_varint(len(body)) + body


class ListCursor:
    """A pull-based cursor over one inverted list (peek / next / eof).

    The list may span several :class:`ListFile` s read back to back (an
    incremental index's main file, then its delta); each is read lazily,
    one page at a time.
    """

    def __init__(self, *list_files: ListFile):
        self._iterator = chain.from_iterable(f.scan() for f in list_files)
        self._head: Optional[bytes] = None
        self._advance()

    def _advance(self) -> None:
        self._head = next(self._iterator, None)

    @property
    def eof(self) -> bool:
        return self._head is None

    def peek(self) -> bytes:
        """Head record without consuming it."""
        if self._head is None:
            raise StorageError("peek past end of list")
        return self._head

    def next(self) -> bytes:
        """Consume and return the head record."""
        record = self.peek()
        self._advance()
        return record
