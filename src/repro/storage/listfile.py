"""Inverted-list files: sequences of records on consecutive disk pages.

An inverted list is written once at index-build time into a run of
*consecutive* page ids, so a full scan is classified as sequential I/O by
the simulated disk — the property that makes DIL's single-pass merge cheap.
Records are opaque ``bytes`` at this layer; :mod:`repro.index.postings`
defines their content.

An index keeps its lists in one :class:`ListDirectory`: a keyword -> row
map over packed columns (first page, page count, record count, byte
size).  Looking a keyword up builds a :class:`ListFile` view of its row,
which goes with the lookup, so a built index holds no object, list or
string per inverted list — the paper's "only what locates the lists stays
in memory" (Sections 4.2-4.4).
"""

from __future__ import annotations

from array import array
from itertools import chain
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import StorageError
from ..xmlmodel.dewey import decode_varint, encode_varint
from .disk import SimulatedDisk, page_run
from .records import pack_into_pages, unpack_page


class ListFile:
    """One on-disk inverted list: a view of its pages.

    Attributes:
        disk: the simulated disk holding the pages.
        page_ids: consecutive page ids, in list order.
        num_records: number of records across all pages.
        byte_size: exact serialized size (records + page headers).
        page_boundaries: index of the first record on each page; only the
            list that :meth:`write` returns knows them (a directory view
            carries none).
    """

    __slots__ = ("disk", "page_ids", "num_records", "byte_size", "page_boundaries")

    def __init__(
        self,
        disk: SimulatedDisk,
        page_ids: Sequence[int],
        num_records: int,
        byte_size: int,
        page_boundaries: Sequence[int] = (),
    ):
        self.disk = disk
        self.page_ids = page_ids
        self.num_records = num_records
        self.byte_size = byte_size
        self.page_boundaries = page_boundaries

    def __setstate__(self, state: dict) -> None:
        # Engine files written before the directory pickled each list's
        # ``__dict__``.
        for name, value in state.items():
            setattr(self, name, value)

    @classmethod
    def write(cls, disk: SimulatedDisk, records: List[bytes]) -> "ListFile":
        """Persist ``records`` onto freshly allocated consecutive pages."""
        framed = [frame_record(record) for record in records]
        pages, boundaries = pack_into_pages(framed, disk.page_size)
        return cls(
            disk,
            disk.allocate_run(pages),
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


class ListDirectory:
    """Where one index's inverted lists live: keyword -> row, packed columns.

    ``_rows`` maps each keyword to its row, and row ``r`` of the parallel
    ``array('i')`` columns (32 bits hold any page id, count or size of one
    simulated disk) holds that list's first page, page count, record count
    and byte size; ``_keywords`` maps rows back to keywords.
    ``directory[keyword]`` builds a :class:`ListFile` view of the row;
    assigning a list (or :meth:`write`) points the row at new pages, so
    rewriting one list touches one row.

    The directory also names the owners of its pages: it registers with its
    disk (weakly, so a dropped directory needs no unregistering), the disk
    maps each page to a row, and :meth:`owner` turns the row back into
    ``"label:keyword"`` (``"dil:xql"``, ``"hdil-head:xql"``) for
    :class:`~repro.errors.CorruptPageError` and page diffs.
    """

    def __init__(self, disk: SimulatedDisk, label: str):
        self.disk = disk
        self.label = label
        self.clear()
        disk.attach(self)

    @classmethod
    def of(cls, disk: SimulatedDisk, label: str, lists) -> "ListDirectory":
        """A directory over ``lists``, or over an old engine file's
        ``{keyword: ListFile}`` dict."""
        if isinstance(lists, cls):
            return lists
        directory = cls(disk, label)
        for keyword, list_file in lists.items():
            directory[keyword] = list_file
        return directory

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.disk.attach(self)

    # -- mapping surface ------------------------------------------------------------

    def __getitem__(self, keyword: str) -> ListFile:
        row = self._rows.get(keyword)
        if row is None:
            raise StorageError(f"no inverted list for {keyword!r}")
        first = self._first[row]
        return ListFile(
            self.disk,
            range(first, first + self._pages[row]),
            self._records[row],
            self._bytes[row],
        )

    def __iter__(self) -> Iterator[str]:
        return iter(self._keywords)

    def __len__(self) -> int:
        return len(self._keywords)

    def __contains__(self, keyword: str) -> bool:
        return keyword in self._rows

    def keys(self) -> Tuple[str, ...]:
        """The keywords, in the order their rows were added."""
        return tuple(self._keywords)

    def get(self, keyword: str, default=None) -> Optional[ListFile]:
        """A view of ``keyword``'s list, or ``default``."""
        return self[keyword] if keyword in self._rows else default

    def items(self) -> Iterator[Tuple[str, ListFile]]:
        """``(keyword, view)`` per list, built as the iteration reaches it."""
        return ((keyword, self[keyword]) for keyword in self._keywords)

    def num_records(self, keyword: str) -> int:
        """Records in ``keyword``'s list (0 if absent), without a view."""
        row = self._rows.get(keyword)
        return 0 if row is None else self._records[row]

    def num_pages(self, keyword: str) -> int:
        """Pages of ``keyword``'s list (0 if absent), without a view."""
        row = self._rows.get(keyword)
        return 0 if row is None else self._pages[row]

    def total_bytes(self) -> int:
        """Exact bytes of every list in the directory."""
        return sum(self._bytes)

    # -- writing ----------------------------------------------------------------------

    def write(self, keyword: str, records: List[bytes]) -> ListFile:
        """Write ``keyword``'s list on fresh consecutive pages and point its
        row at them.  Freeing the row's old pages is the caller's job."""
        list_file = ListFile.write(self.disk, records)
        self[keyword] = list_file
        return list_file

    def __setitem__(self, keyword: str, list_file: ListFile) -> None:
        first, count = page_run(list_file.page_ids)
        row = self._rows.get(keyword)
        if row is None:
            row = self._rows[keyword] = len(self._keywords)
            self._keywords.append(keyword)
            for column in (self._first, self._pages, self._records, self._bytes):
                column.append(0)
        self._first[row] = first
        self._pages[row] = count
        self._records[row] = list_file.num_records
        self._bytes[row] = list_file.byte_size
        self.disk.assign_owner(first, count, row)

    def clear(self) -> None:
        """Forget every row; the pages stay allocated."""
        self._rows: Dict[str, int] = {}
        self._keywords: List[str] = []
        self._first = array("i")
        self._pages = array("i")
        self._records = array("i")
        self._bytes = array("i")

    def free_all(self) -> None:
        """Free every list's pages back to the disk and forget every row."""
        for first, count in zip(self._first, self._pages):
            for page_id in range(first, first + count):
                self.disk.free(page_id)
        self.clear()

    # -- ownership --------------------------------------------------------------------

    def owner(self, row: int, page_id: int) -> str:
        """``"label:keyword"`` when row ``row`` holds ``page_id``, else ""."""
        if row < len(self._keywords):
            first = self._first[row]
            if first <= page_id < first + self._pages[row]:
                return f"{self.label}:{self._keywords[row]}"
        return ""


def page_records(page: bytes) -> List[bytes]:
    """The record bodies of one list page, in order.

    The list scans' parser of the list page format, ``varint count ‖
    (varint length ‖ record)*``.  HDIL's external B+-tree leaves frame the
    same records without slicing them
    (:func:`repro.index.hdil.list_page_frame`).
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
