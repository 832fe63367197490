"""DIL — the Dewey Inverted List (paper Section 4.2).

One inverted list per keyword, containing a posting for every element that
*directly* contains the keyword, sorted by Dewey ID.  No auxiliary index:
queries are answered with a single sequential merge pass
(:mod:`repro.query.dil_eval`).

The lists are located by one :class:`~repro.storage.listfile.ListDirectory`
(``lists``): ``lists[keyword]`` is a view built per lookup, and rewriting a
list (:meth:`DILIndex.replace_list`, the incremental delta's write path)
updates one row.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional

from ..config import StorageParams
from ..storage.disk import SimulatedDisk
from ..storage.listfile import ListCursor, ListDirectory
from .base import KeywordIndex
from .postings import Posting, PostingMap


class DILIndex(KeywordIndex):
    """Dewey Inverted List index."""

    kind = "dil"

    def __init__(
        self,
        storage_params: Optional[StorageParams] = None,
        disk: Optional[SimulatedDisk] = None,
    ):
        super().__init__(storage_params, disk)
        self.lists = ListDirectory(self.disk, "dil")

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.lists = ListDirectory.of(self.disk, "dil", self.lists)

    def build(self, postings: PostingMap) -> None:
        """Write each keyword's Dewey-ordered postings as one list file."""
        self.lists.clear()
        for keyword in sorted(postings):
            records = [posting.encode() for posting in postings[keyword]]
            self.lists.write(keyword, records)
        self._mark_built(postings)

    def replace_list(self, keyword: str, records: List[bytes]) -> None:
        """Rewrite one keyword's list from Dewey-ordered encoded postings.

        The old list's pages are freed first, so the new run can reuse them.
        """
        old = self.lists.get(keyword)
        if old is not None:
            for page_id in old.page_ids:
                self.disk.free(page_id)
            self._num_postings -= old.num_records
        self.lists.write(keyword, records)
        self._num_postings += len(records)

    # -- keyword surface -----------------------------------------------------------

    def keywords(self) -> Iterable[str]:
        """All indexed keywords."""
        return self.lists.keys()

    def has_keyword(self, keyword: str) -> bool:
        """True when the keyword has an inverted list."""
        return keyword in self.lists

    def list_length(self, keyword: str) -> int:
        """Number of postings in the keyword's list (0 if absent)."""
        return self.lists.num_records(keyword)

    # -- access ------------------------------------------------------------------------

    def cursor(self, keyword: str) -> Optional[ListCursor]:
        """A pull cursor over the keyword's list; None for unknown keywords."""
        self._require_built()
        list_file = self.lists.get(keyword)
        return ListCursor(list_file) if list_file else None

    def scan(self, keyword: str) -> Iterator[Posting]:
        """Decode the full list sequentially (mostly for tests/diagnostics)."""
        self._require_built()
        list_file = self.lists.get(keyword)
        if list_file is None:
            return
        for record in list_file.scan():
            yield Posting.decode(record)

    def total_pages(self, keywords: Iterable[str]) -> int:
        """Pages a DIL full scan of these keywords' lists would touch."""
        return sum(self.lists.num_pages(k) for k in keywords)

    # -- space reclamation --------------------------------------------------------------

    def free_all_lists(self) -> None:
        """Release every list page back to the disk (pre-rebuild compaction)."""
        self.lists.free_all()
        self.built = False

    # -- accounting -----------------------------------------------------------------------

    @property
    def inverted_list_bytes(self) -> int:
        return self.lists.total_bytes()

    @property
    def index_bytes(self) -> Optional[int]:
        return None  # Table 1 shows "N/A" for DIL
