"""DIL — the Dewey Inverted List (paper Section 4.2).

One inverted list per keyword, containing a posting for every element that
*directly* contains the keyword, sorted by Dewey ID.  No auxiliary index:
queries are answered with a single sequential merge pass
(:mod:`repro.query.dil_eval`).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional

from ..config import StorageParams
from ..storage.disk import SimulatedDisk
from ..storage.listfile import ListCursor, ListFile
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
        self.lists: Dict[str, ListFile] = {}

    def build(self, postings: PostingMap) -> None:
        """Write each keyword's Dewey-ordered postings as one list file."""
        self.lists = {}
        for keyword in sorted(postings):
            records = [posting.encode() for posting in postings[keyword]]
            self.lists[keyword] = ListFile.write(
                self.disk, records, owner=f"dil:{keyword}"
            )
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
        self.lists[keyword] = ListFile.write(
            self.disk, records, owner=f"dil:{keyword}"
        )
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
        list_file = self.lists.get(keyword)
        return list_file.num_records if list_file else 0

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
        return sum(
            self.lists[k].num_pages for k in keywords if k in self.lists
        )

    # -- space reclamation --------------------------------------------------------------

    def free_all_lists(self) -> None:
        """Release every list page back to the disk (pre-rebuild compaction)."""
        for list_file in self.lists.values():
            for page_id in list_file.page_ids:
                self.disk.free(page_id)
        self.lists = {}
        self.built = False

    # -- accounting -----------------------------------------------------------------------

    @property
    def inverted_list_bytes(self) -> int:
        return sum(list_file.byte_size for list_file in self.lists.values())

    @property
    def index_bytes(self) -> Optional[int]:
        return None  # Table 1 shows "N/A" for DIL
