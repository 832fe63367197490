"""RDIL — the Ranked Dewey Inverted List (paper Section 4.3).

Same postings as DIL, but each keyword's list is ordered by *descending
ElemRank* so highly ranked entries surface first, and each list carries a
B+-tree on the Dewey ID field for longest-common-prefix probes and subtree
range scans.  Short lists' B+-trees are tiny single-leaf trees; the paper
packs several onto one shared page (Section 4.3.1), which the space report
models by charging each tree its exact bytes, not whole pages
(:attr:`~repro.storage.btree.BTree.index_bytes`) — pages are not physically
shared.

The ranked lists are located by one
:class:`~repro.storage.listfile.ListDirectory` (``lists``), whose lookups
are views built per call; the trees stay small slotted
:class:`~repro.storage.btree.BTree` objects, one per keyword.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from ..config import StorageParams
from ..storage.btree import BTree
from ..storage.listfile import ListCursor, ListDirectory
from .base import KeywordIndex
from .postings import PostingMap, rank_order


class RDILIndex(KeywordIndex):
    """Ranked Dewey Inverted List index."""

    kind = "rdil"

    def __init__(self, storage_params: Optional[StorageParams] = None):
        super().__init__(storage_params)
        self.lists = ListDirectory(self.disk, "rdil")
        self.btrees: Dict[str, BTree] = {}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.lists = ListDirectory.of(self.disk, "rdil", self.lists)

    def build(self, postings: PostingMap) -> None:
        """Write rank-ordered lists and bulk-load one B+-tree per keyword."""
        self.lists.clear()
        self.btrees = {}
        for keyword in sorted(postings):
            ranked = rank_order(postings[keyword])
            self.lists.write(keyword, [posting.encode() for posting in ranked])
        # B+-trees are loaded after all lists so list pages stay consecutive.
        for keyword in sorted(postings):
            entries = [
                (posting.dewey, posting.encode_payload())
                for posting in postings[keyword]  # already in Dewey order
            ]
            self.btrees[keyword] = BTree.bulk_load(self.disk, entries)
        self._mark_built(postings)

    # -- keyword surface ------------------------------------------------------------

    def keywords(self) -> Iterable[str]:
        """All indexed keywords."""
        return self.lists.keys()

    def has_keyword(self, keyword: str) -> bool:
        """True when the keyword has an inverted list."""
        return keyword in self.lists

    def list_length(self, keyword: str) -> int:
        """Number of postings in the keyword's list (0 if absent)."""
        return self.lists.num_records(keyword)

    # -- access ---------------------------------------------------------------------------

    def ranked_cursor(self, keyword: str) -> Optional[ListCursor]:
        """Cursor over the keyword's list in descending-ElemRank order."""
        self._require_built()
        list_file = self.lists.get(keyword)
        return ListCursor(list_file) if list_file else None

    def btree(self, keyword: str) -> Optional[BTree]:
        """The keyword's Dewey B+-tree, if any."""
        self._require_built()
        return self.btrees.get(keyword)

    # -- accounting ------------------------------------------------------------------------

    @property
    def inverted_list_bytes(self) -> int:
        return self.lists.total_bytes()

    @property
    def index_bytes(self) -> Optional[int]:
        # Exact bytes (shared-page packing for short lists): leaves + internal.
        return sum(tree.index_bytes for tree in self.btrees.values())
