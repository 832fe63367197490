"""HDIL — the Hybrid Dewey Inverted List (paper Section 4.4).

Per keyword, HDIL stores:

* the **full** inverted list sorted by Dewey ID (DIL's list) — which doubles
  as the *leaf level* of the Dewey B+-tree, so the tree only pays for
  internal nodes ("the inverted list itself can serve as the leaf level of
  the B+-tree ... only the internal nodes of the B+-tree need to be
  explicitly stored"), explaining HDIL's tiny index column in Table 1;

* a **small rank-ordered head**: the top fraction of the list by ElemRank,
  enough for RDIL-style processing to find the top-m results of correlated
  queries without touching the full list.

Query processing starts in RDIL mode over the ranked head and adaptively
switches to a DIL scan of the full lists (:mod:`repro.query.hdil_eval`).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..config import HDILParams, StorageParams
from ..errors import IndexError_
from ..storage.btree import BTree
from ..storage.listfile import ListCursor, ListFile, page_records
from ..xmlmodel.dewey import DeweyId
from .base import KeywordIndex
from .postings import Posting, PostingMap, rank_order


def decode_list_page(page: bytes) -> List[Tuple[DeweyId, bytes]]:
    """Turn a raw list page into (dewey, full posting record) pairs.

    This is the external-leaf decoder handed to the B+-tree: postings start
    with their Dewey ID, so the list page is self-describing.
    """
    return [
        (DeweyId.decode(record, 0)[0], record) for record in page_records(page)
    ]


def decode_leaf_entry(_key: DeweyId, record: bytes) -> Posting:
    """Decode one :func:`decode_list_page` entry: a complete posting record."""
    return Posting.decode(record)


class HDILIndex(KeywordIndex):
    """Hybrid Dewey Inverted List index."""

    kind = "hdil"

    def __init__(
        self,
        storage_params: Optional[StorageParams] = None,
        hdil_params: Optional[HDILParams] = None,
    ):
        super().__init__(storage_params)
        self.params = hdil_params or HDILParams()
        self.full_lists: Dict[str, ListFile] = {}
        self.ranked_heads: Dict[str, ListFile] = {}
        self.btrees: Dict[str, BTree] = {}

    def build(self, postings: PostingMap) -> None:
        """Write full lists, ranked heads, and external-leaf B+-trees."""
        self.full_lists = {}
        self.ranked_heads = {}
        self.btrees = {}
        for keyword in sorted(postings):
            ordered = postings[keyword]
            records = [posting.encode() for posting in ordered]
            self.full_lists[keyword] = ListFile.write(
                self.disk, records, owner=f"hdil:{keyword}"
            )
        for keyword in sorted(postings):
            ordered = postings[keyword]
            head_size = max(
                self.params.min_rank_entries,
                int(len(ordered) * self.params.rank_fraction),
            )
            head = rank_order(ordered)[:head_size]
            self.ranked_heads[keyword] = ListFile.write(
                self.disk,
                [posting.encode() for posting in head],
                owner=f"hdil-head:{keyword}",
            )
        for keyword in sorted(postings):
            list_file = self.full_lists[keyword]
            if not list_file.page_ids:
                continue
            ordered = postings[keyword]
            page_index = [
                (ordered[first_record].dewey, page_id)
                for page_id, first_record in zip(
                    list_file.page_ids, list_file.page_boundaries
                )
            ]
            self.btrees[keyword] = BTree.build_over_pages(
                self.disk,
                page_index,
                leaf_decoder=decode_list_page,
                num_entries=list_file.num_records,
            )
        self._mark_built(postings)

    # -- keyword surface --------------------------------------------------------------

    def keywords(self) -> Iterable[str]:
        """All indexed keywords."""
        return self.full_lists.keys()

    def has_keyword(self, keyword: str) -> bool:
        """True when the keyword has an inverted list."""
        return keyword in self.full_lists

    def list_length(self, keyword: str) -> int:
        """Postings in the keyword's full list (0 if absent)."""
        list_file = self.full_lists.get(keyword)
        return list_file.num_records if list_file else 0

    def head_length(self, keyword: str) -> int:
        """Postings replicated in the rank-ordered head."""
        head = self.ranked_heads.get(keyword)
        return head.num_records if head else 0

    # -- access -----------------------------------------------------------------------------

    def full_cursor(self, keyword: str) -> Optional[ListCursor]:
        """Cursor over the Dewey-ordered full list (DIL mode)."""
        self._require_built()
        list_file = self.full_lists.get(keyword)
        return ListCursor(list_file) if list_file else None

    def ranked_cursor(self, keyword: str) -> Optional[ListCursor]:
        """Cursor over the rank-ordered head (RDIL mode)."""
        self._require_built()
        head = self.ranked_heads.get(keyword)
        return ListCursor(head) if head else None

    def btree(self, keyword: str) -> Optional[BTree]:
        """The keyword's external-leaf Dewey B+-tree, if any."""
        self._require_built()
        return self.btrees.get(keyword)

    def total_full_pages(self, keywords: Iterable[str]) -> int:
        """Pages a DIL-mode scan of these keywords would read."""
        self._require_built()
        missing = [k for k in keywords if k not in self.full_lists]
        if missing:
            raise IndexError_(f"keywords not indexed: {missing}")
        return sum(self.full_lists[k].num_pages for k in keywords)

    # -- accounting ---------------------------------------------------------------------------

    @property
    def inverted_list_bytes(self) -> int:
        # Full lists + the replicated rank-ordered heads: "the size of the
        # inverted list for HDIL is a bit higher than that for DIL".
        return sum(f.byte_size for f in self.full_lists.values()) + sum(
            h.byte_size for h in self.ranked_heads.values()
        )

    @property
    def index_bytes(self) -> Optional[int]:
        # Internal B+-tree nodes only; the leaf level is the list itself.
        return sum(tree.internal_bytes for tree in self.btrees.values())
