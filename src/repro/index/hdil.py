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

Full lists and ranked heads are located by two
:class:`~repro.storage.listfile.ListDirectory` s on the index's disk
(``full_lists``, pages owned as ``hdil:kw``; ``ranked_heads``,
``hdil-head:kw``).  Each external-leaf tree records its leaf level as its
full list's page run.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..config import HDILParams, StorageParams
from ..errors import DeweyError, IndexError_, StorageError
from ..storage.btree import BTree, LeafFrame
from ..storage.listfile import ListCursor, ListDirectory
from ..xmlmodel.dewey import DeweyId, decode_components, decode_varint
from .base import KeywordIndex
from .postings import Posting, PostingMap, rank_order


def list_page_frame(page: bytes) -> LeafFrame:
    """One pass over a list page: each record's Dewey ID and byte span.

    This is the external-leaf decoder handed to the B+-tree: postings start
    with their Dewey ID, so the list page is self-describing.  Its entries
    are (dewey, full posting record) pairs, as :func:`decode_list_page`
    returns them.
    """
    count, pos = decode_varint(page, 0)
    size = len(page)
    starts: List[int] = []
    ends: List[int] = []
    # Every record is framed before the first Dewey ID is read, as
    # ListFile scans frame them.
    for _ in range(count):
        length, pos = decode_varint(page, pos)
        end = pos + length
        if end > size:
            raise StorageError("truncated record in list page")
        starts.append(pos)
        ends.append(end)
        pos = end
    keys: List[Tuple[int, ...]] = []
    for start, end in zip(starts, ends):
        key, key_end = decode_components(page, start)
        if key_end > end:
            raise DeweyError("truncated varint")
        keys.append(key)
    return LeafFrame(keys, starts, ends, page)


def decode_list_page(page: bytes) -> List[Tuple[DeweyId, bytes]]:
    """Turn a raw list page into (dewey, full posting record) pairs."""
    return list_page_frame(page).entries()


def decode_leaf_entry(_key: DeweyId, record: bytes) -> Posting:
    """Decode one external-leaf entry: a complete posting record."""
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
        self.full_lists = ListDirectory(self.disk, "hdil")
        self.ranked_heads = ListDirectory(self.disk, "hdil-head")
        self.btrees: Dict[str, BTree] = {}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.full_lists = ListDirectory.of(self.disk, "hdil", self.full_lists)
        self.ranked_heads = ListDirectory.of(
            self.disk, "hdil-head", self.ranked_heads
        )
        # Engine files from before leaf frames name decode_list_page.
        for tree in self.btrees.values():
            if tree.leaf_decoder is decode_list_page:
                tree.leaf_decoder = list_page_frame

    def build(self, postings: PostingMap) -> None:
        """Write full lists, ranked heads, and external-leaf B+-trees."""
        self.full_lists.clear()
        self.ranked_heads.clear()
        self.btrees = {}
        # Each full list's (first key, page) pairs, kept only until its
        # B+-tree is built: the directory does not keep page boundaries.
        page_indexes = {}
        for keyword in sorted(postings):
            ordered = postings[keyword]
            written = self.full_lists.write(
                keyword, [posting.encode() for posting in ordered]
            )
            page_indexes[keyword] = [
                (ordered[first_record].dewey, page_id)
                for page_id, first_record in zip(
                    written.page_ids, written.page_boundaries
                )
            ]
        for keyword in sorted(postings):
            ordered = postings[keyword]
            head_size = max(
                self.params.min_rank_entries,
                int(len(ordered) * self.params.rank_fraction),
            )
            head = rank_order(ordered)[:head_size]
            self.ranked_heads.write(keyword, [posting.encode() for posting in head])
        for keyword, page_index in page_indexes.items():
            if not page_index:
                continue
            self.btrees[keyword] = BTree.build_over_pages(
                self.disk,
                page_index,
                leaf_decoder=list_page_frame,
                num_entries=len(postings[keyword]),
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
        return self.full_lists.num_records(keyword)

    def head_length(self, keyword: str) -> int:
        """Postings replicated in the rank-ordered head."""
        return self.ranked_heads.num_records(keyword)

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
        return sum(self.full_lists.num_pages(k) for k in keywords)

    # -- accounting ---------------------------------------------------------------------------

    @property
    def inverted_list_bytes(self) -> int:
        # Full lists + the replicated rank-ordered heads: "the size of the
        # inverted list for HDIL is a bit higher than that for DIL".
        return self.full_lists.total_bytes() + self.ranked_heads.total_bytes()

    @property
    def index_bytes(self) -> Optional[int]:
        # Internal B+-tree nodes only; the leaf level is the list itself.
        return sum(tree.internal_bytes for tree in self.btrees.values())
