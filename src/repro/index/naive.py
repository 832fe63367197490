"""The naive baselines (paper Sections 4.1 and 5.1).

Both treat every XML element as an independent document: the inverted list
for keyword ``k`` holds an entry for *every* element that directly or
indirectly contains ``k`` — so each occurrence is replicated onto all of its
ancestors, the space overhead that motivates the Dewey encoding.  Elements
are identified by flat integer ids (their global pre-order number), the
cheapest honest encoding for this scheme.

* **Naive-ID** orders each list by element id and answers queries with a
  simple equality merge-join.
* **Naive-Rank** orders each list by descending ElemRank, builds a *hash
  index* on the id field per list, and runs the Threshold Algorithm with
  random equality probes — no longest-common-prefix machinery is needed
  because ancestors are materialized.

Both inherit the naive semantics the paper criticizes: ancestors of a
result are reported as (spurious) results too, and ranking ignores result
specificity.

Position lists of naive entries are capped at :data:`MAX_NAIVE_POSITIONS`:
an ancestor entry near the root of a deep document would otherwise carry
*every* descendant occurrence (the pathological case being a frequent
keyword's entry for the XMark root).  The cap keeps records page-sized; it
slightly *understates* the naive space overhead in Table 1 and makes
proximity for huge spurious ancestors approximate — both conservative with
respect to the paper's claims.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..config import StorageParams
from ..storage.hashindex import HashIndex
from ..storage.listfile import ListCursor, ListDirectory
from ..storage.records import RecordReader, RecordWriter
from ..xmlmodel.dewey import DeweyId
from ..xmlmodel.graph import CollectionGraph
from .base import KeywordIndex
from .postings import PostingMap


#: Maximum positions stored per naive entry (see module docstring).
MAX_NAIVE_POSITIONS = 64


@dataclass(frozen=True)
class NaivePosting:
    """A naive inverted-list entry: flat element id + rank + posList."""

    elem_id: int
    elemrank: float
    positions: Tuple[int, ...]

    def encode(self) -> bytes:
        """Serialize as varint id + float32 rank + delta posList."""
        writer = RecordWriter()
        writer.uint(self.elem_id)
        writer.float32(self.elemrank)
        writer.uint_list(list(self.positions))
        return writer.getvalue()

    @classmethod
    def decode(cls, data: bytes) -> "NaivePosting":
        reader = RecordReader(data)
        elem_id = reader.uint()
        elemrank = reader.float32()
        positions = tuple(reader.uint_list())
        return cls(elem_id, elemrank, positions)


#: keyword -> naive postings sorted by element id.
NaivePostingMap = Dict[str, List[NaivePosting]]


def expand_naive_postings(
    direct: PostingMap, graph: CollectionGraph, elemranks=None
) -> NaivePostingMap:
    """Replicate direct postings onto every ancestor, with flat ids.

    ``elemranks`` is any structure indexable by element id (the ElemRank
    score vector); ancestor entries — which have no direct posting to copy a
    rank from — take their rank from it, defaulting to 0.0 when absent.
    The global pre-order index is ascending in Dewey order, so sorting by
    element id preserves document order.
    """
    naive: NaivePostingMap = {}
    for keyword, posting_list in direct.items():
        merged: Dict[int, List[int]] = {}
        ranks: Dict[int, float] = {}
        for posting in posting_list:
            elem_id = graph.index_of[posting.dewey]
            merged.setdefault(elem_id, []).extend(posting.positions)
            ranks[elem_id] = posting.elemrank
            for ancestor in posting.dewey.ancestors():
                ancestor_id = graph.index_of[ancestor]
                merged.setdefault(ancestor_id, []).extend(posting.positions)
        entries: List[NaivePosting] = []
        for elem_id in sorted(merged):
            rank = ranks.get(elem_id)
            if rank is None:
                rank = float(elemranks[elem_id]) if elemranks is not None else 0.0
            positions = tuple(sorted(merged[elem_id])[:MAX_NAIVE_POSITIONS])
            entries.append(NaivePosting(elem_id, rank, positions))
        naive[keyword] = entries
    return naive


class _NaiveBase(KeywordIndex):
    """Common build/accounting for the two naive variants.

    The lists are located by one :class:`~repro.storage.listfile.ListDirectory`
    whose pages are owned as ``naive-id:kw`` / ``naive-rank:kw``.
    """

    def __init__(self, storage_params: Optional[StorageParams] = None):
        super().__init__(storage_params)
        self.lists = ListDirectory(self.disk, self.kind)
        self.doc_of_elem: Dict[int, int] = {}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.lists = ListDirectory.of(self.disk, self.kind, self.lists)

    def _build_lists(
        self, naive_postings: NaivePostingMap, graph: CollectionGraph, by_rank: bool
    ) -> None:
        self.lists.clear()
        self.doc_of_elem = {
            i: doc.doc_id for i, doc in enumerate(graph.element_doc)
        }
        for keyword in sorted(naive_postings):
            entries = naive_postings[keyword]
            if by_rank:
                entries = sorted(
                    entries, key=lambda p: (-p.elemrank, p.elem_id)
                )
            self.lists.write(keyword, [entry.encode() for entry in entries])

    def keywords(self) -> Iterable[str]:
        return self.lists.keys()

    def has_keyword(self, keyword: str) -> bool:
        return keyword in self.lists

    def list_length(self, keyword: str) -> int:
        return self.lists.num_records(keyword)

    def cursor(self, keyword: str) -> Optional[ListCursor]:
        self._require_built()
        list_file = self.lists.get(keyword)
        return ListCursor(list_file) if list_file else None

    def scan(self, keyword: str) -> Iterator[NaivePosting]:
        self._require_built()
        list_file = self.lists.get(keyword)
        if list_file is None:
            return
        for record in list_file.scan():
            yield NaivePosting.decode(record)

    @property
    def inverted_list_bytes(self) -> int:
        return self.lists.total_bytes()


class NaiveIdIndex(_NaiveBase):
    """Naive lists ordered by element id; merge-join evaluation."""

    kind = "naive-id"

    def build(self, postings: PostingMap) -> None:  # pragma: no cover
        """Unsupported: naive builds need the graph — use build_naive."""
        raise NotImplementedError("use build_naive(graph, direct_postings)")

    def build_naive(
        self, graph: CollectionGraph, direct: PostingMap, elemranks=None
    ) -> None:
        """Expand direct postings onto ancestors and bulk-build."""
        naive = expand_naive_postings(direct, graph, elemranks)
        self._build_lists(naive, graph, by_rank=False)
        self._mark_built(naive)

    @property
    def index_bytes(self) -> Optional[int]:
        return None  # Table 1: "N/A"


class NaiveRankIndex(_NaiveBase):
    """Naive lists ordered by rank, plus a hash index on the id field."""

    kind = "naive-rank"

    def __init__(self, storage_params: Optional[StorageParams] = None):
        super().__init__(storage_params)
        self.hash_indexes: Dict[str, HashIndex] = {}

    def build(self, postings: PostingMap) -> None:  # pragma: no cover
        """Unsupported: naive builds need the graph — use build_naive."""
        raise NotImplementedError("use build_naive(graph, direct_postings)")

    def build_naive(
        self, graph: CollectionGraph, direct: PostingMap, elemranks=None
    ) -> None:
        """Expand onto ancestors, rank-order, and build hash indexes."""
        naive = expand_naive_postings(direct, graph, elemranks)
        self._build_lists(naive, graph, by_rank=True)
        self.hash_indexes = {}
        for keyword in sorted(naive):
            entries = [
                (_id_key(posting.elem_id), _hash_payload(posting))
                for posting in naive[keyword]
            ]
            self.hash_indexes[keyword] = HashIndex.build(self.disk, entries)
        self._mark_built(naive)

    def probe(self, keyword: str, elem_id: int) -> Optional[NaivePosting]:
        """Random equality lookup: is ``elem_id`` in keyword's list?"""
        self._require_built()
        hash_index = self.hash_indexes.get(keyword)
        if hash_index is None:
            return None
        payload = hash_index.lookup(_id_key(elem_id))
        if payload is None:
            return None
        reader = RecordReader(payload)
        return NaivePosting(elem_id, reader.float32(), tuple(reader.uint_list()))

    @property
    def index_bytes(self) -> Optional[int]:
        return sum(h.byte_size for h in self.hash_indexes.values())


def _id_key(elem_id: int) -> DeweyId:
    """Flat ids reuse the Dewey codec as single-component keys."""
    return DeweyId((elem_id,))


def _hash_payload(posting: NaivePosting) -> bytes:
    writer = RecordWriter()
    writer.float32(posting.elemrank)
    writer.uint_list(list(posting.positions))
    return writer.getvalue()
