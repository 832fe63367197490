"""Incremental document additions: a main + delta DIL pair (Section 4.5).

The paper handles document-granularity updates "exactly like in traditional
inverted lists [7][34]": new documents accumulate in a small in-memory/side
index that queries consult alongside the main index, and a periodic merge
folds the side index into the main one.  This module implements that
scheme for the Dewey family:

* the **main** index is an ordinary bulk-built :class:`DILIndex`;
* additions go to a **delta** :class:`DILIndex`, rebuilt from accumulated
  postings (cheap — it covers only the new documents) on the main index's
  simulated disk, so one ``disk`` answers I/O totals, fault plans and
  bytes used for the pair, like every other index kind;
* a query cursor reads the main list file, then the delta's.  Because
  document ids are assigned monotonically, every delta Dewey ID is strictly
  greater than every main Dewey ID, so the cursor stays globally
  Dewey-ordered and the standard single-pass merge works unchanged;
* :meth:`merge` compacts everything into a fresh main index (also
  reclaiming tombstoned documents' postings).

ElemRank is computed offline in XRANK (Figure 2), so newly added documents
cannot have exact link-based scores until the next offline recomputation.
:func:`approximate_scores` supplies the standard stop-gap: a new element is
scored with the corpus average ElemRank at its depth — stale but unbiased —
and :meth:`merge` is the point where a caller would recompute exactly.
"""

from __future__ import annotations

import logging
from typing import Dict, Iterable, List, Optional

from ..config import StorageParams
from ..errors import IndexError_, IndexNotBuiltError
from ..storage.disk import SimulatedDisk
from ..storage.listfile import ListCursor
from ..xmlmodel.dewey import DeweyId
from ..xmlmodel.graph import CollectionGraph
from ..xmlmodel.nodes import Document
from .dil import DILIndex
from .postings import Posting, PostingMap, extract_direct_postings

logger = logging.getLogger(__name__)


def approximate_scores(
    documents: Iterable[Document],
    reference: Dict[DeweyId, float],
) -> Dict[DeweyId, float]:
    """Depth-average ElemRank approximation for not-yet-ranked documents."""
    by_depth: Dict[int, List[float]] = {}
    for dewey, score in reference.items():
        by_depth.setdefault(dewey.depth, []).append(score)
    averages = {
        depth: sum(scores) / len(scores) for depth, scores in by_depth.items()
    }
    fallback = (
        sum(reference.values()) / len(reference) if reference else 0.0
    )
    out: Dict[DeweyId, float] = {}
    for document in documents:
        for element in document.iter_elements():
            out[element.dewey] = averages.get(element.dewey.depth, fallback)
    return out


def postings_for_documents(
    documents: Iterable[Document], scores: Dict[DeweyId, float]
) -> PostingMap:
    """Direct postings for a batch of new documents."""
    graph = CollectionGraph()
    for document in documents:
        graph.add_document(document)
    graph.finalize()
    return extract_direct_postings(graph, scores)


class IncrementalDILIndex:
    """A DIL index that accepts document additions between full rebuilds.

    Duck-types the :class:`DILIndex` query surface (``cursor``,
    ``has_keyword``, ``list_length``, ``deleted_docs``, ``disk``), so
    :class:`~repro.query.dil_eval.DILEvaluator` and
    :class:`~repro.query.disjunctive.DisjunctiveEvaluator` work on it
    unchanged.
    """

    kind = "dil-incremental"

    def __init__(self, storage_params: Optional[StorageParams] = None):
        self.main = DILIndex(storage_params)
        self.delta: Optional[DILIndex] = None
        self._delta_postings: PostingMap = {}
        self.max_doc_id = -1
        self.deleted_docs = self.main.deleted_docs

    # -- DILIndex surface ----------------------------------------------------------

    @property
    def disk(self) -> SimulatedDisk:
        """The one simulated disk holding both main and delta."""
        return self.main.disk

    def reset_measurement(self, cold_cache: bool = True) -> None:
        """Prepare for one measured query (see :class:`KeywordIndex`)."""
        self.main.reset_measurement(cold_cache)

    @property
    def built(self) -> bool:
        return self.main.built

    def _require_built(self) -> None:
        if not self.main.built:
            raise IndexNotBuiltError("incremental index has not been built")

    def build(self, postings: PostingMap) -> None:
        """Bulk-build the main index; clears any delta."""
        self.main.build(postings)
        self.deleted_docs = self.main.deleted_docs
        self.delta = None
        self._delta_postings = {}
        self.max_doc_id = self._max_doc_id(postings)

    @staticmethod
    def _max_doc_id(postings: PostingMap) -> int:
        doc_ids = [
            p.dewey.doc_id for plist in postings.values() for p in plist
        ]
        return max(doc_ids) if doc_ids else -1

    def keywords(self):
        """Keywords across main and delta."""
        merged = set(self.main.keywords())
        merged.update(self._delta_postings)
        return merged

    def has_keyword(self, keyword: str) -> bool:
        """True when main or delta indexes the keyword."""
        return self.main.has_keyword(keyword) or keyword in self._delta_postings

    def list_length(self, keyword: str) -> int:
        """Total postings across main and delta."""
        delta = len(self._delta_postings.get(keyword, ()))
        return self.main.list_length(keyword) + delta

    def cursor(self, keyword: str) -> Optional[ListCursor]:
        """Dewey-ordered cursor over the main list, then the delta's."""
        self._require_built()
        files = [
            index.lists[keyword]
            for index in (self.main, self.delta)
            if index is not None and keyword in index.lists
        ]
        return ListCursor(*files) if files else None

    def delete_document(self, doc_id: int) -> None:
        """Tombstone a document across main and delta."""
        self._require_built()
        self.deleted_docs.add(doc_id)

    # -- additions ---------------------------------------------------------------------

    def add_documents(
        self,
        documents: List[Document],
        scores: Optional[Dict[DeweyId, float]] = None,
        reference: Optional[Dict[DeweyId, float]] = None,
    ) -> None:
        """Index new documents without rebuilding the main index.

        Document ids must exceed every id already indexed (the engine's
        monotone id assignment guarantees this); that invariant is what
        keeps main-then-delta cursors Dewey-ordered.
        """
        self._require_built()
        if not documents:
            return
        smallest = min(d.doc_id for d in documents)
        if smallest <= self.max_doc_id:
            raise IndexError_(
                f"new document ids must exceed {self.max_doc_id}, got {smallest}"
            )
        if scores is None:
            scores = approximate_scores(documents, reference or {})
        new_postings = postings_for_documents(documents, scores)
        for keyword, plist in new_postings.items():
            self._delta_postings.setdefault(keyword, []).extend(plist)
        self.max_doc_id = max(d.doc_id for d in documents)
        logger.info(
            "added %d documents incrementally; delta now holds %d postings",
            len(documents),
            sum(len(v) for v in self._delta_postings.values()),
        )
        # Rebuild the (small) delta index from the accumulated postings, on
        # main's disk: the previous delta's pages are freed first so the
        # rebuild reuses them and ``disk.bytes_used()`` stays main + delta.
        if self.delta is not None:
            self.delta.free_all_lists()
        self.delta = DILIndex(disk=self.disk)
        self.delta.build(
            {k: sorted(v, key=lambda p: p.dewey.components)
             for k, v in self._delta_postings.items()}
        )

    @property
    def delta_size(self) -> int:
        return sum(len(v) for v in self._delta_postings.values())

    # -- compaction ---------------------------------------------------------------------

    def merge(self) -> None:
        """Fold the delta into the main index in place, dropping tombstones.

        Old list pages are freed first so the rebuild reuses them
        (:meth:`SimulatedDisk.allocate_run`), keeping the main disk compact
        across repeated merge cycles.
        """
        self._require_built()
        combined: PostingMap = {}
        for keyword in sorted(self.keywords()):
            postings: List[Posting] = [
                p
                for index in (self.main, self.delta)
                if index is not None
                for p in index.scan(keyword)
                if p.dewey.doc_id not in self.deleted_docs
            ]
            if postings:
                combined[keyword] = postings
        if self.delta is not None:
            self.delta.free_all_lists()
        self.main.free_all_lists()
        self.main.build(combined)
        self.main.deleted_docs.clear()
        logger.info(
            "merged delta into main: %d keywords, %d bytes of lists, "
            "%d free pages remain",
            len(combined),
            self.main.inverted_list_bytes,
            self.disk.num_free_pages,
        )
        self.deleted_docs = self.main.deleted_docs
        self.delta = None
        self._delta_postings = {}

    # -- accounting ------------------------------------------------------------------------

    @property
    def inverted_list_bytes(self) -> int:
        total = self.main.inverted_list_bytes
        if self.delta is not None:
            total += self.delta.inverted_list_bytes
        return total

    @property
    def index_bytes(self) -> Optional[int]:
        return None
