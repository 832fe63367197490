"""Incremental document additions: a main + delta DIL pair (Section 4.5).

The paper handles document-granularity updates "exactly like in traditional
inverted lists [7][34]": new documents accumulate in a small in-memory/side
index that queries consult alongside the main index, and a periodic merge
folds the side index into the main one.  This module implements that
scheme for the Dewey family:

* the **main** index is an ordinary bulk-built :class:`DILIndex`;
* additions go to a **delta** :class:`DILIndex` on the main index's
  simulated disk, so one ``disk`` answers I/O totals, fault plans and
  bytes used for the pair, like every other index kind.  An addition
  rewrites only the delta lists of the keywords it contains: each is its
  kept encoded records plus the new postings, encoded once and appended;
  the other lists are not touched;
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
from ..xmlmodel.nodes import Document
from .dil import DILIndex
from .postings import (
    Posting,
    PostingMap,
    attach_scores,
    extract_document_raw_postings,
    merge_raw_postings,
)

logger = logging.getLogger(__name__)


class DepthAverages:
    """The average ElemRank at each element depth of a reference ranking.

    Averaging walks the whole reference, so an index keeps one per
    reference instead of recomputing it on every addition.
    """

    def __init__(self, reference: Dict[DeweyId, float]):
        self.reference = reference
        by_depth: Dict[int, List[float]] = {}
        for dewey, score in reference.items():
            by_depth.setdefault(dewey.depth, []).append(score)
        self.by_depth = {
            depth: sum(scores) / len(scores) for depth, scores in by_depth.items()
        }
        self.fallback = (
            sum(reference.values()) / len(reference) if reference else 0.0
        )

    def score(self, depth: int) -> float:
        """The approximate ElemRank of a new element at ``depth``."""
        return self.by_depth.get(depth, self.fallback)


def approximate_scores(
    documents: Iterable[Document], averages: DepthAverages
) -> Dict[DeweyId, float]:
    """Depth-average ElemRank approximation for not-yet-ranked documents."""
    return {
        element.dewey: averages.score(element.dewey.depth)
        for document in documents
        for element in document.iter_elements()
    }


def postings_for_documents(
    documents: Iterable[Document], scores: Dict[DeweyId, float]
) -> PostingMap:
    """Direct postings for a batch of new documents, Dewey-ordered per
    keyword (the same two phases as :func:`extract_direct_postings`)."""
    per_document = [
        (document.doc_id, extract_document_raw_postings(document))
        for document in sorted(documents, key=lambda d: d.doc_id)
    ]
    return attach_scores(merge_raw_postings(per_document), scores)


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
        #: keyword -> the delta list's encoded postings, in Dewey order
        self._delta_records: Dict[str, List[bytes]] = {}
        self.max_doc_id = -1
        self.deleted_docs = self.main.deleted_docs
        self._averages: Optional[DepthAverages] = None

    def __getstate__(self) -> dict:
        # The depth averages are derived from the engine's ElemRank map.
        state = dict(self.__dict__)
        state["_averages"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        if "_delta_postings" in state:
            # Snapshots taken before the delta kept encoded records.
            postings = state.pop("_delta_postings")
            state["_delta_records"] = {
                keyword: [
                    p.encode()
                    for p in sorted(plist, key=lambda p: p.dewey.components)
                ]
                for keyword, plist in postings.items()
            }
        state.setdefault("_averages", None)
        self.__dict__.update(state)

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
        self._delta_records = {}
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
        merged.update(self._delta_records)
        return merged

    def has_keyword(self, keyword: str) -> bool:
        """True when main or delta indexes the keyword."""
        return self.main.has_keyword(keyword) or keyword in self._delta_records

    def list_length(self, keyword: str) -> int:
        """Total postings across main and delta."""
        delta = len(self._delta_records.get(keyword, ()))
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
            scores = approximate_scores(documents, self._depth_averages(reference))
        new_postings = postings_for_documents(documents, scores)
        if self.delta is None:
            self.delta = DILIndex(disk=self.disk)
            self.delta.build({})
        # The new ids exceed every delta id, so each touched list is its
        # kept records with the new ones appended: still Dewey-ordered.
        # Only those lists are rewritten, on main's disk, their old pages
        # freed first so ``disk.bytes_used()`` stays main + delta.
        for keyword, plist in new_postings.items():
            records = self._delta_records.setdefault(keyword, [])
            records.extend(posting.encode() for posting in plist)
            self.delta.replace_list(keyword, records)
        self.max_doc_id = max(d.doc_id for d in documents)
        logger.info(
            "added %d documents incrementally; rewrote %d delta lists",
            len(documents),
            len(new_postings),
        )

    def _depth_averages(
        self, reference: Optional[Dict[DeweyId, float]]
    ) -> DepthAverages:
        """The reference's depth averages, computed once per reference."""
        reference = reference or {}
        if self._averages is None or self._averages.reference is not reference:
            self._averages = DepthAverages(reference)
        return self._averages

    @property
    def delta_size(self) -> int:
        return sum(len(v) for v in self._delta_records.values())

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
        self._delta_records = {}

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
