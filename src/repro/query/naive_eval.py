"""Query processing for the naive baselines (paper Sections 4.1, 5.1).

Both baselines treat every element as an independent document, so they
reproduce the naive approach's documented flaws: ancestors of a genuine
result also match (spurious results), and ranking ignores result
specificity — an element's rank is simply the sum of its stored per-keyword
ElemRanks times keyword proximity.

* **Naive-ID** — equality merge-join over id-ordered lists; the scan can
  stop as soon as any list is exhausted (conjunctive semantics).
* **Naive-Rank** — the Threshold Algorithm over rank-ordered lists with a
  random hash probe per other keyword; "Naive-Rank does not need to
  determine longest common prefixes ... but only needs to determine if the
  same ID occurs in multiple lists.  Thus, a hash-index is sufficient."
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set

from ..config import RankingParams
from ..errors import QueryError
from ..index.naive import NaiveIdIndex, NaivePosting, NaiveRankIndex
from ..ranking.proximity import proximity
from ..storage.listfile import ListCursor
from .results import Accept, QueryResult, ResultHeap, validate_query


class _NaiveStream:
    """Peekable decoded stream over a naive list with tombstone filtering."""

    def __init__(
        self,
        cursor: Optional[ListCursor],
        deleted_docs: Set[int],
        doc_of_elem,
    ):
        self._cursor = cursor
        self._deleted = deleted_docs
        self._doc_of_elem = doc_of_elem
        self._head: Optional[NaivePosting] = None
        self._advance()

    def _advance(self) -> None:
        # Deadline-free by design: this only skips tombstoned postings to
        # reach the next live head; the evaluator loops driving next()
        # poll the deadline once per consumed posting.
        self._head = None
        if self._cursor is None:
            return
        while not self._cursor.eof:  # repro: ignore[deadline-discipline]
            posting = NaivePosting.decode(self._cursor.next())
            if self._doc_of_elem.get(posting.elem_id) in self._deleted:
                continue
            self._head = posting
            return

    @property
    def eof(self) -> bool:
        return self._head is None

    def peek(self) -> NaivePosting:
        if self._head is None:
            raise QueryError("peek past end of naive stream")
        return self._head

    def next(self) -> NaivePosting:
        posting = self.peek()
        self._advance()
        return posting


def _naive_rank(
    postings: Sequence[NaivePosting],
    params: RankingParams,
    weights: Optional[Sequence[float]] = None,
) -> float:
    """Specificity-blind overall rank: sum of ranks x keyword proximity."""
    if weights is None:
        total = sum(p.elemrank for p in postings)
    else:
        total = sum(w * p.elemrank for w, p in zip(weights, postings))
    if not params.use_proximity:
        return total
    return total * proximity([list(p.positions) for p in postings])


class NaiveIdEvaluator:
    """Equality merge-join over the id-ordered naive lists."""

    def __init__(self, index: NaiveIdIndex, params: Optional[RankingParams] = None):
        self.index = index
        self.params = params or RankingParams()

    def evaluate(
        self,
        keywords: Sequence[str],
        m: int = 10,
        weights: Optional[Sequence[float]] = None,
        deadline=None,
        span=None,
        accept: Accept = None,
    ) -> List[QueryResult]:
        """Top-m naive results by id-ordered merge-join."""
        validate_query(keywords, m, weights)
        self.index._require_built()
        streams = [
            _NaiveStream(
                self.index.cursor(keyword),
                self.index.deleted_docs,
                self.index.doc_of_elem,
            )
            for keyword in keywords
        ]
        heap = ResultHeap(m, accept)
        while not any(stream.eof for stream in streams):
            if deadline is not None and deadline.poll():
                break
            ids = [stream.peek().elem_id for stream in streams]
            smallest = min(ids)
            if all(elem_id == smallest for elem_id in ids):
                postings = [stream.next() for stream in streams]
                heap.add(
                    QueryResult(
                        rank=_naive_rank(postings, self.params, weights),
                        elem_id=smallest,
                        keyword_ranks=tuple(p.elemrank for p in postings),
                    )
                )
            else:
                # Advances each stream at most once per (polling) outer
                # iteration — bounded by the keyword count, not list size.
                for stream, elem_id in zip(streams, ids):  # repro: ignore[deadline-discipline]
                    if elem_id == smallest:
                        stream.next()
        return heap.results()


class NaiveRankEvaluator:
    """Threshold Algorithm over rank-ordered naive lists with hash probes."""

    def __init__(self, index: NaiveRankIndex, params: Optional[RankingParams] = None):
        self.index = index
        self.params = params or RankingParams()

    def evaluate(
        self,
        keywords: Sequence[str],
        m: int = 10,
        weights: Optional[Sequence[float]] = None,
        deadline=None,
        span=None,
        accept: Accept = None,
    ) -> List[QueryResult]:
        """Top-m naive results via the Threshold Algorithm."""
        validate_query(keywords, m, weights)
        scale = list(weights) if weights else [1.0] * len(keywords)
        self.index._require_built()
        streams = [
            _NaiveStream(
                self.index.cursor(keyword),
                self.index.deleted_docs,
                self.index.doc_of_elem,
            )
            for keyword in keywords
        ]
        n = len(keywords)
        current_ranks = [
            (stream.peek().elemrank if not stream.eof else 0.0)
            for stream in streams
        ]
        heap = ResultHeap(m, accept)
        seen: Set[int] = set()
        robin = 0
        while True:
            if deadline is not None and deadline.poll():
                break
            threshold = sum(w * r for w, r in zip(scale, current_ranks))
            if heap.full and heap.kth_rank() >= threshold:
                break
            source = None
            for offset in range(n):
                candidate = (robin + offset) % n
                if not streams[candidate].eof:
                    source = candidate
                    break
            if source is None:
                break
            robin = source + 1
            posting = streams[source].next()
            current_ranks[source] = (
                streams[source].peek().elemrank
                if not streams[source].eof
                else 0.0
            )
            if posting.elem_id in seen:
                continue
            seen.add(posting.elem_id)
            matches = self._probe_all(keywords, source, posting)
            if matches is not None:
                heap.add(
                    QueryResult(
                        rank=_naive_rank(matches, self.params, weights),
                        elem_id=posting.elem_id,
                        keyword_ranks=tuple(p.elemrank for p in matches),
                    )
                )
        return heap.results()

    def _probe_all(
        self, keywords: Sequence[str], source: int, posting: NaivePosting
    ) -> Optional[List[NaivePosting]]:
        """Random equality probes for the other keywords (TA's fan-out)."""
        matches: List[Optional[NaivePosting]] = [None] * len(keywords)
        matches[source] = posting
        for j, keyword in enumerate(keywords):
            if j == source:
                continue
            match = self.index.probe(keyword, posting.elem_id)
            if match is None:
                return None
            matches[j] = match
        return [p for p in matches if p is not None]
