"""Disjunctive ("or") keyword query semantics (paper Section 2.2).

The paper defines both semantics and focuses on conjunctive; this module
supplies the disjunctive counterpart.  Under ``Result(Q)`` with a
disjunctive ``R0`` (elements containing *at least one* keyword), every
element that directly contains any query keyword is in ``R0``, so the only
valid witnesses ``c ∉ R0`` are value nodes — which makes the disjunctive
result set exactly the set of *direct containers* of any query keyword.
No Dewey stack is needed: a single merge of the keyword lists by Dewey ID,
combining postings that share an element, produces the results.

Ranking follows the same Section 2.3.2 scheme restricted to the keywords an
element actually contains: ``sum_k w_k * r̂(v, k)`` over present keywords,
times the proximity of *those* keywords' position lists (an element with
only one of the keywords gets proximity 1, not 0 — missing keywords do not
zero out a disjunctive match).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..config import RankingParams
from ..errors import QueryError
from ..index.dil import DILIndex
from ..index.hdil import HDILIndex
from ..ranking.proximity import proximity
from .results import Accept, QueryResult, ResultHeap, validate_query
from .streams import PostingStream, smallest_head_index


def disjunctive_merge(
    streams: List[PostingStream],
    params: RankingParams,
    weights: Optional[Sequence[float]] = None,
):
    """Yield disjunctive results in Dewey order.

    Each yielded result's ``keyword_ranks`` has one slot per query keyword,
    zero where the element does not contain that keyword.
    """
    n = len(streams)
    if weights is None:
        weights = [1.0] * n
    while True:
        source = smallest_head_index(streams)
        if source is None:
            return
        dewey = streams[source].peek().dewey
        keyword_ranks = [0.0] * n
        position_lists: List[List[int]] = []
        for i, stream in enumerate(streams):
            if not stream.eof and stream.peek().dewey == dewey:
                posting = stream.next()
                if params.aggregation == "sum":
                    keyword_ranks[i] = posting.elemrank * len(posting.positions)
                else:
                    keyword_ranks[i] = posting.elemrank
                position_lists.append(sorted(posting.positions))
        rank = sum(w * r for w, r in zip(weights, keyword_ranks))
        if params.use_proximity:
            rank *= proximity(position_lists)
        yield QueryResult(
            rank=rank, dewey=dewey, keyword_ranks=tuple(keyword_ranks)
        )


class DisjunctiveEvaluator:
    """Evaluates "or" queries over a DIL or HDIL index (Dewey-ordered lists)."""

    def __init__(self, index, params: Optional[RankingParams] = None):
        if not isinstance(index, (DILIndex, HDILIndex)):
            raise QueryError(
                "disjunctive evaluation needs a Dewey-ordered index (DIL/HDIL)"
            )
        self.index = index
        self.params = params or RankingParams()

    def _cursor(self, keyword: str):
        if isinstance(self.index, HDILIndex):
            return self.index.full_cursor(keyword)
        return self.index.cursor(keyword)

    def evaluate(
        self,
        keywords: Sequence[str],
        m: int = 10,
        weights: Optional[Sequence[float]] = None,
        deadline=None,
        span=None,
        accept: Accept = None,
    ) -> List[QueryResult]:
        """Top-m disjunctive results for the keywords (those ``accept``
        admits, when given)."""
        validate_query(keywords, m, weights)
        self.index._require_built()
        streams = [
            PostingStream.from_cursor(
                self._cursor(keyword), self.index.deleted_docs
            )
            for keyword in keywords
        ]
        heap = ResultHeap(m, accept)
        for result in disjunctive_merge(streams, self.params, weights):
            heap.add(result)
            if deadline is not None and deadline.poll():
                break
        return heap.results()
