"""DIL query processing (paper Section 4.2.2, Figure 5).

A single sequential pass over the query keywords' Dewey-ordered inverted
lists: merge by Dewey ID, maintain the Dewey stack, and keep the top-m
results in a bounded heap.  Cost is dominated by the full sequential scan of
every keyword's list — flat in the number of requested results ``m`` and in
keyword correlation, which is exactly why DIL wins on uncorrelated keywords
(Figure 11) and loses to RDIL on correlated ones (Figure 10).

The single-keyword query is the paper's "(simple) special case": every
posting is its own most-specific result with rank ``ElemRank`` (proximity of
one keyword is 1), so the pass reduces to a top-m selection over the list.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..config import RankingParams
from ..index.dil import DILIndex
from ..obs import NOOP_SPAN
from .merge import conjunctive_merge, single_keyword_top_m
from .results import Accept, QueryResult, ResultHeap, validate_query
from .streams import PostingStream, open_stream


class DILEvaluator:
    """Evaluates conjunctive keyword queries against a :class:`DILIndex`.

    ``list_cache`` (optional, attached by the serving layer) is a
    :class:`repro.service.cache.GenerationalLRU` holding decoded posting
    lists; when present, hot lists are decoded once and reused across
    queries instead of being re-read from the simulated disk.
    """

    def __init__(self, index: DILIndex, params: Optional[RankingParams] = None):
        self.index = index
        self.params = params or RankingParams()
        self.list_cache = None

    def _traced_stream(self, keyword: str, span) -> PostingStream:
        """One keyword's stream, reporting its load I/O into ``span``.

        With a list cache attached, ``get_or_load`` decodes the whole
        list eagerly, so the I/O delta captured here is the real cost of
        a cache miss (and an empty delta *is* the cache hit); without a
        cache, cursors read lazily during the merge and the per-list
        span records structure only.
        """
        with span.child("postings", keyword=keyword) as list_span:
            before = (
                self.index.disk.stats.snapshot()
                if list_span.recording
                else None
            )
            stream = open_stream(
                self.index, "full", self.index.cursor, keyword, self.list_cache
            )
            if before is not None:
                list_span.attach_io(
                    self.index.disk.stats.delta_since(before)
                )
        return stream

    def evaluate(
        self,
        keywords: Sequence[str],
        m: int = 10,
        weights: Optional[Sequence[float]] = None,
        deadline=None,
        span=None,
        accept: Accept = None,
    ) -> List[QueryResult]:
        """Top-m results for the conjunctive query ``keywords``.

        ``weights`` optionally scales each keyword's contribution to the
        overall rank (one positive weight per keyword).  ``deadline`` is an
        optional ``poll() -> bool`` object; on expiry the partial top-m
        found so far is returned (the serving layer flags it degraded).
        ``span`` (optional) receives per-posting-list child spans.
        ``accept`` (optional) restricts the top-m to the results it admits.
        """
        validate_query(keywords, m, weights)
        self.index._require_built()
        span = span or NOOP_SPAN

        if len(keywords) == 1:
            return single_keyword_top_m(
                self._traced_stream(keywords[0], span),
                m,
                weights[0] if weights else 1.0,
                deadline,
                accept=accept,
            )

        streams = [
            self._traced_stream(keyword, span) for keyword in keywords
        ]
        heap = ResultHeap(m, accept)
        for result in conjunctive_merge(
            streams,
            self.params,
            list(weights) if weights else None,
            deadline=deadline,
        ):
            heap.add(result)
        return heap.results()
