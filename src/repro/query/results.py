"""Query results and the top-m result heap.

A :class:`QueryResult` identifies a result element either by Dewey ID
(Dewey-family indexes) or by flat element id (naive baselines), and carries
the overall rank plus the per-keyword diagnostics the examples display.

:class:`ResultHeap` is the bounded min-heap of Figure 5/7: it retains the m
best results seen so far and exposes ``kth_rank`` — the rank of the m-th
best — which the Threshold Algorithm compares against its threshold.  An
optional ``accept`` predicate (a structural constraint, Section 7) gates
entry, so the heap holds the top-m of the *accepted* results and every
stop rule reading it stays exact.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from ..errors import QueryError
from ..obs.profile import active_profile
from ..xmlmodel.dewey import DeweyId


def validate_query(
    keywords: Sequence[str],
    m: int,
    weights: Optional[Sequence[float]] = None,
) -> None:
    """Shared argument validation for every evaluator."""
    if not keywords:
        raise QueryError("a keyword query needs at least one keyword")
    if m < 1:
        raise QueryError("m must be at least 1")
    if weights is not None:
        if len(weights) != len(keywords):
            raise QueryError("one weight per keyword is required")
        if any(w <= 0 for w in weights):
            raise QueryError("keyword weights must be positive")


@dataclass(frozen=True)
class QueryResult:
    """One ranked query result."""

    rank: float
    dewey: Optional[DeweyId] = None
    elem_id: Optional[int] = None
    keyword_ranks: Tuple[float, ...] = ()
    proximity: float = 1.0
    #: per-keyword sorted positions of the relevant occurrences (filled by
    #: the Dewey-family merges; used by XRankEngine.explain)
    position_lists: Tuple[Tuple[int, ...], ...] = ()

    def identifier(self) -> str:
        """Display identifier: dotted Dewey ID or #elem_id."""
        if self.dewey is not None:
            return str(self.dewey)
        return f"#{self.elem_id}"


def result_order_key(result: QueryResult) -> Tuple:
    """Canonical identifier order for tie-breaking: Dewey ID (document
    order), falling back to flat element id for the naive baselines.

    Equal-rank results are ordered by this key ascending, making the
    top-m a pure function of the result *set* rather than of the order in
    which an evaluation strategy happened to discover the results.  That
    total order is what lets a distributed deployment (repro.cluster)
    merge per-shard top-m lists into exactly the single-node answer.
    """
    if result.dewey is not None:
        return result.dewey.components
    return (result.elem_id,)


#: Which results may enter a top-m heap; None accepts every result.
Accept = Optional[Callable[[QueryResult], bool]]


class _Worse:
    """Heap entry wrapper: compares ``lower = worse`` under the canonical
    result order (higher rank wins, then smaller identifier wins)."""

    __slots__ = ("rank", "order", "result")

    def __init__(self, result: QueryResult):
        self.rank = result.rank
        self.order = result_order_key(result)
        self.result = result

    def __lt__(self, other: "_Worse") -> bool:
        if self.rank != other.rank:
            return self.rank < other.rank
        return self.order > other.order


class ResultHeap:
    """Keeps the top-m results by rank (ties broken by Dewey order).

    Ties at equal rank are resolved by :func:`result_order_key` ascending
    — smaller Dewey IDs (earlier in document order) survive — so the
    retained set and its final order are independent of arrival order.

    ``accept`` is consulted only for a result that passes the rank test,
    so a non-selective predicate costs nothing on the results the heap
    would drop anyway.
    """

    def __init__(self, capacity: int, accept: Accept = None):
        if capacity < 1:
            raise QueryError("result capacity must be at least 1")
        self.capacity = capacity
        self._accept = accept
        self._heap: List[_Worse] = []
        # Captured once: heaps are built inside the profiled query, so
        # each add() pays at most one None check for profiling-off.
        self._profile = active_profile()

    def add(self, result: QueryResult) -> bool:
        """Offer a result; returns True when it enters the top-m.

        Identifiers are not deduplicated here: no evaluator offers the
        same element twice, and the cluster merge does its own dedup."""
        entry = _Worse(result)
        full = len(self._heap) >= self.capacity
        if full and not self._heap[0] < entry:
            return False
        if self._accept is not None and not self._accept(result):
            return False
        if full:
            heapq.heapreplace(self._heap, entry)
        else:
            heapq.heappush(self._heap, entry)
        profile = self._profile
        if profile is not None:
            profile.heap_pushes += 1
            profile.heap_evictions += full
        return True

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def full(self) -> bool:
        return len(self._heap) >= self.capacity

    def kth_rank(self) -> float:
        """Rank of the m-th best result; -inf while fewer than m are held."""
        if not self.full:
            return float("-inf")
        return self._heap[0].rank

    def count_at_least(self, rank: float) -> int:
        """How many held results rank at or above ``rank``."""
        return sum(1 for entry in self._heap if entry.rank >= rank)

    def results(self) -> List[QueryResult]:
        """Contents sorted by descending rank; ties in Dewey order.

        The tiebreak matches the heap's retention rule, so paging with
        different ``m`` values over tied ranks stays consistent."""
        ordered = sorted(self._heap, key=lambda e: (-e.rank, e.order))
        return [entry.result for entry in ordered]
