"""The single-pass Dewey-stack conjunctive merge (paper Figure 5).

This is the algorithmic core of DIL and is reused by RDIL/HDIL to *qualify*
a candidate ancestor (Figure 7 lines 17-25 need exactly the same
most-specific-result semantics inside one subtree).

The algorithm merges n Dewey-ordered posting streams, maintaining a stack
with one entry per component of the current Dewey ID.  For each new posting
it computes the longest common prefix with the stack, pops everything
deeper, and on each pop decides the popped element's fate:

* posLists non-empty for every keyword → the element is a *result*
  (Section 2.2 semantics); it is reported, flagged ``contains_all``, and its
  occurrences are **not** propagated to the parent — which both suppresses
  spurious ancestor results and implements the ``c ∉ R0`` witness rule;
* otherwise, if no descendant result was seen, its per-keyword aggregated
  ranks are scaled by ``decay`` (Section 2.3.2.1) and merged into the
  parent along with its posLists;
* an element whose subtree produced a result but which lacks independent
  occurrences of all keywords contributes nothing upward: all its
  occurrences sit under an R0 element and are unusable as witnesses.

The per-keyword aggregation ``f`` (max or sum) commutes with the decay
scaling (both are homogeneous), so running aggregates are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional

from ..config import RankingParams
from ..errors import QueryError
from ..obs.profile import active_profile
from ..ranking.proximity import proximity as proximity_of
from ..ranking.scoring import overall_rank
from ..xmlmodel.dewey import DeweyId
from .results import Accept, QueryResult, ResultHeap
from .streams import PostingStream, smallest_head_index


@dataclass
class _StackEntry:
    """State for one component of the current Dewey path."""

    dewey: DeweyId                     # full prefix ending at this component
    agg_ranks: List[float]             # f-aggregated rank per keyword
    pos_lists: List[List[int]]         # relevant positions per keyword
    contains_all: bool = False         # a result exists in this subtree

    @classmethod
    def fresh(cls, dewey: DeweyId, n: int) -> "_StackEntry":
        return cls(dewey, [0.0] * n, [[] for _ in range(n)])


def _combine(current: float, incoming: float, aggregation: str) -> float:
    if aggregation == "sum":
        return current + incoming
    return max(current, incoming)


def conjunctive_merge(
    streams: List[PostingStream],
    params: RankingParams,
    weights: Optional[List[float]] = None,
    deadline=None,
) -> Iterator[QueryResult]:
    """Yield all conjunctive results of the merged streams, in Dewey order.

    ``streams[i]`` must be the Dewey-ordered posting stream of keyword i.
    Results stream out as soon as their subtree closes, so a caller keeping
    only a top-m heap never materializes the full result set.

    ``weights`` optionally scales each keyword's aggregated rank in the
    overall rank (Section 2.3.2.2: "the individual keyword ranks can be
    weighted accordingly"); the combination stays monotone, so the RDIL
    Threshold-Algorithm stop condition remains valid with a weighted
    threshold.

    ``deadline`` is any object with a ``poll() -> bool`` method (see
    :class:`repro.service.admission.Deadline`); it is polled once per
    consumed posting, and when it reports expiry the merge stops *without*
    flushing the open stack — the caller receives exactly the results whose
    subtrees closed in time, never a half-aggregated element.
    """
    n = len(streams)
    if n == 0:
        return
    if weights is not None and len(weights) != n:
        raise QueryError("one weight per keyword stream is required")
    if any(stream.eof for stream in streams):
        # Conjunctive semantics: a keyword with no postings kills the query.
        return

    # Captured once per merge (the generator body runs inside the
    # profiled query); each loop below then pays one None check.
    profile = active_profile()
    stack: List[_StackEntry] = []

    def pop_and_maybe_yield() -> Optional[QueryResult]:
        top = stack.pop()
        if profile is not None:
            profile.merge_stack_pops += 1
        if all(top.pos_lists):
            keyword_ranks = tuple(top.agg_ranks)
            if weights is not None:
                weighted = [w * r for w, r in zip(weights, keyword_ranks)]
            else:
                weighted = list(keyword_ranks)
            position_lists = [sorted(pl) for pl in top.pos_lists]
            rank = overall_rank(weighted, position_lists, params)
            result = QueryResult(
                rank=rank,
                dewey=top.dewey,
                keyword_ranks=keyword_ranks,
                proximity=(
                    proximity_of(position_lists) if params.use_proximity else 1.0
                ),
                position_lists=tuple(tuple(pl) for pl in position_lists),
            )
            if stack:
                stack[-1].contains_all = True
            return result
        if stack:
            parent = stack[-1]
            if not top.contains_all:
                for i in range(n):
                    if top.pos_lists[i]:
                        parent.pos_lists[i].extend(top.pos_lists[i])
                        parent.agg_ranks[i] = _combine(
                            parent.agg_ranks[i],
                            top.agg_ranks[i] * params.decay,
                            params.aggregation,
                        )
            else:
                parent.contains_all = True
        return None

    while True:
        if deadline is not None and deadline.poll():
            # Expired: report only fully-closed subtrees (partial top-k).
            return
        source = smallest_head_index(streams, profile)
        if source is None:
            break
        posting = streams[source].next()
        components = posting.dewey.components

        # Longest common prefix between the stack and the new posting.
        lcp = 0
        for entry, component in zip(stack, components):
            if entry.dewey.components[lcp] != component:
                break
            lcp += 1
        if profile is not None:
            # Each zip step compared one stack component against the
            # posting's Dewey path (the mismatching step included).
            limit = min(len(stack), len(components))
            profile.dewey_comparisons += lcp + (1 if lcp < limit else 0)

        while len(stack) > lcp:
            result = pop_and_maybe_yield()
            if result is not None:
                yield result

        # Push the non-matching suffix of the posting's Dewey ID.
        for depth in range(lcp, len(components)):
            prefix = DeweyId(components[: depth + 1])
            stack.append(_StackEntry.fresh(prefix, n))
            if profile is not None:
                profile.merge_stack_pushes += 1

        top = stack[-1]
        top.pos_lists[source].extend(posting.positions)
        # f aggregates over *occurrences*: with f = sum each of the
        # occurrences in this element contributes ElemRank(v_t) once.
        if params.aggregation == "sum":
            incoming = posting.elemrank * len(posting.positions)
        else:
            incoming = posting.elemrank
        top.agg_ranks[source] = _combine(
            top.agg_ranks[source], incoming, params.aggregation
        )

    while stack:
        result = pop_and_maybe_yield()
        if result is not None:
            yield result


def single_keyword_top_m(
    stream: PostingStream,
    m: int,
    scale: float = 1.0,
    deadline=None,
    rank_ordered: bool = False,
    accept: Accept = None,
) -> List[QueryResult]:
    """Top-m of a one-keyword query — the paper's "(simple) special case".

    Every posting is its own most-specific result with rank ``ElemRank``
    (proximity of one keyword is 1) times the keyword's weight ``scale``, so
    the merge reduces to a top-m selection.  A Dewey-ordered list is scanned
    to its end; a ``rank_ordered`` one lists the best first, so its first m
    live *accepted* entries are the answer.  On ``deadline`` expiry the
    partial top-m found so far is returned.
    """
    heap = ResultHeap(m, accept)
    while not stream.eof and not (rank_ordered and heap.full):
        if deadline is not None and deadline.poll():
            break
        posting = stream.next()
        heap.add(
            QueryResult(
                rank=posting.elemrank * scale,
                dewey=posting.dewey,
                keyword_ranks=(posting.elemrank,),
            )
        )
    return heap.results()
