"""Answer-node filtering and context navigation (paper Section 2.2).

Returning deeply nested elements poses a UI problem: a bare ``<title>`` says
nothing about what it titles.  The paper offers two remedies, both
implemented here:

* **navigation** — walk a result up to its ancestors for context
  (:func:`ancestor_context`);
* **answer nodes** — a domain expert predefines a set ``AN`` of element
  tags; only those elements may be results.  :class:`AnswerNodeFilter`
  post-processes a result list, either dropping non-answer results or
  *promoting* them to their nearest answer-node ancestor (deduplicated,
  keeping the best rank, with the promoted result re-scaled by ``decay``
  per level so specificity still counts).

For HTML documents only the root is an answer node, which makes XRANK
degrade gracefully to a document-granularity HTML engine.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from ..config import RankingParams
from ..xmlmodel.dewey import DeweyId
from ..xmlmodel.graph import CollectionGraph
from ..xmlmodel.nodes import Element
from .results import QueryResult


def result_element(
    graph: CollectionGraph, result: QueryResult
) -> Optional[Element]:
    """The element a result names, by Dewey ID or by the naive baselines'
    flat element id; None when the graph does not hold it."""
    if result.dewey is not None:
        return graph.element_by_dewey(result.dewey)
    if result.elem_id is not None and graph.elements:
        return graph.elements[result.elem_id]
    return None


def ancestor_context(
    graph: CollectionGraph, dewey: DeweyId
) -> List[Tuple[DeweyId, str]]:
    """(DeweyId, tag) of each ancestor of a result, nearest first."""
    element = graph.element_by_dewey(dewey)
    if element is None:
        return []
    return [(a.dewey, a.tag) for a in element.ancestors()]


class AnswerNodeFilter:
    """Restricts results to a predefined set of answer-node tags."""

    def __init__(
        self,
        answer_tags: Optional[Iterable[str]] = None,
        predicate: Optional[Callable[[Element], bool]] = None,
        html_root_only: bool = True,
    ):
        """Args:
            answer_tags: element tags allowed as results; None = all tags.
            predicate: arbitrary element predicate combined (AND) with tags.
            html_root_only: enforce the root-only rule for HTML documents.
        """
        self.answer_tags: Optional[Set[str]] = (
            set(answer_tags) if answer_tags is not None else None
        )
        self.predicate = predicate
        self.html_root_only = html_root_only

    def is_answer_node(self, element: Element, is_html: bool) -> bool:
        """Whether an element may be returned as a result."""
        if is_html and self.html_root_only:
            return element.parent is None
        if self.answer_tags is not None and element.tag not in self.answer_tags:
            return False
        if self.predicate is not None and not self.predicate(element):
            return False
        return True

    def apply(
        self,
        results: List[QueryResult],
        graph: CollectionGraph,
        params: Optional[RankingParams] = None,
        promote: bool = True,
    ) -> List[QueryResult]:
        """Filter (or promote) a ranked result list.

        With ``promote`` each non-answer result is lifted to its nearest
        answer-node ancestor, its rank decayed once per level climbed;
        duplicates keep the best rank.  Without ``promote`` non-answer
        results are dropped.
        """
        params = params or RankingParams()
        best: Dict[Tuple[int, ...], QueryResult] = {}
        order: List[Tuple[int, ...]] = []
        for result in results:
            element = result_element(graph, result)
            if element is None:
                continue
            document = graph.element_doc[graph.index_of[element.dewey]]
            resolved = self._resolve(element, document.is_html, result, params, promote)
            if resolved is None:
                continue
            # A naive result kept as-is has no Dewey ID: key it by its element.
            dewey = element.dewey if resolved.dewey is None else resolved.dewey
            key = dewey.components
            existing = best.get(key)
            if existing is None:
                best[key] = resolved
                order.append(key)
            elif resolved.rank > existing.rank:
                best[key] = resolved
        ranked = [best[key] for key in order]
        ranked.sort(key=lambda r: -r.rank)
        return ranked

    def _resolve(
        self,
        element: Element,
        is_html: bool,
        result: QueryResult,
        params: RankingParams,
        promote: bool,
    ) -> Optional[QueryResult]:
        if self.is_answer_node(element, is_html):
            return result
        if not promote:
            return None
        rank = result.rank
        for ancestor in element.ancestors():
            rank *= params.decay
            if self.is_answer_node(ancestor, is_html):
                return QueryResult(
                    rank=rank,
                    dewey=ancestor.dewey,
                    keyword_ranks=result.keyword_ranks,
                    proximity=result.proximity,
                )
        return None
