"""Lightweight structural constraints on keyword results (Section 7).

The paper lists "integration with structured queries" as future work; this
module provides the natural first step: restricting ranked keyword results
by a path pattern over element tags, in the spirit of XPath's abbreviated
syntax (and of XIRQL/XXL's mixed structure+keyword queries):

* ``a/b``    — element tagged ``b`` whose parent is tagged ``a``;
* ``//b``    — element tagged ``b`` at any depth;
* ``a//b``   — ``b`` with an ``a`` ancestor somewhere above;
* ``*``      — any tag at one step (``a/*/c``); partial wildcards such as
  ``ti*`` are rejected.

Patterns are matched against the *suffix* of a result element's tag path
(root → element), the conventional interpretation for search filters: the
pattern ``paper/title`` accepts any title element directly inside a paper
wherever the paper sits.  A leading ``/`` anchors the match at the document
root instead.

:meth:`PathFilter.predicate` is applied inside retrieval, not after it:
every evaluator passes it to its top-m heap as ``accept``, which tests it
only on results that rank into the heap.  The heap then holds the top-m
of the matching results, so one evaluation answers a path query and the
ranking semantics are untouched.
"""

from __future__ import annotations

from typing import Callable, List, Sequence

from ..errors import QueryError
from ..xmlmodel.graph import CollectionGraph
from ..xmlmodel.nodes import Element
from .answer_nodes import result_element
from .results import QueryResult

#: Marker for a descendant axis step ("//").
_ANY_DEPTH = "//"


def is_tag_name(token: str) -> bool:
    """Whether a path step can name the tag ``token``: letters, digits,
    ``-`` and ``_`` only (``*`` is a whole step, never part of a name)."""
    bare = token.replace("-", "").replace("_", "")
    return bool(token) and (not bare or bare.isalnum())


def parse_path_pattern(pattern: str) -> List[str]:
    """Parse an abbreviated path pattern into a step list.

    Returns steps like ``["", "a", "//", "b"]`` where the leading empty
    string marks a root-anchored pattern and ``"//"`` marks a descendant
    axis.  Raises :class:`QueryError` on malformed patterns.
    """
    if not pattern or pattern in ("/", "//"):
        raise QueryError("empty path pattern")
    steps: List[str] = []
    body = pattern
    if pattern.startswith("//"):
        # Leading descendant axis — equivalent to the default suffix match.
        body = pattern[2:]
    elif pattern.startswith("/"):
        steps.append("")  # root anchor
        body = pattern[1:]
    if not body:
        raise QueryError(f"path pattern {pattern!r} has no tag steps")

    previous_empty = False
    for token in body.split("/"):
        if token == "":
            # One empty token between names encodes a '//' axis.
            if previous_empty or not steps or steps[-1] == _ANY_DEPTH:
                raise QueryError(f"malformed path pattern {pattern!r}")
            previous_empty = True
            steps.append(_ANY_DEPTH)
            continue
        previous_empty = False
        # A step is "*" or a tag name; "ti*" would only match literally.
        if token != "*" and not is_tag_name(token):
            raise QueryError(f"bad path step {token!r} in {pattern!r}")
        steps.append(token)
    if steps and steps[-1] == _ANY_DEPTH:
        raise QueryError(f"path pattern {pattern!r} cannot end with //")
    if not any(step not in ("", _ANY_DEPTH) for step in steps):
        raise QueryError(f"path pattern {pattern!r} has no tag steps")
    return steps


def _matches(tags: Sequence[str], steps: Sequence[str]) -> bool:
    """Match a full root→element tag path against parsed steps."""
    anchored = bool(steps) and steps[0] == ""
    body = list(steps[1:]) if anchored else list(steps)

    def match_from(tag_index: int, step_index: int) -> bool:
        while True:
            if step_index == len(body):
                return tag_index == len(tags)
            step = body[step_index]
            if step == _ANY_DEPTH:
                next_step = step_index + 1
                # Try every possible depth for the following step.
                for skip in range(tag_index, len(tags)):
                    if match_from(skip, next_step):
                        return True
                return False
            if tag_index >= len(tags):
                return False
            if step != "*" and tags[tag_index] != step:
                return False
            tag_index += 1
            step_index += 1

    if anchored:
        return match_from(0, 0)
    # Suffix semantics: implicit leading "//".
    for start in range(len(tags)):
        if match_from(start, 0):
            return True
    return False


class PathFilter:
    """Restricts ranked results to elements matching a path pattern."""

    def __init__(self, pattern: str):
        self.pattern = pattern
        self.steps = parse_path_pattern(pattern)

    def matches_element(self, element: Element) -> bool:
        """Whether an element's tag path satisfies the pattern."""
        return _matches(element.tag_path(), self.steps)

    def predicate(
        self, graph: CollectionGraph
    ) -> Callable[[QueryResult], bool]:
        """The evaluators' ``accept`` test: the result's element matches."""

        def accept(result: QueryResult) -> bool:
            element = result_element(graph, result)
            return element is not None and self.matches_element(element)

        return accept
