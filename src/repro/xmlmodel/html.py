"""Tolerant HTML front-end (paper Sections 1, 2.2).

XRANK "naturally generalizes a hyperlink based HTML search engine": an HTML
document is treated as a *single XML element* with the presentation tags
removed, only the root is an answer node, and ``<a href>`` links become
hyperlink edges.  With two levels (document contains keywords) the system
degenerates to exactly a PageRank-style HTML engine.

This module parses tag soup with the lenient tokenizer and flattens it:

* all character data outside ``<script>``/``<style>`` becomes value nodes
  directly under one root element, preserving global word positions so
  proximity still works within a document;
* every ``href`` (and ``src``-less ``<a>`` is ignored) is lifted into an
  ``xlink`` pseudo-element that :mod:`repro.xmlmodel.graph` resolves into a
  hyperlink edge — identical plumbing to XML XLinks;
* unclosed tags, mismatched nesting, and void elements are all forgiven.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..text.tokenize import PositionCounter, words
from .dewey import DeweyId
from .nodes import Document, Element, ValueNode
from .tokens import TokenType, Tokenizer

#: Elements whose character data must never be indexed.
_SKIP_CONTENT = frozenset({"script", "style"})


class HTMLParser:
    """Parses one HTML document string into a flat :class:`Document`."""

    def parse(
        self,
        source: str,
        doc_id: int,
        uri: str = "",
        word_table: Optional[Dict[str, str]] = None,
    ) -> Document:
        """Parse one HTML string into a flat single-element document.

        ``word_table`` shares the document's words with every other
        document parsed with it (see :class:`PositionCounter`).
        """
        positions = PositionCounter(0, word_table)
        root = Element("html", DeweyId.root(doc_id))
        next_child = 0
        skip_depth = 0
        links: List[str] = []

        for token in Tokenizer(source, lenient=True).tokens():
            if token.type in (TokenType.COMMENT, TokenType.PI, TokenType.DOCTYPE):
                continue
            if token.type in (TokenType.START_TAG, TokenType.EMPTY_TAG):
                tag = token.value.lower()
                if tag in _SKIP_CONTENT and token.type == TokenType.START_TAG:
                    skip_depth += 1
                for name, value in token.attributes:
                    if name.lower() == "href" and value:
                        links.append(value)
                continue
            if token.type == TokenType.END_TAG:
                if token.value.lower() in _SKIP_CONTENT and skip_depth > 0:
                    skip_depth -= 1
                continue
            if token.type in (TokenType.TEXT, TokenType.CDATA):
                if skip_depth > 0:
                    continue
                text = token.value.strip()
                if not text:
                    continue
                dewey = root.dewey.child(next_child)
                next_child += 1
                root.append(ValueNode(dewey, text, positions.assign(words(text))))

        # Lift hyperlinks into xlink pseudo-elements so the graph layer can
        # resolve them exactly like XML XLinks.
        for target in links:
            dewey = root.dewey.child(next_child)
            next_child += 1
            link = Element("xlink", dewey, from_attribute=True)
            link.append(ValueNode(dewey.child(0), target, ()))
            root.append(link)

        return Document(
            doc_id, root, uri=uri, is_html=True, word_count=positions.position
        )


def parse_html(
    source: str,
    doc_id: int = 0,
    uri: str = "",
    word_table: Optional[Dict[str, str]] = None,
) -> Document:
    """Convenience wrapper: parse one HTML string into a flat document."""
    return HTMLParser().parse(source, doc_id, uri, word_table)
