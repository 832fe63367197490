"""Recursive XML parser producing Dewey-numbered :class:`Document` trees.

The parser walks the token stream from :mod:`repro.xmlmodel.tokens` and
builds the node model of :mod:`repro.xmlmodel.nodes`, performing three jobs
the paper's index builder depends on:

1. **Dewey numbering** — every child of an element (attribute
   pseudo-elements first, then sub-elements and value nodes in document
   order) receives the next sibling position, and its Dewey ID is the
   parent's ID extended by that position (paper Figure 3).

2. **Attribute lifting** — each attribute becomes a child element whose tag
   is the attribute name and whose single value node holds the attribute
   value (Section 2.1: "we treat attributes as though they are
   sub-elements").

3. **Global word positions** — all text (tag names, attribute names and
   values, character data) is tokenized, and each word occurrence is given a
   document-wide position, the basis for the smallest-window proximity
   measure.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..errors import XMLParseError
from ..text.tokenize import PositionCounter, words
from .dewey import DeweyId
from .nodes import Document, Element, ValueNode
from .tokens import Token, TokenType, Tokenizer

#: Attribute names whose *values* are reference targets, not searchable text.
#: They are still lifted into pseudo-elements (the graph layer reads them)
#: but their values are not tokenized into the index.
HYPERLINK_ATTRIBUTES = frozenset(
    {"ref", "idref", "idrefs", "xlink", "href", "xlink:href"}
)


class XMLParser:
    """Parses one XML document string into a :class:`Document`.

    Args:
        index_tag_names: when True (default) element tag names and attribute
            names contribute word occurrences, per the paper's data model in
            which names are values too.
        keep_whitespace_values: when False (default) pure-whitespace text is
            dropped instead of becoming empty value nodes.
    """

    def __init__(
        self,
        index_tag_names: bool = True,
        keep_whitespace_values: bool = False,
    ):
        self.index_tag_names = index_tag_names
        self.keep_whitespace_values = keep_whitespace_values

    def parse(
        self,
        source: str,
        doc_id: int,
        uri: str = "",
        word_table: Optional[Dict[str, str]] = None,
    ) -> Document:
        """Parse ``source`` and return a Dewey-numbered document.

        ``word_table`` shares the document's words with every other
        document parsed with it (see :class:`PositionCounter`).
        """
        tokens = list(Tokenizer(source).tokens())
        return self._build(tokens, doc_id, uri, PositionCounter(0, word_table))

    # -- tree construction ------------------------------------------------------

    def _build(
        self,
        tokens: List[Token],
        doc_id: int,
        uri: str,
        positions: PositionCounter,
    ) -> Document:
        root: Optional[Element] = None
        stack: List[Element] = []
        # Per-open-element counter of the next sibling position.
        child_counters: List[int] = []

        def next_child_dewey() -> DeweyId:
            dewey = stack[-1].dewey.child(child_counters[-1])
            child_counters[-1] += 1
            return dewey

        def open_element(token: Token) -> Element:
            if stack:
                dewey = next_child_dewey()
            else:
                dewey = DeweyId.root(doc_id)
            tag_words = (
                positions.assign(words(token.value)) if self.index_tag_names else []
            )
            element = Element(token.value, dewey, tag_words=tag_words)
            if stack:
                stack[-1].append(element)
            stack.append(element)
            child_counters.append(0)
            # Attributes occupy the first sibling positions.
            for name, value in token.attributes:
                attr_dewey = next_child_dewey()
                name_words = (
                    positions.assign(words(name)) if self.index_tag_names else []
                )
                attr_element = Element(
                    name, attr_dewey, tag_words=name_words, from_attribute=True
                )
                element.append(attr_element)
                if name.lower() in HYPERLINK_ATTRIBUTES:
                    value_words: List = []
                else:
                    value_words = positions.assign(words(value))
                attr_element.append(
                    ValueNode(attr_dewey.child(0), value, value_words)
                )
            return element

        def add_text(token: Token) -> None:
            if not stack:
                if token.value.strip():
                    raise XMLParseError(
                        "character data outside the root element", line=token.line
                    )
                return
            if not token.value.strip() and not self.keep_whitespace_values:
                return
            dewey = next_child_dewey()
            value_words = positions.assign(words(token.value))
            stack[-1].append(ValueNode(dewey, token.value.strip(), value_words))

        for token in tokens:
            if token.type in (TokenType.COMMENT, TokenType.PI, TokenType.DOCTYPE):
                continue
            if token.type in (TokenType.TEXT, TokenType.CDATA):
                add_text(token)
                continue
            if token.type in (TokenType.START_TAG, TokenType.EMPTY_TAG):
                if root is not None and not stack:
                    raise XMLParseError(
                        "multiple root elements", line=token.line
                    )
                element = open_element(token)
                if root is None:
                    root = element
                if token.type == TokenType.EMPTY_TAG:
                    stack.pop()
                    child_counters.pop()
                continue
            if token.type == TokenType.END_TAG:
                if not stack:
                    raise XMLParseError(
                        f"unexpected end tag </{token.value}>", line=token.line
                    )
                open_tag = stack[-1].tag
                if open_tag != token.value:
                    raise XMLParseError(
                        f"mismatched end tag </{token.value}>, "
                        f"expected </{open_tag}>",
                        line=token.line,
                    )
                stack.pop()
                child_counters.pop()

        if root is None:
            raise XMLParseError("document has no root element")
        if stack:
            raise XMLParseError(f"unclosed element <{stack[-1].tag}>")
        return Document(
            doc_id, root, uri=uri, is_html=False, word_count=positions.position
        )


def parse_xml(
    source: str,
    doc_id: int = 0,
    uri: str = "",
    index_tag_names: bool = True,
    word_table: Optional[Dict[str, str]] = None,
) -> Document:
    """Convenience wrapper: parse one XML string into a :class:`Document`."""
    parser = XMLParser(index_tag_names=index_tag_names)
    return parser.parse(source, doc_id, uri, word_table)
