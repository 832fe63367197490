"""The XML node tree: elements, value nodes and documents (paper Section 2.1).

The paper's data model is a directed graph ``G = (N, CE, HE)`` where the
nodes are *elements* and *values*, ``CE`` are containment edges and ``HE``
hyperlink edges.  This module provides the tree part (elements, values and
containment); :mod:`repro.xmlmodel.graph` adds hyperlinks across the forest.

Design notes, all taken from the paper:

* Attributes are treated as sub-elements ("For ease of exposition, we treat
  attributes as though they are sub-elements").  The parser materializes each
  attribute ``name="value"`` as a child element tagged ``name`` containing a
  value node, and every such pseudo-element consumes a sibling position in
  the Dewey numbering.

* Element tag names and attribute names are themselves values ("we treat
  element tag names and attribute names also as values"), so a keyword query
  can match a tag such as ``author``.  Tag-name words are recorded as
  occurrences in the element itself.

* Each word in a document carries a *global word position*, which the
  ranking function's proximity measure (smallest containing window,
  Section 2.3.2.2) operates on.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from .dewey import DeweyId

#: A keyword occurrence: (word, global position inside the document).
WordOccurrence = Tuple[str, int]


class ValueNode:
    """A text value directly contained by an element.

    ``words`` holds the tokenized content with global word positions; the
    raw ``text`` is retained for display (result snippets).
    """

    __slots__ = ("dewey", "text", "words", "parent")

    def __init__(self, dewey: DeweyId, text: str, words: Sequence[WordOccurrence]):
        self.dewey = dewey
        self.text = text
        self.words: Tuple[WordOccurrence, ...] = tuple(words)
        self.parent: Optional["Element"] = None

    @property
    def is_element(self) -> bool:
        return False

    def __repr__(self) -> str:
        preview = self.text if len(self.text) <= 32 else self.text[:29] + "..."
        return f"ValueNode({self.dewey}, {preview!r})"


Node = Union["Element", ValueNode]


class Element:
    """An XML element: a tag, a Dewey ID and an ordered list of children.

    Children are elements and value nodes interleaved in document order;
    attribute pseudo-elements come first (their relative order is the
    attribute order in the source).  ``tag_words`` are the occurrences
    contributed by the tag name itself.
    """

    __slots__ = (
        "tag",
        "dewey",
        "children",
        "parent",
        "tag_words",
        "from_attribute",
    )

    def __init__(
        self,
        tag: str,
        dewey: DeweyId,
        tag_words: Sequence[WordOccurrence] = (),
        from_attribute: bool = False,
    ):
        self.tag = tag
        self.dewey = dewey
        self.children: List[Node] = []
        self.parent: Optional["Element"] = None
        self.tag_words: Tuple[WordOccurrence, ...] = tuple(tag_words)
        self.from_attribute = from_attribute

    @property
    def is_element(self) -> bool:
        return True

    def append(self, node: Node) -> None:
        """Attach a child node (sets its parent pointer)."""
        node.parent = self
        self.children.append(node)

    # -- navigation -----------------------------------------------------------

    def child_elements(self) -> Iterator["Element"]:
        """Child elements, attributes included, in order."""
        for child in self.children:
            if isinstance(child, Element):
                yield child

    def value_children(self) -> Iterator[ValueNode]:
        """Direct value-node children, in order."""
        for child in self.children:
            if isinstance(child, ValueNode):
                yield child

    def iter_elements(self) -> Iterator["Element"]:
        """Depth-first pre-order traversal over this element and descendants."""
        stack: List[Element] = [self]
        while stack:
            element = stack.pop()
            yield element
            stack.extend(reversed(list(element.child_elements())))

    def iter_values(self) -> Iterator[ValueNode]:
        """All value nodes in the subtree, in document order."""
        for child in self.children:
            if isinstance(child, ValueNode):
                yield child
            else:
                yield from child.iter_values()

    def ancestors(self) -> Iterator["Element"]:
        """Parent, grandparent, ..., root."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def tag_path(self) -> List[str]:
        """Tags from the document root down to this element."""
        return [a.tag for a in reversed(list(self.ancestors()))] + [self.tag]

    # -- content --------------------------------------------------------------

    @property
    def num_subelements(self) -> int:
        """``N_c``: number of element children (attributes included)."""
        return sum(1 for _ in self.child_elements())

    def direct_words(self) -> Iterator[WordOccurrence]:
        """Words *directly* contained: tag-name words plus child value text.

        These are the occurrences the inverted lists index against this
        element's Dewey ID (paper Section 4.2.1: "the Dewey IDs of all the
        XML elements that directly contain the keyword").
        """
        yield from self.tag_words
        for value in self.value_children():
            yield from value.words

    def all_words(self) -> Iterator[WordOccurrence]:
        """Every word occurrence in the subtree (``contains*`` semantics)."""
        for element in self.iter_elements():
            yield from element.direct_words()

    def text_content(self) -> str:
        """Concatenated raw text of the subtree, for snippets."""
        parts = [v.text for v in self.iter_values()]
        return " ".join(part for part in parts if part)

    def attribute(self, name: str) -> Optional[str]:
        """The raw text of the attribute pseudo-element ``name``, if any."""
        for child in self.child_elements():
            if child.from_attribute and child.tag == name:
                texts = [v.text for v in child.value_children()]
                return " ".join(texts) if texts else ""
        return None

    def find_first(self, tag: str) -> Optional["Element"]:
        """First descendant element (pre-order) with the given tag."""
        for element in self.iter_elements():
            if element is not self and element.tag == tag:
                return element
        return None

    def __repr__(self) -> str:
        return f"Element(<{self.tag}>, {self.dewey})"


class Document:
    """A parsed XML (or HTML) document.

    Attributes:
        doc_id: integer id; the first Dewey component of every node.
        uri: logical name used to resolve inter-document XLink references.
        root: the root element.
        is_html: True for HTML documents, where only the root is an answer
            node (paper Section 2.2).
        word_count: total number of word occurrences (global positions run
            from 0 to ``word_count - 1``).
    """

    def __init__(
        self,
        doc_id: int,
        root: Element,
        uri: str = "",
        is_html: bool = False,
        word_count: int = 0,
    ):
        self.doc_id = doc_id
        self.root = root
        self.uri = uri
        self.is_html = is_html
        self.word_count = word_count
        self._by_dewey: Optional[Dict[DeweyId, Element]] = None

    @property
    def num_elements(self) -> int:
        """``N_de``: the number of elements in this document."""
        return sum(1 for _ in self.root.iter_elements())

    def iter_elements(self) -> Iterator[Element]:
        """Pre-order traversal of the whole document."""
        return self.root.iter_elements()

    def element_by_dewey(self, dewey: DeweyId) -> Optional[Element]:
        """Look up an element by its Dewey ID (lazily builds a map)."""
        if self._by_dewey is None:
            self._by_dewey = {e.dewey: e for e in self.root.iter_elements()}
        return self._by_dewey.get(dewey)

    def elements_with_id_attribute(self) -> Dict[str, Element]:
        """Map from ``id`` attribute value to element, for IDREF resolution."""
        targets: Dict[str, Element] = {}
        for element in self.root.iter_elements():
            value = element.attribute("id")
            if value:
                targets.setdefault(value.strip(), element)
        return targets

    def __repr__(self) -> str:
        kind = "html" if self.is_html else "xml"
        return (
            f"Document(id={self.doc_id}, uri={self.uri!r}, {kind}, "
            f"{self.num_elements} elements)"
        )
