"""The hyperlinked document collection graph G = (N, CE, HE) (Section 2.1).

A :class:`CollectionGraph` aggregates parsed documents into the paper's
graph: nodes are the XML elements of every document, containment edges are
implicit in the trees, and hyperlink edges are resolved here from two
sources:

* **IDREFs** — ``ref``/``idref`` attributes pointing at the ``id`` attribute
  of another element *in the same document* (paper Figure 1, line 21);
* **XLinks** — ``xlink``/``href`` attributes naming another *document* by
  URI, optionally with an ``#fragment`` selecting an element by ``id``
  (Figure 1, line 22).  HTML ``<a href>`` links arrive through the same
  mechanism via the pseudo-elements produced by the HTML front-end.

The graph also assigns every element a dense integer index so the ElemRank
power iteration can run over flat arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..errors import DocumentNotFoundError
from .dewey import DeweyId
from .nodes import Document, Element

#: Attribute tags interpreted as intra-document references.
IDREF_TAGS = frozenset({"ref", "idref", "idrefs"})
#: Attribute tags interpreted as inter-document references.
XLINK_TAGS = frozenset({"xlink", "href", "xlink:href"})
#: finalize()'s append bookkeeping, set by ``_reset_append_state``.
_APPEND_STATE = ("_pending", "_appendable", "_last_doc_id", "_dangling_uris")


@dataclass
class LinkResolution:
    """Statistics from hyperlink resolution, for diagnostics and tests."""

    idrefs_resolved: int = 0
    idrefs_dangling: int = 0
    xlinks_resolved: int = 0
    xlinks_dangling: int = 0
    dangling_targets: List[str] = field(default_factory=list)


class CollectionGraph:
    """All documents of a collection plus resolved hyperlink edges.

    Usage::

        graph = CollectionGraph()
        graph.add_document(doc)
        graph.finalize()          # resolves links, builds the index arrays
    """

    def __init__(self) -> None:
        self.documents: Dict[int, Document] = {}
        self._by_uri: Dict[str, Document] = {}
        self._finalized = False
        # Dense element table, built by finalize():
        self.elements: List[Element] = []
        self.element_doc: List[Document] = []
        self.index_of: Dict[DeweyId, int] = {}
        self.parent_index: List[int] = []          # -1 for document roots
        self.children_count: List[int] = []        # N_c(u)
        self.doc_element_count: List[int] = []     # N_de(u)
        self.hyperlink_edges: List[Tuple[int, int]] = []
        self.out_hyperlink_count: List[int] = []   # N_h(u)
        self.resolution = LinkResolution()
        #: One string per distinct word of the documents parsed for this
        #: graph (see ``PositionCounter``): the engine's ``add_xml`` and
        #: ``add_html`` parse with it.  Not pickled: pickle already keeps
        #: the loaded documents' words shared, and an unpickled graph
        #: starts an empty table for the documents added after the load.
        self.word_table: Dict[str, str] = {}
        self._reset_append_state()

    def _reset_append_state(self) -> None:
        """Forget finalize()'s append bookkeeping: the next one is a full pass.

        Derived state, so it is never pickled (see ``__getstate__``).
        """
        #: documents added since the last finalize(), in add order
        self._pending: List[Document] = []
        #: the arrays are a full pass plus appends, and nothing was removed
        self._appendable = False
        #: highest doc id the arrays cover
        self._last_doc_id = -1
        #: URIs an xlink in the arrays dangled on
        self._dangling_uris: Set[str] = set()

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        for name in _APPEND_STATE:
            del state[name]
        del state["word_table"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.word_table = {}
        self._reset_append_state()

    # -- population --------------------------------------------------------------

    def add_document(self, document: Document) -> None:
        """Register a parsed document (unique doc id required)."""
        if document.doc_id in self.documents:
            raise DocumentNotFoundError(
                f"duplicate document id {document.doc_id}"
            )
        self.documents[document.doc_id] = document
        if document.uri:
            self._by_uri.setdefault(document.uri, document)
        self._pending.append(document)
        self._finalized = False

    def remove_document(self, doc_id: int) -> Document:
        """Unregister and return a document by id."""
        try:
            document = self.documents.pop(doc_id)
        except KeyError:
            raise DocumentNotFoundError(f"no document with id {doc_id}") from None
        if document.uri and self._by_uri.get(document.uri) is document:
            del self._by_uri[document.uri]
            # Another document may share the URI: the first one left is
            # what a graph built over the remaining documents would pick.
            for other in self.documents.values():
                if other.uri == document.uri:
                    self._by_uri[document.uri] = other
                    break
        self._appendable = False
        self._finalized = False
        return document

    def document_by_uri(self, uri: str) -> Optional[Document]:
        """The document registered under a URI, if any."""
        return self._by_uri.get(uri)

    # -- aggregate counts ----------------------------------------------------------

    @property
    def num_documents(self) -> int:
        """``N_d``."""
        return len(self.documents)

    @property
    def num_elements(self) -> int:
        """``N_e``."""
        self._require_finalized()
        return len(self.elements)

    # -- finalization ----------------------------------------------------------------

    def finalize(self) -> None:
        """Build the dense element table and resolve hyperlinks.

        Must be re-run after documents are added or removed.  When every
        document added since the last finalize sorts after all documents
        already in the table, none was removed, and no new URI is one an
        earlier xlink dangled on, the new documents are appended and only
        their own links resolved: the table then equals a full pass, in
        O(new documents).  Otherwise — including a call with nothing new,
        so a tree edited in place is picked up — it runs the full pass.
        """
        pending = sorted(self._pending, key=lambda d: d.doc_id)
        if (
            self._appendable
            and pending
            and pending[0].doc_id > self._last_doc_id
            and not any(d.uri in self._dangling_uris for d in pending if d.uri)
        ):
            self._append(pending)
            self._last_doc_id = pending[-1].doc_id
        else:
            self.elements = []
            self.element_doc = []
            self.index_of = {}
            self.parent_index = []
            self.children_count = []
            self.doc_element_count = []
            self.hyperlink_edges = []
            self.out_hyperlink_count = []
            self.resolution = LinkResolution()
            self._dangling_uris = set()
            self._append(list(self.iter_documents()))
            self._last_doc_id = max(self.documents, default=-1)
        self._pending = []
        self._appendable = True
        self._finalized = True

    def _append(self, documents: List[Document]) -> None:
        """Extend the table by ``documents`` (ascending ids, all after the
        table's) and add the hyperlinks they are the source of."""
        for document in documents:
            count = document.num_elements
            for element in document.iter_elements():
                index = len(self.elements)
                self.index_of[element.dewey] = index
                self.elements.append(element)
                self.element_doc.append(document)
                self.children_count.append(element.num_subelements)
                self.doc_element_count.append(count)
                if element.parent is None:
                    self.parent_index.append(-1)
                else:
                    # Parents precede children in pre-order, so the parent's
                    # index is already assigned.
                    self.parent_index.append(self.index_of[element.parent.dewey])

        first_edge = len(self.hyperlink_edges)
        for document in documents:
            self._resolve_hyperlinks(document)
        self.out_hyperlink_count.extend(
            [0] * (len(self.elements) - len(self.out_hyperlink_count))
        )
        for src, _dst in self.hyperlink_edges[first_edge:]:
            self.out_hyperlink_count[src] += 1

    def _resolve_hyperlinks(self, document: Document) -> None:
        stats = self.resolution
        id_targets = document.elements_with_id_attribute()
        for element in document.iter_elements():
            if not element.from_attribute:
                continue
            tag = element.tag.lower()
            if tag in IDREF_TAGS:
                self._resolve_idref(element, id_targets, stats)
            elif tag in XLINK_TAGS:
                self._resolve_xlink(element, stats)

    def _link_source(self, attribute_element: Element) -> Element:
        """The logical source of a link is the element carrying the attribute."""
        return attribute_element.parent or attribute_element

    def _resolve_idref(
        self,
        attribute_element: Element,
        id_targets: Dict[str, Element],
        stats: LinkResolution,
    ) -> None:
        raw = " ".join(v.text for v in attribute_element.value_children())
        source = self._link_source(attribute_element)
        for token in raw.split():
            target = id_targets.get(token)
            if target is None:
                stats.idrefs_dangling += 1
                stats.dangling_targets.append(token)
                continue
            self.hyperlink_edges.append(
                (self.index_of[source.dewey], self.index_of[target.dewey])
            )
            stats.idrefs_resolved += 1

    def _resolve_xlink(
        self, attribute_element: Element, stats: LinkResolution
    ) -> None:
        raw = " ".join(v.text for v in attribute_element.value_children()).strip()
        if not raw:
            return
        source = self._link_source(attribute_element)
        uri, _, fragment = raw.partition("#")
        target_doc = self._by_uri.get(uri)
        target: Optional[Element] = None
        if target_doc is not None:
            target = target_doc.root
            if fragment:
                target = target_doc.elements_with_id_attribute().get(fragment)
        if target is None:
            stats.xlinks_dangling += 1
            stats.dangling_targets.append(raw)
            self._dangling_uris.add(uri)
            return
        self.hyperlink_edges.append(
            (self.index_of[source.dewey], self.index_of[target.dewey])
        )
        stats.xlinks_resolved += 1

    # -- element access -----------------------------------------------------------

    def element_by_dewey(self, dewey: DeweyId) -> Optional[Element]:
        """Look up an element across the collection by Dewey ID."""
        self._require_finalized()
        index = self.index_of.get(dewey)
        return None if index is None else self.elements[index]

    def iter_documents(self) -> Iterator[Document]:
        """Documents in ascending doc-id order."""
        for doc_id in sorted(self.documents):
            yield self.documents[doc_id]

    def _require_finalized(self) -> None:
        if not self._finalized:
            self.finalize()

    @property
    def finalized(self) -> bool:
        return self._finalized
