"""Unit tests for the collection graph: element table, IDREF/XLink
resolution, document management."""

import pytest

from repro.errors import DocumentNotFoundError
from repro.xmlmodel.graph import CollectionGraph
from repro.xmlmodel.parser import parse_xml


def make_graph(*sources, uris=None):
    graph = CollectionGraph()
    for i, source in enumerate(sources):
        uri = uris[i] if uris else f"doc{i}"
        graph.add_document(parse_xml(source, doc_id=i, uri=uri))
    graph.finalize()
    return graph


class TestElementTable:
    def test_dense_index_covers_all_elements(self, figure1_graph):
        graph = figure1_graph
        assert len(graph.elements) == graph.documents[5].num_elements
        for i, element in enumerate(graph.elements):
            assert graph.index_of[element.dewey] == i

    def test_parent_index(self, figure1_graph):
        graph = figure1_graph
        for i, element in enumerate(graph.elements):
            if element.parent is None:
                assert graph.parent_index[i] == -1
            else:
                assert graph.elements[graph.parent_index[i]] is element.parent

    def test_counts(self, figure1_graph):
        graph = figure1_graph
        for i, element in enumerate(graph.elements):
            assert graph.children_count[i] == element.num_subelements
        assert graph.num_documents == 1
        assert all(
            count == graph.documents[5].num_elements
            for count in graph.doc_element_count
        )

    def test_element_by_dewey(self, figure1_graph):
        graph = figure1_graph
        subsection = graph.documents[5].root.find_first("subsection")
        assert graph.element_by_dewey(subsection.dewey) is subsection


class TestIdrefResolution:
    def test_intra_document_ref(self, figure1_graph):
        graph = figure1_graph
        assert graph.resolution.idrefs_resolved == 1
        cite = graph.documents[5].root.find_first("cite")
        paper2 = [
            e for e in graph.documents[5].iter_elements()
            if e.tag == "paper" and e.attribute("id") == "2"
        ][0]
        edges = [
            (graph.elements[s], graph.elements[t])
            for s, t in graph.hyperlink_edges
        ]
        assert (cite, paper2) in edges

    def test_dangling_idref_counted(self):
        graph = make_graph('<a><x ref="nothing"/></a>')
        assert graph.resolution.idrefs_dangling == 1
        assert "nothing" in graph.resolution.dangling_targets
        assert graph.hyperlink_edges == []

    def test_multivalue_idrefs(self):
        graph = make_graph('<a><p id="1"/><p id="2"/><x ref="1 2"/></a>')
        assert graph.resolution.idrefs_resolved == 2


class TestXlinkResolution:
    def test_interdocument_link(self):
        graph = make_graph(
            '<a><cite xlink="doc1"/></a>', "<b>target</b>"
        )
        assert graph.resolution.xlinks_resolved == 1
        src, dst = graph.hyperlink_edges[0]
        assert graph.elements[dst].tag == "b"

    def test_fragment_link(self):
        graph = make_graph(
            '<a><cite xlink="doc1#sec2"/></a>',
            '<b><s id="sec1"/><s id="sec2"/></b>',
        )
        assert graph.resolution.xlinks_resolved == 1
        _, dst = graph.hyperlink_edges[0]
        assert graph.elements[dst].attribute("id") == "sec2"

    def test_dangling_uri_and_fragment(self):
        graph = make_graph(
            '<a><c xlink="nowhere"/><c xlink="doc1#missing"/></a>', "<b/>"
        )
        assert graph.resolution.xlinks_dangling == 2

    def test_figure1_xlink_dangles_without_target(self, figure1_graph):
        # '/paper/xmlql/' names a document that is not in the collection.
        assert figure1_graph.resolution.xlinks_dangling == 1

    def test_out_hyperlink_counts(self):
        graph = make_graph(
            '<a><c xlink="doc1"/><c xlink="doc1"/></a>', "<b/>"
        )
        source_index = [
            i for i, e in enumerate(graph.elements) if e.tag == "c"
        ]
        counts = [graph.out_hyperlink_count[i] for i in source_index]
        assert sorted(counts) == [1, 1]


class TestDocumentManagement:
    def test_duplicate_doc_id_rejected(self):
        graph = CollectionGraph()
        graph.add_document(parse_xml("<a/>", doc_id=1))
        with pytest.raises(DocumentNotFoundError):
            graph.add_document(parse_xml("<b/>", doc_id=1))

    def test_remove_document(self):
        graph = make_graph("<a/>", "<b/>")
        removed = graph.remove_document(0)
        assert removed.root.tag == "a"
        graph.finalize()
        assert graph.num_documents == 1
        with pytest.raises(DocumentNotFoundError):
            graph.remove_document(0)

    def test_remove_clears_uri_mapping(self):
        graph = make_graph("<a/>", "<b/>")
        graph.remove_document(0)
        assert graph.document_by_uri("doc0") is None
        assert graph.document_by_uri("doc1") is not None

    def test_finalize_idempotent(self):
        graph = make_graph('<a><c xlink="doc1"/></a>', "<b/>")
        edges_before = list(graph.hyperlink_edges)
        graph.finalize()
        assert graph.hyperlink_edges == edges_before

    def test_lazy_finalize_through_num_elements(self):
        graph = CollectionGraph()
        graph.add_document(parse_xml("<a><b/></a>", doc_id=0))
        assert not graph.finalized
        assert graph.num_elements == 2
        assert graph.finalized

    def test_remove_repoints_a_shared_uri(self):
        graph = CollectionGraph()
        first = parse_xml("<a/>", doc_id=0, uri="x.xml")
        second = parse_xml("<b/>", doc_id=1, uri="x.xml")
        linking = parse_xml('<c><cite xlink="x.xml"/></c>', doc_id=2, uri="c")
        for document in (first, second, linking):
            graph.add_document(document)
        graph.finalize()
        graph.remove_document(0)
        assert graph.document_by_uri("x.xml") is second
        graph.finalize()
        assert graph.resolution.xlinks_resolved == 1
        assert graph.resolution.xlinks_dangling == 0
        assert_same_table(graph, fresh_graph(graph))


def fresh_graph(graph: CollectionGraph) -> CollectionGraph:
    """A new graph over the same documents, added in the same order."""
    fresh = CollectionGraph()
    for document in graph.documents.values():
        fresh.add_document(document)
    fresh.finalize()
    return fresh


def assert_same_table(graph: CollectionGraph, fresh: CollectionGraph) -> None:
    assert graph.elements == fresh.elements
    assert graph.element_doc == fresh.element_doc
    assert list(graph.index_of.items()) == list(fresh.index_of.items())
    assert graph.parent_index == fresh.parent_index
    assert graph.children_count == fresh.children_count
    assert graph.doc_element_count == fresh.doc_element_count
    assert graph.hyperlink_edges == fresh.hyperlink_edges
    assert graph.out_hyperlink_count == fresh.out_hyperlink_count
    assert graph.resolution == fresh.resolution


class TestAppendingFinalize:
    """finalize() appends new documents when it can; whichever way it
    goes, the table equals a graph built fresh over the same documents."""

    URIS = [f"u{i}.xml" for i in range(20)]

    def document(self, rng, doc_id, uri=None):
        from conftest import random_xml

        links = "".join(
            f'<cite xlink="{rng.choice(self.URIS)}{rng.choice(["", "#t"])}"/>'
            for _ in range(rng.randint(1, 3))
        )
        source = (
            f'<w>{links}<x ref="t nothing"/>{random_xml(rng)}<p id="t"/></w>'
        )
        uri = uri if uri is not None else rng.choice(self.URIS + [""])
        return parse_xml(source, doc_id=doc_id, uri=uri)

    @staticmethod
    def dangling_uri(graph):
        """A URI an xlink in the table dangles on and no document has."""
        for target in graph.resolution.dangling_targets:
            uri = target.partition("#")[0]
            if uri.endswith(".xml") and graph.document_by_uri(uri) is None:
                return uri
        return None

    @pytest.mark.parametrize("seed", range(6))
    def test_appended_table_equals_a_fresh_one(self, seed):
        import pickle
        import random

        rng = random.Random(seed)
        graph = CollectionGraph()
        for doc_id in (0, 2, 4):
            graph.add_document(self.document(rng, doc_id))
        graph.finalize()
        assert_same_table(graph, fresh_graph(graph))
        next_id = 5

        def step(*, appends: bool) -> None:
            table = graph.elements
            graph.finalize()
            assert (graph.elements is table) == appends
            assert_same_table(graph, fresh_graph(graph))

        for _ in range(3):
            # Single adds above every finalized id append.
            for _ in range(2):
                next_id += 2
                graph.add_document(
                    self.document(rng, next_id, uri=f"fresh{next_id}")
                )
                step(appends=True)
            # A URI an earlier xlink dangled on needs the full pass.
            uri = self.dangling_uri(graph)
            assert uri is not None
            next_id += 2
            graph.add_document(self.document(rng, next_id, uri=uri))
            step(appends=False)
            # So does an id below a finalized one.
            graph.add_document(self.document(rng, next_id - 1, uri=""))
            step(appends=False)
            # And a removal, even with an appendable add beside it.
            graph.remove_document(rng.choice(sorted(graph.documents)))
            next_id += 2
            graph.add_document(self.document(rng, next_id, uri=""))
            step(appends=False)
            # An unpickled graph runs the full pass once, then appends.
            graph = pickle.loads(pickle.dumps(graph))
            next_id += 2
            graph.add_document(
                self.document(rng, next_id, uri=self.dangling_uri(graph))
            )
            step(appends=False)
            for _ in range(2):
                next_id += 2
                graph.add_document(
                    self.document(rng, next_id, uri=f"fresh{next_id}")
                )
            step(appends=True)

    def test_append_state_is_not_pickled(self):
        graph = make_graph('<a><c xlink="gone.xml"/></a>', "<b/>")
        assert list(graph.__getstate__()) == [
            "documents", "_by_uri", "_finalized", "elements", "element_doc",
            "index_of", "parent_index", "children_count",
            "doc_element_count", "hyperlink_edges", "out_hyperlink_count",
            "resolution",
        ]
