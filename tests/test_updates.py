"""Tests for element-granularity tree updates (sparse Dewey numbering)."""

import pytest

from repro.engine import XRankEngine
from repro.errors import DeweyError
from repro.xmlmodel.dewey import DeweyId
from repro.xmlmodel.parser import parse_xml
from repro.xmlmodel.serialize import document_to_xml
from repro.xmlmodel.updates import (
    DEFAULT_GAP,
    delete_element,
    insert_element,
    insert_text,
    parse_xml_sparse,
)


def dewey_invariants_hold(document):
    """Every node's ID extends its parent's; siblings strictly increase."""
    for element in document.iter_elements():
        last = None
        for child in element.children:
            assert element.dewey.is_ancestor_of(child.dewey)
            assert len(child.dewey) == len(element.dewey) + 1
            if last is not None:
                assert child.dewey > last
            last = child.dewey
    return True


class TestSparseParsing:
    def test_positions_spaced_by_gap(self):
        doc = parse_xml_sparse("<a><b/><c/><d/></a>", doc_id=0, gap=10)
        components = [child.dewey.components[-1] for child in doc.root.children]
        assert components == [0, 10, 20]

    def test_nested_spacing(self):
        doc = parse_xml_sparse("<a><b><c/></b></a>", doc_id=0, gap=4)
        c = doc.root.find_first("c")
        assert c.dewey == DeweyId((0, 0, 0))
        dewey_invariants_hold(doc)

    def test_word_content_unchanged(self):
        dense = parse_xml("<a><b>hello world</b></a>", doc_id=0)
        sparse = parse_xml_sparse("<a><b>hello world</b></a>", doc_id=0)
        assert sorted(w for w, _ in dense.root.all_words()) == sorted(
            w for w, _ in sparse.root.all_words()
        )


class TestInsertion:
    def test_insert_between_uses_gap(self):
        doc = parse_xml_sparse("<a><b/><c/></a>", doc_id=0, gap=10)
        outcome = insert_element(doc, doc.root, 1, "<new>inserted words</new>")
        assert not outcome.renumbered
        tags = [child.tag for child in doc.root.children]
        assert tags == ["b", "new", "c"]
        assert dewey_invariants_hold(doc)
        # Neighbors' IDs untouched.
        assert doc.root.children[0].dewey.components[-1] == 0
        assert doc.root.children[2].dewey.components[-1] == 10

    def test_insert_at_front_and_back(self):
        doc = parse_xml_sparse("<a><b/></a>", doc_id=0, gap=10)
        insert_element(doc, doc.root, 0, "<front/>")
        insert_element(doc, doc.root, 2, "<back/>")
        assert [c.tag for c in doc.root.children] == ["front", "b", "back"]
        assert dewey_invariants_hold(doc)

    def test_exhausted_gap_triggers_renumbering(self):
        doc = parse_xml("<a><b/><c/></a>", doc_id=0)  # dense: positions 0,1
        outcome = insert_element(doc, doc.root, 1, "<mid/>")
        assert outcome.renumbered
        assert [c.tag for c in doc.root.children] == ["b", "mid", "c"]
        assert dewey_invariants_hold(doc)

    def test_repeated_midpoint_insertions(self):
        doc = parse_xml_sparse("<a><b/><c/></a>", doc_id=0, gap=DEFAULT_GAP)
        for i in range(8):
            insert_element(doc, doc.root, 1, f"<n{i}/>")
        assert len(doc.root.children) == 10
        assert dewey_invariants_hold(doc)

    def test_inserted_subtree_ids_rebased(self):
        doc = parse_xml_sparse("<a><b/></a>", doc_id=0, gap=10)
        outcome = insert_element(
            doc, doc.root, 1, "<sec><sub>deep text</sub></sec>"
        )
        sub = outcome.element.find_first("sub")
        assert outcome.element.dewey.is_ancestor_of(sub.dewey)
        assert sub.dewey.doc_id == 0

    def test_inserted_words_get_fresh_positions(self):
        doc = parse_xml_sparse("<a><b>one two</b></a>", doc_id=0)
        before = doc.word_count
        outcome = insert_element(doc, doc.root, 1, "<n>three four</n>")
        positions = [p for _, p in outcome.element.all_words()]
        assert min(positions) >= before
        assert doc.word_count > before

    def test_bad_index_rejected(self):
        doc = parse_xml_sparse("<a><b/></a>", doc_id=0)
        with pytest.raises(DeweyError):
            insert_element(doc, doc.root, 5, "<x/>")

    def test_lookup_cache_invalidated(self):
        doc = parse_xml_sparse("<a><b/></a>", doc_id=0)
        assert doc.element_by_dewey(doc.root.dewey) is doc.root  # warm cache
        outcome = insert_element(doc, doc.root, 1, "<x/>")
        assert doc.element_by_dewey(outcome.element.dewey) is outcome.element

    def test_serializes_after_insert(self):
        doc = parse_xml_sparse("<a><b>text</b></a>", doc_id=0)
        insert_element(doc, doc.root, 0, "<pre>before</pre>")
        text = document_to_xml(doc)
        reparsed = parse_xml(text, doc_id=0)
        assert [c.tag for c in reparsed.root.child_elements()] == ["pre", "b"]


class TestTextInsertionAndDeletion:
    def test_insert_text(self):
        doc = parse_xml_sparse("<a><b/></a>", doc_id=0, gap=10)
        value = insert_text(doc, doc.root, 1, "appended words")
        assert value.parent is doc.root
        assert [w for w, _ in value.words] == ["appended", "words"]
        assert dewey_invariants_hold(doc)

    def test_delete_element(self):
        doc = parse_xml_sparse("<a><b/><c/></a>", doc_id=0)
        victim = doc.root.find_first("b")
        delete_element(doc, victim)
        assert [c.tag for c in doc.root.children] == ["c"]
        assert victim.parent is None
        assert dewey_invariants_hold(doc)

    def test_cannot_delete_root(self):
        doc = parse_xml_sparse("<a/>", doc_id=0)
        with pytest.raises(DeweyError):
            delete_element(doc, doc.root)


class TestEngineReplace:
    def test_replace_document_end_to_end(self):
        engine = XRankEngine()
        doc_id = engine.add_xml("<a>original content here</a>")
        engine.add_xml("<b>stable other document</b>")
        engine.build(kinds=["dil-incremental"])
        new_id = engine.replace_document(doc_id, "<a>revised content here</a>")
        assert new_id != doc_id
        assert engine.search("original", kind="dil-incremental") == []
        hits = engine.search("revised", kind="dil-incremental")
        assert hits and hits[0].dewey.startswith(str(new_id))

    def test_replace_with_a_bad_source_keeps_the_document(self):
        from repro.errors import XMLParseError

        engine = XRankEngine()
        doc_id = engine.add_xml("<a>original content here</a>")
        engine.build(kinds=["dil-incremental"])
        with pytest.raises(XMLParseError):
            engine.replace_document(doc_id, "<broken")
        hits = engine.search("original", kind="dil-incremental")
        assert [hit.dewey for hit in hits] == [str(doc_id)]
        assert engine.replace_document(doc_id, "<a>revised</a>") == 1

    def test_replace_unknown_document(self):
        from repro.errors import DocumentNotFoundError

        engine = XRankEngine()
        engine.add_xml("<a>x</a>")
        engine.build(kinds=["dil-incremental"])
        with pytest.raises(DocumentNotFoundError):
            engine.replace_document(99, "<a>y</a>")


class TestUpdateFuzzing:
    """Randomized insert/delete sequences must preserve Dewey invariants."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_edit_sequences(self, seed):
        import random

        rng = random.Random(seed)
        doc = parse_xml_sparse("<root><a>start</a></root>", doc_id=0, gap=8)
        elements = lambda: [
            e for e in doc.iter_elements() if e.parent is not None
        ]
        for step in range(30):
            action = rng.random()
            if action < 0.6 or len(elements()) < 2:
                parent = rng.choice(list(doc.iter_elements()))
                index = rng.randint(0, len(parent.children))
                insert_element(
                    doc, parent, index, f"<n{step}>word{step}</n{step}>"
                )
            elif action < 0.8:
                parent = rng.choice(list(doc.iter_elements()))
                index = rng.randint(0, len(parent.children))
                insert_text(doc, parent, index, f"text {step}")
            else:
                victim = rng.choice(elements())
                delete_element(doc, victim)
            assert dewey_invariants_hold(doc)

        # After all edits, every element resolves through the lookup map
        # and the document still serializes + reparses.
        for element in doc.iter_elements():
            assert doc.element_by_dewey(element.dewey) is element
        from repro.xmlmodel.serialize import document_to_xml

        reparsed = parse_xml(document_to_xml(doc), doc_id=0)
        original_words = sorted(w for w, _ in doc.root.all_words())
        reparsed_words = sorted(w for w, _ in reparsed.root.all_words())
        assert original_words == reparsed_words

    @pytest.mark.parametrize("seed", range(3))
    def test_reindex_after_edits_matches_semantics(self, seed):
        """Edited documents re-indexed through the engine return results
        consistent with the reference semantics."""
        import random

        from conftest import reference_results
        from repro.index.builder import IndexBuilder
        from repro.query.dil_eval import DILEvaluator
        from repro.xmlmodel.graph import CollectionGraph

        rng = random.Random(100 + seed)
        doc = parse_xml_sparse(
            "<root><a>alpha beta</a><b>gamma</b></root>", doc_id=0, gap=8
        )
        for step in range(10):
            parent = rng.choice(list(doc.iter_elements()))
            word = rng.choice(["alpha", "beta", "gamma"])
            insert_element(
                doc, parent, rng.randint(0, len(parent.children)),
                f"<x>{word}</x>",
            )
        graph = CollectionGraph()
        graph.add_document(doc)
        graph.finalize()
        builder = IndexBuilder(graph)
        evaluator = DILEvaluator(builder.build_dil())
        got = {
            r.dewey.components: r.rank
            for r in evaluator.evaluate(["alpha", "beta"], m=10_000)
        }
        expected = reference_results(graph, ["alpha", "beta"], builder.elemranks)
        assert set(got) == set(expected)
