"""Tests for the synthetic corpus generators and their planted structure."""

import pytest

from repro.datasets.dblp import generate_dblp
from repro.datasets.textgen import PlantedKeywords, TextGenerator
from repro.datasets.xmark import generate_xmark


def doc_words(document):
    return {w for e in document.iter_elements() for w, _ in e.direct_words()}


class TestTextGenerator:
    def test_deterministic(self):
        a = TextGenerator(seed=1).text_block()
        b = TextGenerator(seed=1).text_block()
        assert a == b

    def test_different_seeds_differ(self):
        assert TextGenerator(seed=1).text_block() != TextGenerator(seed=2).text_block()

    def test_title_word_count(self):
        gen = TextGenerator(seed=3)
        for _ in range(20):
            assert 2 <= len(gen.title(2, 5).split()) <= 5

    def test_names_from_pool(self):
        gen = TextGenerator(seed=4)
        names = {gen.name() for _ in range(50)}
        assert all(len(n.split()) == 2 for n in names)

    def test_correlated_group_injected_together(self):
        plan = PlantedKeywords.default()
        plan.correlated_rate = 1.0
        gen = TextGenerator(seed=5, planted=plan)
        block = gen.text_block()
        for word in plan.correlated_groups[0]:
            assert word in block.split()

    def test_striping_respects_scope(self):
        plan = PlantedKeywords(
            independent_keywords=["u0", "u1"],
            independent_rate=1.0,
            stripes=2,
            cross_rate=0.0,
        )
        gen = TextGenerator(seed=6, planted=plan)
        gen.new_scope()  # scope 1 -> stripe 1 -> only u1
        block = gen.text_block().split()
        assert "u1" in block and "u0" not in block
        gen.new_scope()  # scope 2 -> stripe 0 -> only u0
        block = gen.text_block().split()
        assert "u0" in block and "u1" not in block


class TestDBLP:
    @pytest.fixture(scope="class")
    def corpus(self):
        plan = PlantedKeywords.default()
        plan.correlated_rate = 0.4
        plan.independent_rate = 0.6
        return generate_dblp(num_papers=120, seed=9, planted=plan)

    def test_document_per_paper(self, corpus):
        assert corpus.num_documents == 120

    def test_shallow_depth(self, corpus):
        depths = [e.dewey.depth for e in corpus.graph.elements]
        assert max(depths) <= 5  # "relatively shallow with a depth of about 4"

    def test_interdocument_citations_resolved(self, corpus):
        assert corpus.graph.resolution.xlinks_resolved > 50
        assert len(corpus.graph.hyperlink_edges) > 50

    def test_citation_skew(self, corpus):
        """Preferential attachment: in-degree should be skewed."""
        indeg = {}
        for _, dst in corpus.graph.hyperlink_edges:
            indeg[dst] = indeg.get(dst, 0) + 1
        counts = sorted(indeg.values(), reverse=True)
        assert counts[0] >= 3 * counts[len(counts) // 2]

    def test_correlated_keywords_cooccur(self, corpus):
        plan = corpus.planted
        w0, w1 = plan.correlated_groups[0][:2]
        with_w0 = {d.doc_id for d in corpus.documents if w0 in doc_words(d)}
        with_w1 = {d.doc_id for d in corpus.documents if w1 in doc_words(d)}
        assert with_w0 and with_w0 == with_w1

    def test_independent_keywords_disjoint(self, corpus):
        plan = corpus.planted
        u0, u1 = plan.independent_keywords[:2]
        with_u0 = {d.doc_id for d in corpus.documents if u0 in doc_words(d)}
        with_u1 = {d.doc_id for d in corpus.documents if u1 in doc_words(d)}
        assert with_u0 and with_u1
        overlap = len(with_u0 & with_u1)
        assert overlap <= max(1, len(with_u0) // 10)

    def test_anecdotes_planted(self):
        corpus = generate_dblp(num_papers=60, seed=9, plant_anecdotes=True)
        gray_authors = 0
        gray_titles = 0
        for document in corpus.documents:
            for element in document.iter_elements():
                words = {w for w, _ in element.direct_words()}
                if element.tag == "author" and "gray" in words:
                    gray_authors += 1
                if element.tag == "title" and "gray" in words and "codes" in words:
                    gray_titles += 1
        assert gray_authors >= 3
        assert gray_titles >= 3

    def test_deterministic(self):
        a = generate_dblp(num_papers=30, seed=1)
        b = generate_dblp(num_papers=30, seed=1)
        assert a.num_elements == b.num_elements
        assert len(a.graph.hyperlink_edges) == len(b.graph.hyperlink_edges)


class TestXMark:
    @pytest.fixture(scope="class")
    def corpus(self):
        return generate_xmark(
            num_items=60, num_people=30, num_auctions=80, seed=10
        )

    def test_single_deep_document(self, corpus):
        assert corpus.num_documents == 1
        depths = [e.dewey.depth for e in corpus.graph.elements]
        assert max(depths) >= 9  # "relatively deep with a depth of 10"

    def test_source_reparses_to_the_same_document(self, corpus):
        from repro.xmlmodel.parser import parse_xml

        (source,) = corpus.sources
        reparsed = parse_xml(source, doc_id=0)
        assert sum(1 for _ in reparsed.iter_elements()) == sum(
            1 for _ in corpus.documents[0].iter_elements()
        )

    def test_intradocument_idrefs_resolved(self, corpus):
        resolution = corpus.graph.resolution
        assert resolution.idrefs_resolved > 100
        assert resolution.idrefs_dangling == 0

    def test_schema_skeleton(self, corpus):
        root = corpus.documents[0].root
        assert root.tag == "site"
        top = [e.tag for e in root.child_elements()]
        assert top == [
            "regions", "categories", "people", "open_auctions",
            "closed_auctions",
        ]

    def test_anecdote_item(self):
        corpus = generate_xmark(
            num_items=30, num_auctions=40, seed=2, plant_anecdotes=True
        )
        root = corpus.documents[0].root
        names = [
            e for e in root.iter_elements()
            if e.tag == "name" and "stained" in {w for w, _ in e.direct_words()}
        ]
        assert names
        # Referenced by many auctions.
        item = names[0].parent
        item_id = item.attribute("id")
        refs = [
            e for e in root.iter_elements()
            if e.tag == "itemref" and e.attribute("ref") == item_id
        ]
        assert len(refs) >= 10
