"""End-to-end tests for the XRankEngine facade."""

import pytest

from repro.config import XRankConfig
from repro.engine import XRankEngine
from repro.errors import (
    DocumentNotFoundError,
    IndexNotBuiltError,
    QueryError,
)
from repro.query.answer_nodes import AnswerNodeFilter

WORKSHOP = """
<workshop>
  <title>XML and IR</title>
  <proceedings>
    <paper id="1">
      <title>XQL and Proximal Nodes</title>
      <body><subsection>the XQL query language looks promising</subsection></body>
      <cite ref="2">Querying XML in Xyleme</cite>
    </paper>
    <paper id="2"><title>Querying XML in Xyleme</title></paper>
  </proceedings>
</workshop>
"""


@pytest.fixture()
def engine():
    e = XRankEngine()
    e.add_xml(WORKSHOP, uri="workshop")
    e.add_html(
        "<html><body>XQL language tutorial on the web</body></html>",
        uri="tutorial",
    )
    e.build(kinds=["hdil", "dil", "rdil", "naive-id", "naive-rank"])
    return e


class TestSearch:
    def test_most_specific_xml_result(self, engine):
        hits = engine.search("xql language", kind="dil")
        xml_hits = [h for h in hits if h.tag == "subsection"]
        assert xml_hits, f"expected a subsection hit, got {[h.tag for h in hits]}"
        assert "XQL query language" in xml_hits[0].snippet

    def test_all_kinds_return_results(self, engine):
        for kind in ("hdil", "dil", "rdil", "naive-id", "naive-rank"):
            assert engine.search("xql language", kind=kind)

    def test_html_document_hit(self, engine):
        hits = engine.search("tutorial")
        assert hits[0].tag == "html"

    def test_with_context(self, engine):
        hits = engine.search("xql language", kind="dil", with_context=True)
        subsection = [h for h in hits if h.tag == "subsection"][0]
        assert [tag for _, tag in subsection.ancestors] == [
            "body", "paper", "proceedings", "workshop",
        ]

    def test_path_rendered(self, engine):
        hits = engine.search("xql language", kind="dil")
        subsection = [h for h in hits if h.tag == "subsection"][0]
        assert subsection.path == "workshop/proceedings/paper/body/subsection"

    def test_m_limits_results(self, engine):
        assert len(engine.search("xml", m=1)) == 1

    def test_str_rendering(self, engine):
        hit = engine.search("xql language")[0]
        assert str(hit).startswith("[")

    def test_empty_query_rejected(self, engine):
        with pytest.raises(QueryError):
            engine.search("!!!")

    def test_unbuilt_kind_rejected(self, engine):
        with pytest.raises(IndexNotBuiltError):
            engine.search("xql", kind="dil2")


class TestBuildLifecycle:
    def test_build_requires_documents(self):
        with pytest.raises(QueryError):
            XRankEngine().build()

    def test_unknown_kind_rejected(self):
        e = XRankEngine()
        e.add_xml("<a>x</a>")
        with pytest.raises(QueryError):
            e.build(kinds=["btree-of-doom"])

    def test_search_before_build(self):
        e = XRankEngine()
        e.add_xml("<a>x</a>")
        with pytest.raises(IndexNotBuiltError):
            e.search("x")

    def test_adding_document_invalidates(self, engine):
        engine.add_xml("<a>fresh</a>")
        with pytest.raises(IndexNotBuiltError):
            engine.search("fresh")
        engine.build(kinds=["hdil"])
        assert engine.search("fresh")

    def test_doc_ids_unique_and_increasing(self):
        e = XRankEngine()
        first = e.add_xml("<a>x</a>")
        second = e.add_xml("<b>y</b>")
        assert second == first + 1

    def test_stats(self, engine):
        stats = engine.stats()
        assert stats["documents"] == 2
        assert "hdil" in stats["indexes"]
        assert stats["elements"] > 0
        assert stats["hyperlink_edges"] == 1  # the intra-document IDREF

    def test_elemrank_accessor(self, engine):
        hits = engine.search("xyleme", kind="dil")
        value = engine.elemrank_of(hits[0].dewey)
        assert value > 0

    def test_index_and_evaluator_accessors(self, engine):
        assert engine.index("dil").kind == "dil"
        assert engine.evaluator("dil") is not None


class TestDeletes:
    def test_delete_document_removes_results(self, engine):
        hits = engine.search("tutorial")
        doc_id = int(hits[0].dewey.split(".")[0])
        engine.delete_document(doc_id)
        assert engine.search("tutorial") == []

    def test_delete_unknown_document(self, engine):
        with pytest.raises(DocumentNotFoundError):
            engine.delete_document(999)

    def test_delete_before_build_removes_from_graph(self):
        e = XRankEngine()
        doc_id = e.add_xml("<a>x</a>")
        e.add_xml("<b>y</b>")
        e.delete_document(doc_id)
        e.build(kinds=["dil"])
        assert e.search("x", kind="dil") == []


class TestAnswerNodes:
    def test_engine_level_answer_filter(self):
        e = XRankEngine(
            answer_filter=AnswerNodeFilter(
                answer_tags={"workshop", "paper", "subsection", "html"}
            )
        )
        e.add_xml(WORKSHOP)
        e.build(kinds=["dil"])
        hits = e.search("xql language", kind="dil")
        assert all(
            hit.tag in {"workshop", "paper", "subsection"} for hit in hits
        )


class TestIncrementalEngine:
    def test_incremental_add_searchable_without_rebuild(self):
        e = XRankEngine()
        e.add_xml("<a>seed document words</a>")
        e.build(kinds=["dil-incremental"])
        doc_id = e.add_xml_incremental("<b>freshly added words</b>")
        hits = e.search("freshly", kind="dil-incremental")
        assert hits and hits[0].dewey.startswith(str(doc_id))

    def test_failed_add_leaves_the_doc_id_free(self):
        from repro.errors import XMLParseError

        e = XRankEngine()
        with pytest.raises(XMLParseError):
            e.add_xml("<broken")
        assert e.add_xml("<a>seed words</a>") == 0
        e.build(kinds=["dil-incremental"])
        with pytest.raises(XMLParseError):
            e.add_xml_incremental("<broken")
        assert e.add_xml_incremental("<b>late words</b>") == 1
        assert e.add_html("<html><body>web words</body></html>") == 2

    def test_incremental_requires_kind(self):
        e = XRankEngine()
        e.add_xml("<a>x</a>")
        e.build(kinds=["dil"])
        with pytest.raises(IndexNotBuiltError):
            e.add_xml_incremental("<b>y</b>")

    def test_merge_incremental_preserves_results(self):
        e = XRankEngine()
        e.add_xml("<a>seed words</a>")
        e.build(kinds=["dil-incremental"])
        e.add_xml_incremental("<b>late words</b>")
        before = [h.dewey for h in e.search("words", kind="dil-incremental", m=10)]
        e.merge_incremental()
        after = [h.dewey for h in e.search("words", kind="dil-incremental", m=10)]
        assert set(before) == set(after)

    def test_incremental_delete(self):
        e = XRankEngine()
        e.add_xml("<a>seed words</a>")
        e.build(kinds=["dil-incremental"])
        doc_id = e.add_xml_incremental("<b>ephemeral entry</b>")
        e.delete_document(doc_id)
        assert e.search("ephemeral", kind="dil-incremental") == []


class TestHighlighting:
    def test_highlight_wraps_matches(self, engine):
        hits = engine.search("xql language", kind="dil", highlight=True)
        subsection = [h for h in hits if h.tag == "subsection"][0]
        assert "[XQL]" in subsection.snippet
        assert "[language]" in subsection.snippet

    def test_highlight_off_by_default(self, engine):
        hits = engine.search("xql language", kind="dil")
        assert all("[" not in h.snippet for h in hits)

    def test_highlight_case_insensitive_whole_words(self):
        e = XRankEngine()
        e.add_xml("<a>The Language and languages differ</a>")
        e.build(kinds=["dil"])
        hit = e.search("language", kind="dil", highlight=True)[0]
        assert "[Language]" in hit.snippet
        assert "[languages]" not in hit.snippet


class TestLogging:
    def test_build_emits_corpus_prepared_event(self):
        from repro.obs import default_event_log

        log = default_event_log()
        baseline = log.stats()["emitted"]
        e = XRankEngine()
        e.add_xml("<a>log me</a>")
        e.build(kinds=["dil"])
        fresh = [
            record
            for record in log.events(kind="corpus_prepared")
            if record["seq"] > baseline
        ]
        assert fresh, "build should emit a corpus_prepared event"
        record = fresh[-1]
        assert record["documents"] == 1
        assert record["keywords"] > 0
        assert "elemrank_iterations" in record

    def test_incremental_merge_logs(self, caplog):
        import logging

        e = XRankEngine()
        e.add_xml("<a>base</a>")
        e.build(kinds=["dil-incremental"])
        with caplog.at_level(logging.INFO, logger="repro.index.incremental"):
            e.add_xml_incremental("<b>delta doc</b>")
            e.merge_incremental()
        messages = [r.message for r in caplog.records]
        assert any("incrementally" in m for m in messages)
        assert any("merged delta" in m for m in messages)


class TestStopwords:
    def test_stopwords_dropped_from_index_and_query(self):
        e = XRankEngine(drop_stopwords=True)
        e.add_xml("<a>the cat and the hat</a>")
        e.build(kinds=["dil"])
        assert not e.index("dil").has_keyword("the")
        assert e.index("dil").has_keyword("cat")
        # Query-side stopwords are dropped, not fatal to the conjunction.
        assert e.search("the cat", kind="dil")

    def test_all_stopword_query_rejected(self):
        e = XRankEngine(drop_stopwords=True)
        e.add_xml("<a>content words</a>")
        e.build(kinds=["dil"])
        with pytest.raises(QueryError):
            e.search("the and of", kind="dil")

    def test_default_keeps_stopwords(self):
        e = XRankEngine()
        e.add_xml("<a>the cat</a>")
        e.build(kinds=["dil"])
        assert e.index("dil").has_keyword("the")

    def test_save_load_roundtrip(self, tmp_path):
        e = XRankEngine()
        e.add_xml("<a>persisted words</a>")
        e.build(kinds=["hdil"])
        path = tmp_path / "engine.xrank"
        e.save(path)
        restored = XRankEngine.load(path)
        assert [h.dewey for h in restored.search("persisted")] == [
            h.dewey for h in e.search("persisted")
        ]

    def test_load_rejects_other_pickles(self, tmp_path):
        import pickle

        from repro.errors import XRankError

        path = tmp_path / "junk.pkl"
        with open(path, "wb") as handle:
            pickle.dump([1, 2, 3], handle)
        with pytest.raises(XRankError):
            XRankEngine.load(path)


class TestPagination:
    def test_offset_pages_through_results(self):
        e = XRankEngine()
        e.add_xml(
            "<r>" + "".join(f"<p>common word {i}</p>" for i in range(12)) + "</r>"
        )
        e.build(kinds=["dil"])
        page1 = e.search("common", kind="dil", m=5)
        page2 = e.search("common", kind="dil", m=5, offset=5)
        all_ten = e.search("common", kind="dil", m=10)
        assert [h.dewey for h in page1 + page2] == [h.dewey for h in all_ten]
        assert not set(h.dewey for h in page1) & set(h.dewey for h in page2)

    def test_offset_past_end_empty(self):
        e = XRankEngine()
        e.add_xml("<a>solo hit</a>")
        e.build(kinds=["dil"])
        assert e.search("solo", kind="dil", m=5, offset=50) == []

    def test_negative_offset_rejected(self):
        e = XRankEngine()
        e.add_xml("<a>x</a>")
        e.build(kinds=["dil"])
        with pytest.raises(QueryError):
            e.search("x", kind="dil", offset=-1)


class TestExplain:
    @pytest.fixture()
    def explain_engine(self):
        e = XRankEngine()
        e.add_xml(
            "<workshop><paper><title>xql language basics</title>"
            "<body><sub>more about xql and the language</sub></body>"
            "</paper></workshop>"
        )
        e.build(kinds=["dil"])
        return e

    def test_explanation_decomposes_rank(self, explain_engine):
        explanations = explain_engine.explain("xql language", kind="dil")
        assert explanations
        top = explanations[0]
        assert set(top["keyword_ranks"]) == {"xql", "language"}
        # rank = sum(keyword ranks) * proximity (Section 2.3.2.2)
        reconstructed = sum(top["keyword_ranks"].values()) * top["proximity"]
        assert top["overall_rank"] == pytest.approx(reconstructed, rel=1e-6)

    def test_window_consistent_with_positions(self, explain_engine):
        top = explain_engine.explain("xql language", kind="dil")[0]
        spans = [p for pl in top["positions"].values() for p in pl]
        assert top["smallest_window"] <= max(spans) - min(spans) + 1
        assert top["proximity"] <= 1.0

    def test_elemrank_included(self, explain_engine):
        top = explain_engine.explain("xql language", kind="dil")[0]
        assert top["element_elemrank"] > 0
        assert top["path"].startswith("workshop")

    def test_explain_validates_query(self, explain_engine):
        with pytest.raises(QueryError):
            explain_engine.explain("!!!", kind="dil")
