"""Tests for answer-node filtering and ancestor context navigation."""

from repro.config import RankingParams
from repro.index.builder import IndexBuilder
from repro.query.answer_nodes import AnswerNodeFilter, ancestor_context
from repro.query.dil_eval import DILEvaluator
from repro.query.results import QueryResult
from repro.xmlmodel.graph import CollectionGraph
from repro.xmlmodel.html import parse_html
from repro.xmlmodel.parser import parse_xml


def search(graph, keywords, m=20):
    builder = IndexBuilder(graph)
    return DILEvaluator(builder.build_dil()).evaluate(keywords, m=m)


class TestAncestorContext:
    def test_chain(self, figure1_graph):
        subsection = figure1_graph.documents[5].root.find_first("subsection")
        chain = ancestor_context(figure1_graph, subsection.dewey)
        assert [tag for _, tag in chain] == [
            "section", "body", "paper", "proceedings", "workshop",
        ]

    def test_missing_element(self, figure1_graph):
        from repro.xmlmodel.dewey import DeweyId

        assert ancestor_context(figure1_graph, DeweyId.parse("5.99.99")) == []


class TestAnswerNodeFilter:
    def test_drop_mode(self, figure1_graph):
        results = search(figure1_graph, ["xql", "language"])
        filtered = AnswerNodeFilter(answer_tags={"subsection"}).apply(
            results, figure1_graph, promote=False
        )
        tags = {
            figure1_graph.element_by_dewey(r.dewey).tag for r in filtered
        }
        assert tags == {"subsection"}

    def test_promotion_to_nearest_answer_ancestor(self, figure1_graph):
        results = search(figure1_graph, ["xql", "language"])
        filtered = AnswerNodeFilter(
            answer_tags={"workshop", "section", "subsection"}
        ).apply(results, figure1_graph, RankingParams())
        tags = [figure1_graph.element_by_dewey(r.dewey).tag for r in filtered]
        # The abstract result promotes up to <workshop>; subsection stays.
        assert "subsection" in tags
        assert "workshop" in tags

    def test_promotion_decays_rank(self, figure1_graph):
        results = search(figure1_graph, ["xql", "language"])
        params = RankingParams(decay=0.5)
        answer_filter = AnswerNodeFilter(answer_tags={"workshop"})
        promoted = answer_filter.apply(results, figure1_graph, params)
        original_best = max(r.rank for r in results)
        assert all(r.rank < original_best for r in promoted)

    def test_duplicate_promotions_keep_best(self, figure1_graph):
        results = search(figure1_graph, ["xql", "language"])
        answer_filter = AnswerNodeFilter(answer_tags={"workshop"})
        promoted = answer_filter.apply(results, figure1_graph, RankingParams())
        deweys = [str(r.dewey) for r in promoted]
        assert len(deweys) == len(set(deweys)) == 1

    def test_all_tags_allowed_by_default(self, figure1_graph):
        results = search(figure1_graph, ["xql", "language"])
        passthrough = AnswerNodeFilter().apply(results, figure1_graph)
        assert len(passthrough) == len(results)

    def test_predicate(self, figure1_graph):
        results = search(figure1_graph, ["xql", "language"])
        answer_filter = AnswerNodeFilter(
            predicate=lambda e: e.dewey.depth <= 4
        )
        filtered = answer_filter.apply(results, figure1_graph, promote=False)
        assert all(r.dewey.depth <= 4 for r in filtered)


class TestHTMLRootOnly:
    def test_html_results_forced_to_root(self):
        graph = CollectionGraph()
        graph.add_document(
            parse_html("<p>alpha</p><p>beta</p>", doc_id=0, uri="page")
        )
        graph.finalize()
        results = search(graph, ["alpha", "beta"])
        answer_filter = AnswerNodeFilter()
        filtered = answer_filter.apply(results, graph)
        assert len(filtered) == 1
        assert filtered[0].dewey.components == (0,)

    def test_xml_unaffected_by_html_rule(self, figure1_graph):
        results = search(figure1_graph, ["xql", "language"])
        filtered = AnswerNodeFilter().apply(results, figure1_graph)
        assert {str(r.dewey) for r in filtered} == {
            str(r.dewey) for r in results
        }

    def test_naive_results_resolve_by_elem_id(self, figure1_graph):
        """Naive baselines name results by flat element id, not Dewey."""
        results = [QueryResult(rank=1.0, elem_id=3)]
        assert AnswerNodeFilter().apply(results, figure1_graph) == results
        root = figure1_graph.documents[5].root
        promoted = AnswerNodeFilter(answer_tags={root.tag}).apply(
            results, figure1_graph
        )
        assert [r.dewey for r in promoted] == [root.dewey]
