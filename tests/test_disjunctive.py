"""Tests for disjunctive ("or") semantics and weighted keywords."""

import random

import pytest

from repro.config import RankingParams
from repro.engine import XRankEngine
from repro.errors import QueryError
from repro.index.builder import IndexBuilder
from repro.query.dil_eval import DILEvaluator
from repro.query.disjunctive import DisjunctiveEvaluator
from repro.query.hdil_eval import HDILEvaluator
from repro.query.rdil_eval import RDILEvaluator

from conftest import VOCAB, random_graph


def build(graph):
    builder = IndexBuilder(graph)
    return builder, builder.build_dil()


class TestDisjunctiveSemantics:
    def test_results_are_direct_containers_of_any_keyword(self):
        rng = random.Random(1)
        graph = random_graph(rng, num_docs=3, max_depth=4)
        builder, dil = build(graph)
        evaluator = DisjunctiveEvaluator(dil)
        results = evaluator.evaluate(["alpha", "beta"], m=100_000)
        expected = {
            element.dewey.components
            for element in graph.elements
            if {"alpha", "beta"}
            & {w for w, _ in element.direct_words()}
        }
        assert {r.dewey.components for r in results} == expected

    def test_superset_of_single_keyword_queries(self):
        rng = random.Random(2)
        graph = random_graph(rng, num_docs=3, max_depth=4)
        builder, dil = build(graph)
        disjunctive = DisjunctiveEvaluator(dil)
        conjunctive = DILEvaluator(dil)
        union = {
            str(r.dewey)
            for keyword in ("alpha", "beta")
            for r in conjunctive.evaluate([keyword], m=100_000)
        }
        either = {
            str(r.dewey)
            for r in disjunctive.evaluate(["alpha", "beta"], m=100_000)
        }
        assert either == union

    def test_element_with_both_keywords_scores_higher(self):
        from repro.xmlmodel.graph import CollectionGraph
        from repro.xmlmodel.parser import parse_xml

        graph = CollectionGraph()
        graph.add_document(
            parse_xml("<r><a>alpha beta</a><b>alpha</b><c>beta</c></r>", doc_id=0)
        )
        graph.finalize()
        _, dil = build(graph)
        results = DisjunctiveEvaluator(dil).evaluate(["alpha", "beta"], m=10)
        top = results[0]
        assert graph.elements[graph.index_of[top.dewey]].tag == "a"
        assert sum(1 for r in top.keyword_ranks if r > 0) == 2

    def test_single_keyword_missing_ok(self):
        rng = random.Random(3)
        graph = random_graph(rng, num_docs=2, max_depth=3)
        _, dil = build(graph)
        evaluator = DisjunctiveEvaluator(dil)
        some = evaluator.evaluate(["alpha", "wordthatneverappears"], m=50)
        only = evaluator.evaluate(["alpha"], m=50)
        assert {str(r.dewey) for r in some} == {str(r.dewey) for r in only}

    def test_requires_dewey_ordered_index(self, figure1_graph):
        builder = IndexBuilder(figure1_graph)
        rdil = builder.build_rdil()
        with pytest.raises(QueryError):
            DisjunctiveEvaluator(rdil)

    def test_validation(self, figure1_graph):
        _, dil = build(figure1_graph)
        evaluator = DisjunctiveEvaluator(dil)
        with pytest.raises(QueryError):
            evaluator.evaluate([], m=5)
        with pytest.raises(QueryError):
            evaluator.evaluate(["x"], m=0)
        with pytest.raises(QueryError):
            evaluator.evaluate(["x", "y"], m=5, weights=[1.0])
        with pytest.raises(QueryError):  # same rule as the "and" evaluators
            evaluator.evaluate(["x", "y"], m=5, weights=[1.0, -1.0])


class TestWeightedKeywords:
    def test_weights_scale_ranks_linearly(self, figure1_graph):
        builder = IndexBuilder(figure1_graph)
        evaluator = DILEvaluator(builder.build_dil())
        plain = evaluator.evaluate(["xql", "language"], m=10)
        doubled = evaluator.evaluate(
            ["xql", "language"], m=10, weights=[2.0, 2.0]
        )
        assert [r.rank * 2 for r in plain] == pytest.approx(
            [r.rank for r in doubled], rel=1e-6
        )

    def test_weights_can_reorder_results(self):
        from repro.xmlmodel.graph import CollectionGraph
        from repro.xmlmodel.parser import parse_xml

        graph = CollectionGraph()
        # Two results: one strong on alpha, one strong on beta.
        graph.add_document(
            parse_xml(
                "<r>"
                "<x><d>alpha</d> alpha beta</x>"
                "<y><d>beta</d> beta alpha</y>"
                "</r>",
                doc_id=0,
            )
        )
        graph.finalize()
        builder = IndexBuilder(graph)
        evaluator = DILEvaluator(
            builder.build_dil(), RankingParams(use_proximity=False, aggregation="sum")
        )
        favour_alpha = evaluator.evaluate(
            ["alpha", "beta"], m=2, weights=[10.0, 1.0]
        )
        favour_beta = evaluator.evaluate(
            ["alpha", "beta"], m=2, weights=[1.0, 10.0]
        )
        assert favour_alpha[0].dewey != favour_beta[0].dewey

    @pytest.mark.parametrize("seed", range(5))
    def test_weighted_agreement_across_evaluators(self, seed):
        rng = random.Random(400 + seed)
        graph = random_graph(rng, num_docs=3, max_depth=4)
        builder = IndexBuilder(graph)
        weights = [rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0)]
        dil = DILEvaluator(builder.build_dil())
        rdil = RDILEvaluator(builder.build_rdil())
        hdil = HDILEvaluator(builder.build_hdil())
        keywords = ["alpha", "beta"]
        reference = [
            round(r.rank, 8) for r in dil.evaluate(keywords, m=5, weights=weights)
        ]
        for other in (rdil, hdil):
            got = [
                round(r.rank, 8)
                for r in other.evaluate(keywords, m=5, weights=weights)
            ]
            assert got == pytest.approx(reference, rel=1e-5)

    def test_negative_weight_rejected(self, figure1_graph):
        builder = IndexBuilder(figure1_graph)
        evaluator = DILEvaluator(builder.build_dil())
        with pytest.raises(QueryError):
            evaluator.evaluate(["xql", "language"], m=5, weights=[1.0, -1.0])


class TestEngineModes:
    @pytest.fixture()
    def engine(self):
        e = XRankEngine()
        e.add_xml(
            "<r><a>alpha beta</a><b>alpha only here</b><c>beta only here</c></r>"
        )
        e.build(kinds=["hdil", "dil", "rdil"])
        return e

    def test_or_mode_returns_more(self, engine):
        conjunctive = engine.search("alpha beta", mode="and", kind="dil")
        disjunctive = engine.search("alpha beta", mode="or", kind="dil")
        assert len(disjunctive) > len(conjunctive)

    def test_or_mode_on_hdil(self, engine):
        assert engine.search("alpha beta", mode="or", kind="hdil")

    def test_or_mode_rejected_for_rank_ordered_index(self, engine):
        with pytest.raises(QueryError):
            engine.search("alpha beta", mode="or", kind="rdil")

    def test_unknown_mode(self, engine):
        with pytest.raises(QueryError):
            engine.search("alpha", mode="xor")

    def test_engine_weights(self, engine):
        favour_b = engine.search(
            "alpha beta", mode="or", kind="dil", weights={"alpha": 5.0}
        )
        assert favour_b
