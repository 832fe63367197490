"""Cross-evaluator agreement: DIL, RDIL and HDIL must return the same
top-m results (the paper's three structures answer identical queries), and
DIL must match the brute-force reference."""

import itertools
import random

import pytest

from repro.config import HDILParams, RankingParams
from repro.errors import QueryError
from repro.index.builder import IndexBuilder
from repro.query.dil_eval import DILEvaluator
from repro.query.hdil_eval import HDILEvaluator
from repro.query.rdil_eval import RDILEvaluator

from conftest import VOCAB, random_graph, reference_results


def build_evaluators(graph, ranking=None, hdil_params=None):
    ranking = ranking or RankingParams()
    builder = IndexBuilder(graph)
    return {
        "dil": DILEvaluator(builder.build_dil(), ranking),
        "rdil": RDILEvaluator(builder.build_rdil(), ranking),
        "hdil": HDILEvaluator(
            builder.build_hdil(hdil_params), ranking, hdil_params
        ),
    }, builder


def top_ranks(results):
    return [round(r.rank, 9) for r in results]


def assert_same_topm(evaluators, keywords, m):
    outcomes = {
        name: evaluator.evaluate(keywords, m=m)
        for name, evaluator in evaluators.items()
    }
    dil = outcomes["dil"]
    for name in ("rdil", "hdil"):
        other = outcomes[name]
        assert top_ranks(other) == pytest.approx(top_ranks(dil), rel=1e-5), (
            f"{name} top-{m} ranks diverge from DIL for {keywords}"
        )
        # Results strictly above the m-th rank must be identical elements.
        if dil:
            cutoff = dil[-1].rank
            dil_strict = {str(r.dewey) for r in dil if r.rank > cutoff}
            other_strict = {str(r.dewey) for r in other if r.rank > cutoff}
            assert dil_strict == other_strict


class TestAgreementOnFigure1:
    @pytest.mark.parametrize(
        "keywords",
        [["xql"], ["xql", "language"], ["xml", "workshop"], ["soffer", "xql"]],
    )
    def test_all_evaluators_agree(self, figure1_graph, keywords):
        evaluators, _ = build_evaluators(figure1_graph)
        assert_same_topm(evaluators, keywords, m=10)


class TestAgreementRandomized:
    @pytest.mark.parametrize("seed", range(10))
    def test_two_keyword_queries(self, seed):
        rng = random.Random(seed)
        graph = random_graph(rng, num_docs=4, max_depth=4)
        evaluators, _ = build_evaluators(graph)
        for keywords in itertools.combinations(VOCAB[:4], 2):
            for m in (1, 3, 10):
                assert_same_topm(evaluators, list(keywords), m)

    @pytest.mark.parametrize("seed", range(5))
    def test_three_keyword_queries(self, seed):
        rng = random.Random(50 + seed)
        graph = random_graph(rng, num_docs=3, max_depth=4)
        evaluators, _ = build_evaluators(graph)
        assert_same_topm(evaluators, ["alpha", "beta", "gamma"], m=5)

    @pytest.mark.parametrize("seed", range(5))
    def test_single_keyword(self, seed):
        rng = random.Random(80 + seed)
        graph = random_graph(rng, num_docs=3, max_depth=3)
        evaluators, _ = build_evaluators(graph)
        assert_same_topm(evaluators, ["alpha"], m=5)

    def test_dil_matches_reference_topm(self):
        rng = random.Random(7)
        graph = random_graph(rng, num_docs=4, max_depth=4)
        evaluators, builder = build_evaluators(graph)
        expected = reference_results(
            graph, ["alpha", "beta"], builder.elemranks
        )
        got = evaluators["dil"].evaluate(["alpha", "beta"], m=1000)
        assert {r.dewey.components for r in got} == set(expected)
        for result in got:
            assert result.rank == pytest.approx(
                expected[result.dewey.components], rel=1e-4, abs=1e-12
            )


class TestHDILSpecifics:
    def test_tiny_head_forces_dil_fallback(self):
        """With a 1-entry ranked head HDIL must still answer correctly."""
        rng = random.Random(3)
        graph = random_graph(rng, num_docs=4, max_depth=4)
        params = HDILParams(rank_fraction=0.01, min_rank_entries=1,
                            monitor_interval=1)
        evaluators, _ = build_evaluators(graph, hdil_params=params)
        assert_same_topm(evaluators, ["alpha", "beta"], m=10)

    def test_full_head_stays_in_rdil_mode(self):
        rng = random.Random(4)
        graph = random_graph(rng, num_docs=3, max_depth=3)
        params = HDILParams(rank_fraction=1.0, min_rank_entries=1)
        evaluators, _ = build_evaluators(graph, hdil_params=params)
        assert_same_topm(evaluators, ["alpha", "beta"], m=3)

    def test_trace_populated(self):
        rng = random.Random(5)
        graph = random_graph(rng, num_docs=3, max_depth=3)
        evaluators, _ = build_evaluators(graph)
        hdil = evaluators["hdil"]
        hdil.evaluate(["alpha", "beta"], m=3)
        assert hdil.last_trace.dil_expected_ms > 0

    def test_single_keyword_head_shorter_than_m(self):
        rng = random.Random(6)
        graph = random_graph(rng, num_docs=4, max_depth=4)
        params = HDILParams(rank_fraction=0.01, min_rank_entries=1)
        evaluators, _ = build_evaluators(graph, hdil_params=params)
        dil = evaluators["dil"].evaluate(["alpha"], m=50)
        hdil = evaluators["hdil"].evaluate(["alpha"], m=50)
        assert top_ranks(hdil) == pytest.approx(top_ranks(dil), rel=1e-6)


class TestValidation:
    def test_empty_query_rejected(self, figure1_graph):
        evaluators, _ = build_evaluators(figure1_graph)
        for evaluator in evaluators.values():
            with pytest.raises(QueryError):
                evaluator.evaluate([], m=5)

    def test_bad_m_rejected(self, figure1_graph):
        evaluators, _ = build_evaluators(figure1_graph)
        for evaluator in evaluators.values():
            with pytest.raises(QueryError):
                evaluator.evaluate(["xql"], m=0)

    def test_unknown_keyword_empty_result(self, figure1_graph):
        evaluators, _ = build_evaluators(figure1_graph)
        for evaluator in evaluators.values():
            assert evaluator.evaluate(["zzzz", "xql"], m=5) == []


class TestHDILEstimators:
    @pytest.mark.parametrize("estimator", ["paper", "threshold-slope"])
    def test_both_estimators_return_correct_topm(self, estimator):
        rng = random.Random(9)
        graph = random_graph(rng, num_docs=4, max_depth=4)
        params = HDILParams(estimator=estimator, monitor_interval=2)
        evaluators, _ = build_evaluators(graph, hdil_params=params)
        assert_same_topm(evaluators, ["alpha", "beta"], m=5)

    def test_bad_estimator_rejected(self):
        from repro.errors import QueryError

        with pytest.raises(QueryError):
            HDILParams(estimator="crystal-ball")


class TestSingleKeywordParity:
    """One top-m routine serves every Dewey-family index: same answer."""

    class Expired:
        def poll(self):
            return True

    @pytest.mark.parametrize("weights", [None, [2.5]])
    def test_identical_across_index_kinds(self, weights):
        from repro.index.incremental import IncrementalDILIndex

        graph = random_graph(random.Random(11), num_docs=5, max_depth=4)
        params = HDILParams(rank_fraction=0.25, min_rank_entries=2)
        evaluators, builder = build_evaluators(graph, hdil_params=params)
        incremental = IncrementalDILIndex()
        incremental.build(builder.direct_postings)
        evaluators["dil-incremental"] = DILEvaluator(incremental)
        for evaluator in evaluators.values():
            evaluator.index.delete_document(1)

        hdil = evaluators["hdil"].index
        keyword = max(VOCAB, key=hdil.list_length)
        head, length = hdil.head_length(keyword), hdil.list_length(keyword)
        assert 1 < head < length
        for m in (1, head, head + 1, length + 5):
            want = evaluators["dil"].evaluate([keyword], m=m, weights=weights)
            assert want and all(r.dewey.doc_id != 1 for r in want)
            for name, evaluator in evaluators.items():
                got = evaluator.evaluate([keyword], m=m, weights=weights)
                assert got == want, f"{name} differs at m={m}"
        for name, evaluator in evaluators.items():
            assert evaluator.evaluate(
                [keyword], m=3, weights=weights, deadline=self.Expired()
            ) == [], name
