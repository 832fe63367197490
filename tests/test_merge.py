"""The Dewey-stack merge against the brute-force reference semantics.

This is the central correctness test of the reproduction: the single-pass
algorithm of paper Figure 5 must produce exactly the Section 2.2 result set
with Section 2.3.2 ranks, on handcrafted cases and on randomized corpora.
"""

import itertools
import random

import pytest

from repro.config import RankingParams
from repro.index.postings import extract_direct_postings
from repro.query.merge import conjunctive_merge
from repro.query.streams import PostingStream
from repro.ranking.elemrank import compute_elemrank

from conftest import VOCAB, random_graph, reference_results


def merge_results(graph, keywords, params=None):
    params = params or RankingParams()
    elemranks = compute_elemrank(graph).as_mapping(graph)
    postings = extract_direct_postings(graph, elemranks)
    streams = [
        PostingStream(postings.get(k, []))
        for k in keywords
    ]
    return {
        result.dewey.components: result.rank
        for result in conjunctive_merge(streams, params)
    }, elemranks


def assert_matches_reference(graph, keywords, params=None):
    params = params or RankingParams()
    got, elemranks = merge_results(graph, keywords, params)
    expected = reference_results(graph, keywords, elemranks, params)
    assert set(got) == set(expected), (
        f"result sets differ for {keywords}: "
        f"extra={set(got) - set(expected)}, missing={set(expected) - set(got)}"
    )
    for key in expected:
        assert got[key] == pytest.approx(expected[key], rel=1e-4, abs=1e-12), (
            f"rank mismatch at {key} for {keywords}"
        )


class TestPaperExample:
    def test_xql_language_returns_subsection_and_abstract(self, figure1_graph):
        got, _ = merge_results(figure1_graph, ["xql", "language"])
        tags = {
            figure1_graph.element_by_dewey_components(key).tag
            if hasattr(figure1_graph, "element_by_dewey_components")
            else figure1_graph.elements[figure1_graph.index_of[_dewey(key)]].tag
            for key in got
        }
        assert tags == {"subsection", "abstract"}

    def test_ancestors_suppressed(self, figure1_graph):
        got, _ = merge_results(figure1_graph, ["xql", "language"])
        depths = {len(key) for key in got}
        # No workshop (depth 1) or paper/body results: only the specific ones.
        assert 1 not in depths

    def test_matches_reference(self, figure1_graph):
        for keywords in (["xql"], ["xql", "language"], ["xml", "workshop"],
                         ["querying", "xyleme"], ["soffer", "xql"]):
            assert_matches_reference(figure1_graph, keywords)


def _dewey(components):
    from repro.xmlmodel.dewey import DeweyId

    return DeweyId(components)


class TestHandcrafted:
    def test_independent_occurrences_still_reported(self):
        """The paper's <paper> example: an element with a result descendant
        AND independent occurrences of all keywords is itself a result."""
        from repro.xmlmodel.graph import CollectionGraph
        from repro.xmlmodel.parser import parse_xml

        graph = CollectionGraph()
        graph.add_document(parse_xml(
            "<paper>"
            "<title>alpha</title>"
            "<abstract>beta</abstract>"
            "<body><sub>alpha beta</sub></body>"
            "</paper>",
            doc_id=0,
        ))
        graph.finalize()
        got, _ = merge_results(graph, ["alpha", "beta"])
        tags = {graph.elements[graph.index_of[_dewey(k)]].tag for k in got}
        assert tags == {"sub", "paper"}
        assert_matches_reference(graph, ["alpha", "beta"])

    def test_blocked_occurrences_unusable(self):
        """Occurrences under an R0 sub-element cannot act as witnesses."""
        from repro.xmlmodel.graph import CollectionGraph
        from repro.xmlmodel.parser import parse_xml

        graph = CollectionGraph()
        graph.add_document(parse_xml(
            "<top>"
            "<l><sub>alpha beta</sub><x>alpha</x></l>"
            "<r>beta</r>"
            "</top>",
            doc_id=0,
        ))
        graph.finalize()
        got, _ = merge_results(graph, ["alpha", "beta"])
        tags = {graph.elements[graph.index_of[_dewey(k)]].tag for k in got}
        # <sub> is the only result: <l>'s alpha in <x> is independent but its
        # beta is only inside <sub> (in R0); <top>'s witness through <l> is
        # blocked because <l> is in R0.
        assert tags == {"sub"}
        assert_matches_reference(graph, ["alpha", "beta"])

    def test_same_element_contains_both(self):
        from repro.xmlmodel.graph import CollectionGraph
        from repro.xmlmodel.parser import parse_xml

        graph = CollectionGraph()
        graph.add_document(parse_xml("<a><b>alpha beta</b></a>", doc_id=0))
        graph.finalize()
        got, _ = merge_results(graph, ["alpha", "beta"])
        assert set(got) == {(0, 0)}
        assert_matches_reference(graph, ["alpha", "beta"])

    def test_cross_document_results_independent(self):
        from repro.xmlmodel.graph import CollectionGraph
        from repro.xmlmodel.parser import parse_xml

        graph = CollectionGraph()
        graph.add_document(parse_xml("<a>alpha beta</a>", doc_id=0))
        graph.add_document(parse_xml("<b>alpha</b>", doc_id=1))
        graph.add_document(parse_xml("<c>alpha beta</c>", doc_id=2))
        graph.finalize()
        got, _ = merge_results(graph, ["alpha", "beta"])
        assert set(got) == {(0,), (2,)}

    def test_empty_stream_kills_conjunction(self, figure1_graph):
        got, _ = merge_results(figure1_graph, ["xql", "nonexistentword"])
        assert got == {}

    def test_no_streams(self):
        assert list(conjunctive_merge([], RankingParams())) == []


class TestRandomizedAgainstReference:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_corpora_two_keywords(self, seed):
        rng = random.Random(seed)
        graph = random_graph(rng, num_docs=3, max_depth=4)
        for keywords in itertools.combinations(VOCAB[:4], 2):
            assert_matches_reference(graph, list(keywords))

    @pytest.mark.parametrize("seed", range(6))
    def test_random_corpora_three_keywords(self, seed):
        rng = random.Random(100 + seed)
        graph = random_graph(rng, num_docs=2, max_depth=5)
        assert_matches_reference(graph, ["alpha", "beta", "gamma"])

    @pytest.mark.parametrize("seed", range(4))
    def test_sum_aggregation(self, seed):
        rng = random.Random(200 + seed)
        graph = random_graph(rng, num_docs=2, max_depth=4)
        params = RankingParams(aggregation="sum")
        assert_matches_reference(graph, ["alpha", "beta"], params)

    @pytest.mark.parametrize("seed", range(4))
    def test_no_proximity(self, seed):
        rng = random.Random(300 + seed)
        graph = random_graph(rng, num_docs=2, max_depth=4)
        params = RankingParams(use_proximity=False)
        assert_matches_reference(graph, ["alpha", "beta"], params)

    @pytest.mark.parametrize("decay", [0.25, 1.0])
    def test_decay_extremes(self, decay):
        rng = random.Random(42)
        graph = random_graph(rng, num_docs=3, max_depth=4)
        params = RankingParams(decay=decay)
        assert_matches_reference(graph, ["alpha", "beta"], params)


class TestDeepDocuments:
    """Deeper random trees exercise longer Dewey stacks and decay chains."""

    @pytest.mark.parametrize("seed", range(4))
    def test_depth_six_corpora(self, seed):
        rng = random.Random(500 + seed)
        graph = random_graph(rng, num_docs=2, max_depth=6)
        assert_matches_reference(graph, ["alpha", "beta"])

    def test_single_path_chain(self):
        """A degenerate chain document: one result at the deepest pair."""
        from repro.xmlmodel.graph import CollectionGraph
        from repro.xmlmodel.parser import parse_xml

        source = "<a><b><c><d><e>alpha</e><f>beta</f></d></c></b></a>"
        graph = CollectionGraph()
        graph.add_document(parse_xml(source, doc_id=0))
        graph.finalize()
        got, _ = merge_results(graph, ["alpha", "beta"])
        # Only <d> (deepest common ancestor) is a result.
        assert set(got) == {(0, 0, 0, 0)}
        assert_matches_reference(graph, ["alpha", "beta"])

    def test_keyword_repeated_along_chain(self):
        from repro.xmlmodel.graph import CollectionGraph
        from repro.xmlmodel.parser import parse_xml

        source = "<a>alpha <b>alpha <c>alpha beta</c></b></a>"
        graph = CollectionGraph()
        graph.add_document(parse_xml(source, doc_id=0))
        graph.finalize()
        got, _ = merge_results(graph, ["alpha", "beta"])
        # <c> (child 1 of <b>, after its text node) has both; <b> and <a>
        # have independent alphas but their only betas are inside results.
        assert set(got) == {(0, 1, 1)}
        assert_matches_reference(graph, ["alpha", "beta"])
