"""Unit tests for posting extraction and the naive ancestor expansion."""

import pytest

from repro.index.naive import expand_naive_postings
from repro.index.postings import (
    Posting,
    extract_direct_postings,
    rank_order,
)
from repro.ranking.elemrank import compute_elemrank
from repro.xmlmodel.dewey import DeweyId
from repro.xmlmodel.graph import CollectionGraph
from repro.xmlmodel.parser import parse_xml


def graph_and_ranks(*sources):
    graph = CollectionGraph()
    for i, source in enumerate(sources):
        graph.add_document(parse_xml(source, doc_id=i))
    graph.finalize()
    result = compute_elemrank(graph)
    return graph, result.as_mapping(graph)


class TestPostingCodec:
    def test_roundtrip(self):
        posting = Posting(DeweyId.parse("3.1.4"), 0.125, (7, 9, 30))
        assert Posting.decode(posting.encode()) == posting

    def test_payload_roundtrip(self):
        posting = Posting(DeweyId.parse("3.1"), 0.5, (1,))
        decoded = Posting.decode_payload(posting.dewey, posting.encode_payload())
        assert decoded == posting

    def test_float32_rounding(self):
        posting = Posting(DeweyId((1,)), 1 / 3, ())
        decoded = Posting.decode(posting.encode())
        assert decoded.elemrank == pytest.approx(1 / 3, rel=1e-6)


class TestDirectExtraction:
    def test_only_direct_containers(self):
        graph, ranks = graph_and_ranks("<a><b>word</b></a>")
        postings = extract_direct_postings(graph, ranks)
        assert [str(p.dewey) for p in postings["word"]] == ["0.0"]

    def test_sorted_by_dewey(self):
        graph, ranks = graph_and_ranks(
            "<a><b>dup</b><c>dup</c></a>", "<d>dup</d>"
        )
        deweys = [p.dewey for p in extract_direct_postings(graph, ranks)["dup"]]
        assert deweys == sorted(deweys)
        assert len(deweys) == 3

    def test_positions_recorded(self):
        graph, ranks = graph_and_ranks("<a>x y x</a>")
        posting = extract_direct_postings(graph, ranks)["x"][0]
        assert len(posting.positions) == 2
        assert posting.positions == tuple(sorted(posting.positions))

    def test_tag_names_indexed(self):
        graph, ranks = graph_and_ranks("<author>Jim</author>")
        postings = extract_direct_postings(graph, ranks)
        assert "author" in postings and "jim" in postings

    def test_elemrank_attached(self):
        graph, ranks = graph_and_ranks("<a><b>w</b></a>")
        posting = extract_direct_postings(graph, ranks)["w"][0]
        b = graph.documents[0].root.find_first("b")
        assert posting.elemrank == pytest.approx(ranks[b.dewey], rel=1e-5)


class TestNaiveExpansion:
    def test_ancestors_replicated(self):
        graph, ranks = graph_and_ranks("<a><b><c>deep</c></b></a>")
        direct = extract_direct_postings(graph, ranks)
        naive = expand_naive_postings(direct, graph)
        assert [p.elem_id for p in naive["deep"]] == [
            graph.index_of[DeweyId.parse(d)] for d in ("0", "0.0", "0.0.0")
        ]

    def test_positions_merged_upward(self):
        graph, ranks = graph_and_ranks("<a><b>kw</b><c>kw</c></a>")
        naive = expand_naive_postings(
            extract_direct_postings(graph, ranks), graph
        )
        root_id = graph.index_of[DeweyId((0,))]
        root_entry = [p for p in naive["kw"] if p.elem_id == root_id][0]
        assert len(root_entry.positions) == 2

    def test_naive_strictly_larger(self):
        graph, ranks = graph_and_ranks(
            "<a><b><c>x</c></b></a>", "<d><e>x</e></d>"
        )
        direct = extract_direct_postings(graph, ranks)
        naive = expand_naive_postings(direct, graph)
        assert len(naive["x"]) > len(direct["x"])


class TestRankOrder:
    def test_descending_with_dewey_tiebreak(self):
        postings = [
            Posting(DeweyId.parse("0.2"), 0.5, ()),
            Posting(DeweyId.parse("0.1"), 0.5, ()),
            Posting(DeweyId.parse("0.0"), 0.9, ()),
        ]
        ordered = rank_order(postings)
        assert [str(p.dewey) for p in ordered] == ["0.0", "0.1", "0.2"]
        assert ordered[0].elemrank == 0.9
