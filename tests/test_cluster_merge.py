"""Unit tests for the scatter-gather merge and the global-stats exchange."""

from __future__ import annotations

import json

import pytest

from repro.build.shard import parse_spec, specs_from
from repro.cluster.local import LocalCluster
from repro.cluster.merge import dewey_sort_key, hit_order_key, merge_hits
from repro.cluster.stats import (
    GlobalStats,
    build_full_graph,
    compute_global_stats,
)
from repro.cluster.worker import build_shard_engine
from repro.engine import XRankEngine
from repro.errors import StatsExchangeError


def hit(rank, dewey):
    return {"rank": rank, "dewey": dewey}


class TestCanonicalOrder:
    def test_higher_rank_first(self):
        hits = [hit(0.1, "0.1"), hit(0.9, "1.1"), hit(0.5, "2.1")]
        merged = merge_hits([hits], m=3)
        assert [h["dewey"] for h in merged] == ["1.1", "2.1", "0.1"]

    def test_rank_ties_break_by_dewey_ascending(self):
        hits = [hit(0.5, "2.1"), hit(0.5, "0.3.1"), hit(0.5, "0.10")]
        merged = merge_hits([hits], m=3)
        assert [h["dewey"] for h in merged] == ["0.3.1", "0.10", "2.1"]

    def test_dewey_key_is_numeric_not_lexicographic(self):
        assert dewey_sort_key("0.10") > dewey_sort_key("0.9")
        assert dewey_sort_key("2") > dewey_sort_key("1.99.99")

    def test_order_key_total_on_distinct_deweys(self):
        a, b = hit(0.5, "1.2"), hit(0.5, "1.2.1")
        assert hit_order_key(a) != hit_order_key(b)


class TestMerge:
    def test_merge_interleaves_across_shards(self):
        shard_a = [hit(0.9, "0.1"), hit(0.3, "2.1")]
        shard_b = [hit(0.7, "1.1"), hit(0.1, "3.1")]
        merged = merge_hits([shard_a, shard_b], m=4)
        assert [h["dewey"] for h in merged] == ["0.1", "1.1", "2.1", "3.1"]

    def test_m_truncates_globally(self):
        shard_a = [hit(0.9, "0.1"), hit(0.8, "0.2")]
        shard_b = [hit(0.85, "1.1")]
        merged = merge_hits([shard_a, shard_b], m=2)
        assert [h["dewey"] for h in merged] == ["0.1", "1.1"]

    def test_offset_applies_after_global_sort(self):
        shard_a = [hit(0.9, "0.1"), hit(0.5, "0.2")]
        shard_b = [hit(0.7, "1.1")]
        merged = merge_hits([shard_a, shard_b], m=2, offset=1)
        assert [h["dewey"] for h in merged] == ["1.1", "0.2"]

    def test_duplicate_deweys_keep_first_occurrence(self):
        merged = merge_hits([[hit(0.9, "0.1")], [hit(0.9, "0.1")]], m=5)
        assert len(merged) == 1

    def test_empty_shards_are_fine(self):
        assert merge_hits([[], [hit(0.5, "0.1")], []], m=3) == [
            hit(0.5, "0.1")
        ]
        assert merge_hits([], m=3) == []


CORPUS = [
    "<doc><p>alpha beta shared</p></doc>",
    "<doc><p>gamma shared words</p></doc>",
    "<doc><p>alpha delta tail</p></doc>",
    "<doc><p>epsilon closing shared</p></doc>",
]


def parsed(corpus):
    return [parse_spec(spec) for spec in specs_from(corpus)]


class TestGlobalStats:
    def test_stats_cover_every_element(self):
        graph = build_full_graph(parsed(CORPUS))
        stats = compute_global_stats(graph)
        assert stats.num_documents == len(CORPUS)
        assert stats.num_elements == len(stats.elemranks)
        stats.require_coverage(graph)  # must not raise

    def test_stats_match_single_node_elemranks(self):
        stats = compute_global_stats(build_full_graph(parsed(CORPUS)))
        engine = XRankEngine()
        for source in CORPUS:
            engine.add_xml(source)
        engine.build(kinds=("dil",))
        for dewey, score in engine.builder.elemranks.items():
            assert stats.elemranks[str(dewey)] == score

    def test_json_roundtrip_is_exact(self, tmp_path):
        stats = compute_global_stats(build_full_graph(parsed(CORPUS)))
        path = tmp_path / "stats.json"
        stats.save(path)
        restored = GlobalStats.load(path)
        assert restored.elemranks == stats.elemranks  # float repr: exact
        assert restored.to_dict() == stats.to_dict()
        # A payload written before document frequencies were dropped
        # still loads, to the same stats.
        older = dict(stats.to_dict(), document_frequencies={"alpha": 2})
        path.write_text(json.dumps(older), encoding="utf-8")
        assert GlobalStats.load(path).to_dict() == stats.to_dict()

    def test_partial_stats_fail_loudly(self):
        documents = parsed(CORPUS)
        stats = compute_global_stats(build_full_graph(documents[:2]))
        with pytest.raises(StatsExchangeError):
            build_shard_engine(parsed(CORPUS)[2:], stats, kinds=("dil",))

    def test_shard_engine_postings_carry_global_scores(self):
        stats = compute_global_stats(build_full_graph(parsed(CORPUS)))
        shard = build_shard_engine(parsed(CORPUS)[2:], stats, kinds=("dil",))
        single = XRankEngine()
        for source in CORPUS:
            single.add_xml(source)
        single.build(kinds=("dil",))
        # The shard's ElemRanks for its documents equal the single-node
        # values — not what a shard-local power iteration would produce.
        for dewey, score in shard.builder.elemranks.items():
            assert single.builder.elemranks[dewey] == score


class TestIngestion:
    """The cluster ingests a corpus exactly as a single engine does."""

    LINKED = [
        "<a><cite xlink='doc1'/><t>alpha</t></a>",
        "<b><t>alpha target</t></b>",
        "<c><t>alpha</t></c>",
    ]

    def test_bare_strings_rank_as_on_one_node(self):
        # Bare strings carry the URI "" on both sides, so the XLink to
        # "doc1" dangles in the cluster exactly as it does on one node.
        engine = XRankEngine()
        engine.build(kinds=["dil"], corpus=self.LINKED)
        expected = [
            (hit.dewey, hit.rank)
            for hit in engine.search("alpha", m=10, kind="dil")
        ]
        with LocalCluster.from_sources(
            self.LINKED, num_shards=2, kinds=("dil",)
        ) as cluster:
            response = cluster.search("alpha", m=10, kind="dil").to_dict()
        assert [
            (hit["dewey"], hit["rank"]) for hit in response["results"]
        ] == expected

    def test_cluster_parses_each_spec_once(self, monkeypatch):
        calls = []

        def counting_parse_spec(spec, word_table=None):
            calls.append(spec.doc_id)
            return parse_spec(spec, word_table)

        monkeypatch.setattr(
            "repro.cluster.local.parse_spec", counting_parse_spec
        )
        specs = specs_from(CORPUS)
        LocalCluster(specs, num_shards=2, kinds=("dil",))
        assert sorted(calls) == [spec.doc_id for spec in specs]
