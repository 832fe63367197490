"""What a built engine keeps: its indexes, not the posting map they came from.

After ``build`` no :class:`Posting` is reachable from an engine — queries
read the built lists — and a graph holds one string object per distinct
word.  Both are memory properties, so the tests walk the object graph
with :func:`gc.get_referents` instead of trusting attribute names.
"""

import gc
import sys
import types

import pytest

from repro.build.shard import DocumentSpec
from repro.build.verify import default_probe_queries
from repro.cluster import LocalCluster
from repro.datasets.dblp import generate_dblp
from repro.durability.format import decode_part
from repro.engine import XRankEngine
from repro.index.builder import IndexBuilder
from repro.index.postings import Posting, extract_direct_postings

#: Never walked into: a class or module leads to every global of the process.
_OPAQUE = (
    type,
    types.ModuleType,
    types.FunctionType,
    types.BuiltinFunctionType,
    types.CodeType,
)

KINDS = ("dil", "rdil", "hdil", "dil-incremental")


def reachable(root, cls) -> int:
    """Instances of ``cls`` reachable from ``root`` by object references."""
    seen = set()
    stack = [root]
    found = 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, _OPAQUE):
            continue
        seen.add(id(obj))
        if isinstance(obj, cls):
            found += 1
        stack.extend(gc.get_referents(obj))
    return found


def answers(engine, queries, kinds=("dil", "rdil", "hdil")):
    return {
        (query, kind): [
            (hit.dewey, hit.rank)
            for hit in engine.search(query, m=10, kind=kind)
        ]
        for query in queries
        for kind in kinds
    }


@pytest.fixture(scope="module")
def corpus():
    return generate_dblp(num_papers=30, seed=3)


@pytest.fixture(scope="module")
def built(corpus):
    engine = XRankEngine()
    engine.build(kinds=KINDS, corpus=corpus)
    return engine


@pytest.fixture(scope="module")
def queries(built):
    """The four keywords with the longest lists, and the top two as a pair."""
    frequent = default_probe_queries(built, count=4)
    return frequent + [" ".join(frequent[:2])]


class TestNoPostingsAfterBuild:
    def test_the_walk_sees_a_posting_map(self, corpus):
        assert reachable(IndexBuilder(corpus.graph), Posting) > 0

    @pytest.mark.parametrize("kind", KINDS)
    def test_built_engine_after_a_search(self, built, queries, kind):
        assert built.search(queries[0], m=10, kind=kind)
        assert reachable(built, Posting) == 0

    def test_builder_keeps_elemrank(self, built):
        assert built.builder.elemranks
        assert built.builder.elemrank_result.converged
        assert not hasattr(built.builder, "direct_postings")

    def test_cluster_shard_engine(self, corpus, queries):
        specs = [
            DocumentSpec(doc_id=doc_id, uri=f"paper{doc_id}", source=source)
            for doc_id, source in enumerate(corpus.sources)
        ]
        # The service's posting-list cache holds decoded lists by design
        # (a serving cache, not engine state), so it is off here.
        options = {"result_cache_size": 0, "list_cache_size": 0}
        cluster = LocalCluster(specs, num_shards=2, worker_options=options)
        with cluster:
            assert cluster.search(queries[0], m=5).to_dict()["results"]
            for group in cluster.workers:
                assert reachable(group[0].engine, Posting) == 0

    def test_snapshot_with_a_posting_map_loads_without_it(
        self, built, queries, tmp_path
    ):
        """Engine files written before the release pickle the map; loading
        one answers identically and keeps no posting."""
        engine = XRankEngine()
        engine.build(
            kinds=("dil", "rdil", "hdil"), corpus=generate_dblp(30, seed=3)
        )
        builder = engine.builder
        builder.direct_postings = extract_direct_postings(
            engine.graph, builder.elemranks
        )
        path = tmp_path / "old.xrank"
        engine.save(path)
        payload, _ = decode_part(path.read_bytes(), path=str(path))
        assert b"Posting" in payload
        restored = XRankEngine.load(path)
        assert reachable(restored, Posting) == 0
        assert answers(restored, queries) == answers(built, queries)


def _word_objects(graph):
    """Word -> the ids of the string objects the graph stores for it."""
    objects = {}
    for document in graph.documents.values():
        for element in document.iter_elements():
            for word, _position in element.direct_words():
                objects.setdefault(word, set()).add(id(word))
    return objects


class TestOneStringPerWord:
    SOURCES = [
        "<a><b>shared alpha</b><c>shared</c></a>",
        "<a><d>shared beta alpha</d></a>",
    ]

    def assert_shared(self, graph, words=("shared", "alpha", "a")):
        objects = _word_objects(graph)
        assert set(words) <= set(objects)
        assert all(len(ids) == 1 for ids in objects.values())

    def test_engine_adds(self):
        engine = XRankEngine()
        for source in self.SOURCES:
            engine.add_xml(source)
        engine.add_html("<html><p>shared alpha</p></html>")
        self.assert_shared(engine.graph)

    def test_sequential_build(self):
        engine = XRankEngine()
        engine.build(kinds=("dil",), corpus=self.SOURCES)
        self.assert_shared(engine.graph)

    def test_generated_corpus(self, corpus):
        self.assert_shared(corpus.graph, ("article", "title", "author"))

    def test_tables_are_per_graph_not_process_wide(self):
        first, second = XRankEngine(), XRankEngine()
        first.add_xml("<a>zyzzogeton</a>")
        second.add_xml("<a>zyzzogeton</a>")
        (word_one,) = _word_objects(first.graph)["zyzzogeton"]
        (word_two,) = _word_objects(second.graph)["zyzzogeton"]
        assert word_one != word_two
        parsed = first.graph.documents[0].root.children[0].words[0][0]
        assert parsed is not sys.intern("zyzzogeton")

    def test_words_and_positions_unchanged(self):
        engine = XRankEngine()
        engine.add_xml(self.SOURCES[0])
        words = [
            pair
            for element in engine.graph.documents[0].iter_elements()
            for pair in element.direct_words()
        ]
        assert sorted(words, key=lambda pair: pair[1]) == [
            ("a", 0), ("b", 1), ("shared", 2),
            ("alpha", 3), ("c", 4), ("shared", 5),
        ]


def test_stats_counts_keywords_added_incrementally():
    engine = XRankEngine()
    engine.build(
        kinds=["dil-incremental", "hdil"],
        corpus=["<a><b>alpha beta</b></a>", "<a><c>gamma</c></a>"],
    )
    assert engine.stats()["keywords"] == 6
    engine.add_xml_incremental("<a><d>zeta omega</d></a>")
    assert engine.search("zeta", kind="dil-incremental")
    assert engine.stats()["keywords"] == 9
    assert len(set(engine.index("dil-incremental").keywords())) == 9
