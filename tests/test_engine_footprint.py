"""What a built engine keeps: its indexes, not the posting map they came from.

After ``build`` no :class:`Posting` is reachable from an engine — queries
read the built lists — no :class:`ListFile` outlives a lookup (each index
locates its lists through one packed directory), and a graph holds one
string object per distinct word.  These are memory properties, so the
tests walk the object graph with :func:`gc.get_referents` instead of
trusting attribute names.
"""

import copyreg
import gc
import io
import pickle
import sys
import types

import pytest

from repro.build.shard import DocumentSpec
from repro.build.verify import default_probe_queries
from repro.cluster import LocalCluster
from repro.datasets.dblp import generate_dblp
from repro.durability.format import decode_part
from repro.datasets.workloads import document_frequencies
from repro.engine import INDEX_KINDS, XRankEngine
from repro.index.builder import IndexBuilder
from repro.index.postings import Posting, extract_direct_postings
from repro.storage.btree import BTree
from repro.storage.disk import SimulatedDisk
from repro.storage.listfile import ListDirectory, ListFile

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


# -- one packed directory per index ------------------------------------------------

#: The directories of each index kind, and the owner label of their pages.
LABELS = {
    "dil": {"lists": "dil"},
    "rdil": {"lists": "rdil"},
    "hdil": {"full_lists": "hdil", "ranked_heads": "hdil-head"},
    "naive-id": {"lists": "naive-id"},
    "naive-rank": {"lists": "naive-rank"},
}


def expected_owners(index):
    """Every page's owner by the rule engine files have always followed:
    ``label:keyword`` for an inverted-list page, "" for any other page."""
    owners = [""] * len(index.disk.pages)
    parts = [index.main, index.delta] if index.kind == "dil-incremental" else [index]
    for part in filter(None, parts):
        for attribute, label in LABELS[part.kind].items():
            for keyword, list_file in getattr(part, attribute).items():
                for page_id in list_file.page_ids:
                    owners[page_id] = f"{label}:{keyword}"
    return owners


def owners_of(index):
    return [index.disk.owner_of(page_id) for page_id in range(len(index.disk.pages))]


def frequent_queries(engine):
    frequencies = document_frequencies(engine.graph)
    frequent = sorted(frequencies, key=lambda w: (-frequencies[w], w))[:4]
    return frequent + [" ".join(frequent[:2])]


class _ParentShapedPickler(pickle.Pickler):
    """Pickles an engine the way engine files were written before the list
    directories: each index's lists as a ``{keyword: ListFile}`` dict of
    ``__dict__`` states, each B+-tree's leaf level as a list of page ids,
    and each disk's page owners as a dict of label strings."""

    def reducer_override(self, obj):
        if isinstance(obj, ListDirectory):
            return dict, (), None, None, iter(obj.items())
        if isinstance(obj, ListFile):
            state = {name: getattr(obj, name) for name in ListFile.__slots__}
            state["page_ids"] = list(obj.page_ids)
            return copyreg.__newobj__, (ListFile,), state
        if isinstance(obj, BTree):
            state = {name: getattr(obj, name) for name in BTree.__slots__}
            del state["leaf_first"], state["leaf_count"]
            state["leaf_pages"] = list(obj.leaf_pages)
            return copyreg.__newobj__, (BTree,), state
        if isinstance(obj, SimulatedDisk):
            state = obj.__getstate__()
            del state["_owner_rows"]
            owners = {page_id: obj.owner_of(page_id) for page_id in range(len(obj.pages))}
            state["_owners"] = {page_id: o for page_id, o in owners.items() if o}
            if state["_checksums"] is not None:
                state["_checksums"] = list(state["_checksums"])
            return copyreg.__newobj__, (SimulatedDisk,), state
        return NotImplemented


def parent_shaped_dumps(engine) -> bytes:
    buffer = io.BytesIO()
    _ParentShapedPickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(engine)
    return buffer.getvalue()


@pytest.fixture(scope="module")
def six_kinds():
    engine = XRankEngine()
    engine.build(kinds=INDEX_KINDS, corpus=generate_dblp(40, seed=17))
    return engine


class TestNoListObjectOutlivesALookup:
    def test_the_walk_sees_a_list_file(self, six_kinds):
        view = six_kinds.index("dil").lists[frequent_queries(six_kinds)[0]]
        assert reachable([view], ListFile) == 1

    @pytest.mark.parametrize("kind", INDEX_KINDS)
    def test_after_build_and_a_search(self, six_kinds, kind):
        assert reachable(six_kinds.index(kind), ListFile) == 0
        for query in frequent_queries(six_kinds):
            assert six_kinds.search(query, m=10, kind=kind)
        assert reachable(six_kinds, ListFile) == 0

    @pytest.mark.parametrize("kind", INDEX_KINDS)
    def test_owners_follow_the_lists(self, six_kinds, kind):
        index = six_kinds.index(kind)
        owners = owners_of(index)
        assert owners == expected_owners(index)
        assert any(owners)

    def test_restored_from_parent_shaped_state(self, six_kinds):
        payload = parent_shaped_dumps(six_kinds)
        assert b"_owners" in payload and b"leaf_pages" in payload
        restored = pickle.loads(payload)
        assert reachable(restored, ListFile) == 0
        assert reachable(restored, dict) > 0
        queries = frequent_queries(six_kinds)
        assert answers(restored, queries, INDEX_KINDS) == answers(
            six_kinds, queries, INDEX_KINDS
        )
        for kind in INDEX_KINDS:
            old, new = six_kinds.index(kind), restored.index(kind)
            assert new.disk.pages == old.disk.pages
            assert owners_of(new) == owners_of(old)
        assert reachable(restored, ListFile) == 0

    def test_owners_after_rewrites_adds_a_delete_and_a_merge(self):
        engine = XRankEngine()
        engine.build(
            kinds=("dil", "dil-incremental"), corpus=generate_dblp(40, seed=17)
        )
        dil = engine.index("dil")
        keyword, other = frequent_queries(engine)[:2]
        records = list(dil.lists[keyword].scan())
        (freed,) = dil.lists[other].page_ids
        dil.replace_list(other, records * 40)  # a longer run elsewhere
        assert dil.lists[other].num_pages > 1
        assert owners_of(dil) == expected_owners(dil)
        assert owners_of(dil)[freed] == ""
        dil.replace_list("zzznew", records[:3])  # reuses the freed page
        assert owners_of(dil)[freed] == "dil:zzznew"
        dil.replace_list(keyword, records[: len(records) // 2])
        assert owners_of(dil) == expected_owners(dil)
        assert dil.list_length(keyword) == len(records) // 2

        incremental = engine.index("dil-incremental")
        for i in range(3):
            engine.add_xml_incremental(f"<p><t>fresh {i} {keyword}</t></p>")
        engine.delete_document(3)
        engine.add_xml_incremental(f"<p><t>later {keyword} {other}</t></p>")
        assert incremental.delta is not None
        assert owners_of(incremental) == expected_owners(incremental)
        restored = pickle.loads(parent_shaped_dumps(engine))
        assert owners_of(restored.index("dil-incremental")) == owners_of(incremental)
        assert owners_of(restored.index("dil")) == owners_of(dil)

        engine.merge_incremental()
        assert incremental.delta is None
        assert owners_of(incremental) == expected_owners(incremental)
        assert len(incremental.disk._directories) == 1
        assert reachable(engine, ListFile) == 0


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
