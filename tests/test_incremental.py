"""Tests for incremental document additions (main + delta DIL)."""

import pytest

from repro.errors import IndexError_, IndexNotBuiltError
from repro.index.builder import IndexBuilder
from repro.index.dil import DILIndex
from repro.index.incremental import (
    DepthAverages,
    IncrementalDILIndex,
    approximate_scores,
    postings_for_documents,
)
from repro.index.postings import Posting, extract_direct_postings
from repro.query.dil_eval import DILEvaluator
from repro.xmlmodel.graph import CollectionGraph
from repro.xmlmodel.parser import parse_xml


def fresh_index():
    graph = CollectionGraph()
    for i, text in enumerate(["alpha beta shared", "gamma shared", "alpha delta"]):
        graph.add_document(parse_xml(f"<d><p>{text}</p></d>", doc_id=i))
    graph.finalize()
    builder = IndexBuilder(graph)
    index = IncrementalDILIndex()
    index.build(builder.direct_postings)
    return index, builder


def new_documents(texts, start_id):
    return [
        parse_xml(f"<d><p>{text}</p></d>", doc_id=start_id + i)
        for i, text in enumerate(texts)
    ]


class TestBasics:
    def test_queries_before_any_addition(self):
        index, _ = fresh_index()
        results = DILEvaluator(index).evaluate(["alpha"], m=10)
        assert {r.dewey.doc_id for r in results} == {0, 2}

    def test_added_documents_become_searchable(self):
        index, builder = fresh_index()
        docs = new_documents(["alpha fresh words"], start_id=10)
        index.add_documents(docs, reference=builder.elemranks)
        results = DILEvaluator(index).evaluate(["alpha"], m=10)
        assert 10 in {r.dewey.doc_id for r in results}
        assert DILEvaluator(index).evaluate(["fresh"], m=10)

    def test_conjunctive_across_main_and_delta_boundary(self):
        index, builder = fresh_index()
        index.add_documents(
            new_documents(["alpha beta together again"], 20),
            reference=builder.elemranks,
        )
        results = DILEvaluator(index).evaluate(["alpha", "beta"], m=10)
        doc_ids = {r.dewey.doc_id for r in results}
        assert {0, 20} <= doc_ids

    def test_multiple_addition_batches(self):
        index, builder = fresh_index()
        index.add_documents(new_documents(["epsilon one"], 10), reference=builder.elemranks)
        index.add_documents(new_documents(["epsilon two"], 11), reference=builder.elemranks)
        results = DILEvaluator(index).evaluate(["epsilon"], m=10)
        assert {r.dewey.doc_id for r in results} == {10, 11}
        assert index.delta_size > 0

    def test_doc_id_monotonicity_enforced(self):
        index, builder = fresh_index()
        with pytest.raises(IndexError_):
            index.add_documents(new_documents(["x"], 0), reference=builder.elemranks)

    def test_requires_build_first(self):
        index = IncrementalDILIndex()
        with pytest.raises(IndexNotBuiltError):
            index.add_documents(new_documents(["x"], 5))
        with pytest.raises(IndexNotBuiltError):
            index.cursor("x")

    def test_list_length_and_keywords_include_delta(self):
        index, builder = fresh_index()
        before = index.list_length("alpha")
        index.add_documents(new_documents(["alpha"], 30), reference=builder.elemranks)
        assert index.list_length("alpha") == before + 1
        assert "alpha" in index.keywords()


class TestDeletesAndMerge:
    def test_delete_spans_main_and_delta(self):
        index, builder = fresh_index()
        index.add_documents(new_documents(["alpha late"], 40), reference=builder.elemranks)
        index.delete_document(0)
        index.delete_document(40)
        results = DILEvaluator(index).evaluate(["alpha"], m=10)
        assert {r.dewey.doc_id for r in results} == {2}

    def test_merge_compacts_and_preserves_results(self):
        index, builder = fresh_index()
        index.add_documents(
            new_documents(["alpha beta merged"], 50), reference=builder.elemranks
        )
        before = {
            (str(r.dewey), round(r.rank, 9))
            for r in DILEvaluator(index).evaluate(["alpha", "beta"], m=100)
        }
        index.merge()
        assert index.delta is None
        assert index.delta_size == 0
        after = {
            (str(r.dewey), round(r.rank, 9))
            for r in DILEvaluator(index).evaluate(["alpha", "beta"], m=100)
        }
        assert before == after

    def test_merge_reclaims_tombstones(self):
        index, builder = fresh_index()
        index.delete_document(0)
        bytes_before = index.inverted_list_bytes
        index.merge()
        assert index.inverted_list_bytes < bytes_before
        results = DILEvaluator(index).evaluate(["alpha"], m=10)
        assert {r.dewey.doc_id for r in results} == {2}


class TestScoreApproximation:
    def test_depth_average_scores(self):
        _, builder = fresh_index()
        docs = new_documents(["brand new thing"], 60)
        scores = approximate_scores(docs, DepthAverages(builder.elemranks))
        roots = [d.root.dewey for d in docs]
        reference_roots = [
            v for k, v in builder.elemranks.items() if k.depth == 0
        ]
        expected = sum(reference_roots) / len(reference_roots)
        assert scores[roots[0]] == pytest.approx(expected)

    def test_empty_reference_gives_zero(self):
        docs = new_documents(["thing"], 0)
        scores = approximate_scores(docs, DepthAverages({}))
        assert all(v == 0.0 for v in scores.values())

    def test_postings_for_documents(self):
        docs = new_documents(["one two", "two three"], 70)
        scores = approximate_scores(docs, DepthAverages({}))
        postings = postings_for_documents(docs, scores)
        assert len(postings["two"]) == 2
        deweys = [p.dewey for p in postings["two"]]
        assert deweys == sorted(deweys)


class TestIncrementalEquivalence:
    """Property: incremental additions must be indistinguishable from a
    full rebuild over the same documents (given the same scores)."""

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_full_rebuild(self, seed):
        import random

        from conftest import VOCAB, random_xml

        rng = random.Random(seed)
        initial, added = [], []
        for doc_id in range(4):
            initial.append(parse_xml(random_xml(rng), doc_id=doc_id))
        for doc_id in range(4, 7):
            added.append(parse_xml(random_xml(rng), doc_id=doc_id))

        # Full rebuild over everything (ground truth).
        full_builder = IndexBuilder(graph_of(initial + added))
        full = DILEvaluator(full_builder.build_dil())

        # Incremental: initial build + delta additions with the SAME scores
        # the full build computed (isolates index mechanics from ElemRank
        # staleness).
        incremental = IncrementalDILIndex()
        incremental.build(
            extract_direct_postings(graph_of(initial), full_builder.elemranks)
        )
        inc = DILEvaluator(incremental)
        queries = [["alpha", "beta"], ["gamma"], ["alpha", "beta", "gamma"]]

        def answers(evaluator, keywords):
            return [
                (r.dewey, r.rank) for r in evaluator.evaluate(keywords, m=1000)
            ]

        for document in added:
            incremental.add_documents([document], scores=full_builder.elemranks)
        for keywords in queries:
            assert answers(inc, keywords) == answers(full, keywords)

        # The delta's pages are exactly a one-shot build of its postings.
        one_shot = DILIndex()
        one_shot.build(
            extract_direct_postings(
                graph_of(added), full_builder.elemranks
            )
        )
        assert sorted(incremental.delta.lists) == sorted(one_shot.lists)
        for keyword, list_file in one_shot.lists.items():
            assert pages_of(incremental.delta.lists[keyword]) == pages_of(
                list_file
            )
            assert incremental.list_length(keyword) == (
                incremental.main.list_length(keyword) + list_file.num_records
            )


def graph_of(documents):
    graph = CollectionGraph()
    for document in documents:
        graph.add_document(document)
    graph.finalize()
    return graph


def pages_of(list_file):
    return [list_file.disk.pages[page_id] for page_id in list_file.page_ids]


class TestAddCost:
    """An addition encodes only its own postings, however large the delta."""

    def test_each_add_encodes_only_the_new_postings(self, monkeypatch):
        import random

        from conftest import random_xml

        from repro.index import postings as postings_module

        calls = []
        encode = postings_module.Posting.encode

        def counting_encode(posting):
            calls.append(posting.dewey.doc_id)
            return encode(posting)

        monkeypatch.setattr(postings_module.Posting, "encode", counting_encode)
        index, builder = fresh_index()
        rng = random.Random(7)
        for doc_id in range(10, 40):
            document = parse_xml(random_xml(rng), doc_id=doc_id)
            expected = sum(
                len(plist)
                for plist in postings_for_documents(
                    [document], builder.elemranks
                ).values()
            )
            calls.clear()
            index.add_documents([document], reference=builder.elemranks)
            assert calls == [doc_id] * expected

    def test_depth_averages_are_computed_once_per_reference(self, monkeypatch):
        from repro.index import incremental as incremental_module

        built = []
        real = incremental_module.DepthAverages

        def counting(reference):
            built.append(reference)
            return real(reference)

        monkeypatch.setattr(incremental_module, "DepthAverages", counting)
        index, builder = fresh_index()
        for doc_id in range(10, 15):
            index.add_documents(
                new_documents(["alpha more"], doc_id),
                reference=builder.elemranks,
            )
        assert built == [builder.elemranks]
        other = dict(builder.elemranks)
        index.add_documents(new_documents(["alpha"], 20), reference=other)
        assert len(built) == 2 and built[1] is other


class TestSnapshots:
    def test_delta_survives_a_pickle(self):
        import pickle

        index, builder = fresh_index()
        index.add_documents(
            new_documents(["alpha beta late"], 10), reference=builder.elemranks
        )
        restored = pickle.loads(pickle.dumps(index))
        assert restored._averages is None
        for keywords in (["alpha"], ["alpha", "beta"], ["late"]):
            assert [
                (r.dewey, r.rank)
                for r in DILEvaluator(restored).evaluate(keywords, m=10)
            ] == [
                (r.dewey, r.rank)
                for r in DILEvaluator(index).evaluate(keywords, m=10)
            ]
        restored.add_documents(
            new_documents(["alpha again"], 11), reference=builder.elemranks
        )
        assert {
            r.dewey.doc_id for r in DILEvaluator(restored).evaluate(["alpha"], m=10)
        } == {0, 2, 10, 11}

    def test_old_snapshot_state_is_converted(self):
        index, builder = fresh_index()
        index.add_documents(
            new_documents(["alpha beta late"], 10), reference=builder.elemranks
        )
        # The state an older release pickled: decoded delta postings.
        state = dict(index.__dict__)
        records = state.pop("_delta_records")
        del state["_averages"]
        state["_delta_postings"] = {
            keyword: [Posting.decode(r) for r in recs]
            for keyword, recs in records.items()
        }
        old = IncrementalDILIndex.__new__(IncrementalDILIndex)
        old.__setstate__(state)
        assert old._delta_records == records
        old.add_documents(
            new_documents(["alpha again"], 11), reference=builder.elemranks
        )
        assert old.list_length("alpha") == index.list_length("alpha") + 1


class TestChainedCursor:
    """Main-then-delta is one :class:`ListCursor` over several list files."""

    @staticmethod
    def disk():
        from repro.config import StorageParams
        from repro.storage.disk import SimulatedDisk

        return SimulatedDisk(StorageParams(page_size=128))

    def test_empty_chain(self):
        from repro.errors import StorageError
        from repro.storage.listfile import ListCursor

        cursor = ListCursor()
        assert cursor.eof
        with pytest.raises(StorageError):
            cursor.peek()

    def test_skips_exhausted_segments(self):
        from repro.storage.listfile import ListCursor, ListFile

        disk = self.disk()
        empty = ListFile.write(disk, [])
        full = ListFile.write(disk, [b"a", b"b"])
        cursor = ListCursor(empty, full)
        assert cursor.peek() == b"a"
        assert cursor.next() == b"a"
        assert cursor.next() == b"b"
        assert cursor.eof

    def test_three_segments_in_order(self):
        from repro.storage.listfile import ListCursor, ListFile

        disk = self.disk()
        files = [ListFile.write(disk, [bytes([65 + i])]) for i in range(3)]
        cursor = ListCursor(*files)
        out = []
        while not cursor.eof:
            out.append(cursor.next())
        assert out == [b"A", b"B", b"C"]

    def test_unknown_keyword_has_no_cursor(self):
        index, builder = fresh_index()
        index.add_documents(new_documents(["fresh"], 10), reference=builder.elemranks)
        assert index.cursor("nowhere") is None
        assert index.cursor("fresh") is not None  # delta only
        assert index.cursor("gamma") is not None  # main only
