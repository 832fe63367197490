"""Structural invariant validator tests: clean trees pass, seeded
corruption of every checked property is rejected."""

from __future__ import annotations

import dataclasses

import pytest

from repro.analysis.invariants import (
    InvariantViolation,
    check_btree,
    check_dewey_codecs,
    check_elemrank,
    check_engine,
    check_frames,
    check_graph,
    check_index_agreement,
    check_posting_lists,
)
from repro.config import StorageParams
from repro.engine import XRankEngine
from repro.index.postings import Posting
from repro.storage.btree import BTree, LeafFrame, _decode_leaf, _encode_leaf
from repro.storage.deweycodec import CODECS
from repro.storage.disk import SimulatedDisk
from repro.xmlmodel.dewey import DeweyId

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover
    HAVE_HYPOTHESIS = False


DOCS = [
    (
        "a.xml",
        "<doc><title>xql language notes</title><body>"
        "<sec>the xql query language</sec><sec>ranked search</sec></body></doc>",
    ),
    (
        "b.xml",
        "<doc><title>language survey</title><body>"
        "<sec>query language design</sec><sec>xql patterns</sec></body></doc>",
    ),
    (
        "c.xml",
        "<doc><title>search engines</title><body>"
        "<sec>ranked query processing</sec></body></doc>",
    ),
]


@pytest.fixture(scope="module")
def engine() -> XRankEngine:
    built = XRankEngine()
    for uri, source in DOCS:
        built.add_xml(source, uri=uri)
    built.build(kinds=("dil", "rdil", "hdil"))
    return built


def build_tree(entry_count: int = 40, page_size: int = 128):
    disk = SimulatedDisk(StorageParams(page_size=page_size))
    entries = [
        (DeweyId((1, i // 8, i % 8)), bytes([i]) * 3) for i in range(entry_count)
    ]
    return BTree.bulk_load(disk, entries), disk


# -- B+-tree ------------------------------------------------------------------------


class TestBTreeInvariants:
    def test_clean_tree_passes(self):
        tree, _ = build_tree()
        assert tree.height > 1  # the fixture must actually have internals
        assert check_btree(tree) == []

    def test_out_of_order_leaf_keys_rejected(self):
        tree, disk = build_tree()
        victim = tree.leaf_pages[1]
        prev_page, next_page, entries = _decode_leaf(disk.read(victim))
        entries.reverse()
        disk.write(victim, _encode_leaf(entries, prev_page, next_page))
        violations = check_btree(tree, "corrupted")
        assert violations
        assert any("order" in v.message for v in violations)
        assert all(v.location == "corrupted" for v in violations)

    def test_broken_leaf_chain_rejected(self):
        tree, disk = build_tree()
        victim = tree.leaf_pages[0]
        prev_page, next_page, entries = _decode_leaf(disk.read(victim))
        disk.write(victim, _encode_leaf(entries, prev_page, -1))  # cut the chain
        violations = check_btree(tree)
        assert any("chain" in v.message for v in violations)

    def test_entry_count_mismatch_rejected(self):
        tree, _ = build_tree()
        tree.num_entries += 5
        violations = check_btree(tree)
        assert any("claims" in v.message for v in violations)

    def test_key_outside_separator_bounds_rejected(self):
        tree, disk = build_tree()
        victim = tree.leaf_pages[-1]
        prev_page, next_page, entries = _decode_leaf(disk.read(victim))
        # Smuggle in a key that belongs far before this leaf's separator.
        entries[0] = (DeweyId((0, 0)), entries[0][1])
        disk.write(victim, _encode_leaf(entries, prev_page, next_page))
        violations = check_btree(tree)
        assert any("separator" in v.message for v in violations)

    def test_corruption_after_probes_warmed_the_frames_is_caught(self):
        """Validators and probes read the disk, not a frame of old bytes."""
        tree, disk = build_tree()
        keys = [key for key, _ in tree.range_scan(DeweyId((0,)))]
        for key in keys:
            tree.ceiling(key)
            tree.predecessor(key)
        assert disk.pooled_frames()
        victim = tree.leaf_pages[1]
        assert victim in disk.pool
        prev_page, next_page, entries = _decode_leaf(disk.pages[victim])
        first_key = entries[0][0]
        # Bit rot behind the pool's back: the stored bytes change, the
        # pool entry and its frame stay.
        entries[0] = (first_key, b"rot")
        disk.pages[victim] = _encode_leaf(entries, prev_page, next_page)
        assert tree.ceiling(first_key) == (first_key, b"rot")
        entries.reverse()
        disk.pages[victim] = _encode_leaf(entries, prev_page, next_page)
        violations = check_btree(tree)
        assert any("order" in v.message for v in violations)

    def test_real_engine_btrees_pass(self, engine):
        rdil = engine.index("rdil")
        for keyword in ("language", "xql", "query"):
            tree = rdil.btree(keyword)
            assert tree is not None
            assert check_btree(tree, f"rdil {keyword}") == []


# -- posting lists ------------------------------------------------------------------


class _FakeCursor:
    def __init__(self, records):
        self._records = list(records)
        self._at = 0

    @property
    def eof(self):
        return self._at >= len(self._records)

    def next(self):
        record = self._records[self._at]
        self._at += 1
        return record


class _FakeDILIndex:
    def __init__(self, postings):
        self._postings = postings

    def keywords(self):
        return self._postings.keys()

    def list_length(self, keyword):
        return len(self._postings.get(keyword, ()))

    def cursor(self, keyword):
        return _FakeCursor([p.encode() for p in self._postings[keyword]])


class _FakeEngine:
    def __init__(self, index):
        self._indexes = {"dil": index}
        self.builder = None


def test_clean_posting_lists_pass(engine):
    assert check_posting_lists(engine) == []


def test_unsorted_posting_list_rejected():
    postings = {
        "kw": [
            Posting(DeweyId((1, 2)), 0.5, (1,)),
            Posting(DeweyId((1, 1)), 0.4, (2,)),  # out of Dewey order
        ]
    }
    violations = check_posting_lists(_FakeEngine(_FakeDILIndex(postings)))
    assert any("Dewey order" in v.message for v in violations)


def test_negative_rank_rejected():
    postings = {"kw": [Posting(DeweyId((1, 1)), -0.1, (1,))]}
    violations = check_posting_lists(_FakeEngine(_FakeDILIndex(postings)))
    assert any("bad rank" in v.message for v in violations)


def test_non_increasing_positions_rejected():
    # The delta codec refuses outright-unsorted positions at encode time,
    # so the subtlest corruption it can pass through is a duplicate.
    postings = {"kw": [Posting(DeweyId((1, 1)), 0.2, (5, 5))]}
    violations = check_posting_lists(_FakeEngine(_FakeDILIndex(postings)))
    assert any("positions" in v.message for v in violations)


def test_corrupted_encoding_rejected():
    posting = Posting(DeweyId((1, 1)), 0.2, (1, 2))

    class _Lossy(_FakeDILIndex):
        def cursor(self, keyword):
            return _FakeCursor([posting.encode() + b"\x00"])  # trailing junk

    violations = check_posting_lists(_FakeEngine(_Lossy({"kw": [posting]})))
    assert any("round-trip" in v.message for v in violations)


def test_hdil_ranked_head_order_violation_detected(engine):
    # Corrupt the built HDIL head of one keyword: swap the first two
    # records so ElemRank order breaks, then restore the page afterwards.
    hdil = engine.index("hdil")
    keyword = max(hdil.keywords(), key=hdil.head_length)
    head = hdil.ranked_heads[keyword]
    assert head.num_records >= 2
    page_id = head.page_ids[0]
    original = hdil.disk.read(page_id)
    records = [r for r in head.scan()][: head.num_records]
    postings = sorted(
        (Posting.decode(r) for r in records), key=lambda p: p.elemrank
    )
    if postings[0].elemrank == postings[-1].elemrank:
        pytest.skip("corpus produced a constant-rank head")
    from repro.storage.listfile import ListFile

    try:
        broken = ListFile.write(hdil.disk, [p.encode() for p in postings])
        hdil.ranked_heads[keyword] = broken
        violations = check_posting_lists(engine)
        assert any("rank order" in v.message for v in violations)
    finally:
        hdil.ranked_heads[keyword] = head
        hdil.disk.write(page_id, original)


# -- Dewey codecs -------------------------------------------------------------------


def test_codecs_round_trip_engine_ids(engine):
    ids = [posting.dewey for posting in engine.index("dil").scan("language")]
    assert check_dewey_codecs(ids) == []


def test_lossy_codec_detected(monkeypatch):
    encode, decode = CODECS["varint"]
    monkeypatch.setitem(CODECS, "varint", (encode, lambda data: decode(data)[:-1]))
    violations = check_dewey_codecs([DeweyId((1, 1)), DeweyId((1, 2))])
    assert any(v.check == "dewey-codec" for v in violations)


def test_raising_codec_detected(monkeypatch):
    def explode(ids):
        raise ValueError("boom")

    monkeypatch.setitem(CODECS, "prefix", (explode, lambda data: []))
    violations = check_dewey_codecs([DeweyId((1, 1))])
    assert any("boom" in v.message for v in violations)


if HAVE_HYPOTHESIS:

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.integers(min_value=0, max_value=2**20), min_size=1, max_size=6
            ),
            max_size=30,
        )
    )
    def test_codec_round_trip_hypothesis(components):
        """Property: every codec round-trips arbitrary Dewey-ordered lists."""
        ids = sorted(DeweyId(tuple(c)) for c in components)
        assert check_dewey_codecs(ids) == []


# -- index agreement ----------------------------------------------------------------


def test_built_kinds_agree(engine):
    assert check_index_agreement(engine) == []


def test_divergent_evaluator_detected(engine):
    class _Short:
        def evaluate(self, keywords, m=10, **kwargs):
            return []

    original = engine._evaluators["rdil"]
    try:
        engine._evaluators["rdil"] = _Short()
        violations = check_index_agreement(engine, queries=[["language"]])
        assert any(v.check == "index-agreement" for v in violations)
        assert any("results" in v.message for v in violations)
    finally:
        engine._evaluators["rdil"] = original


def test_frames_match_fresh_decodes_and_a_planted_one_is_caught(engine):
    assert check_index_agreement(engine) == []  # the query batch warms pools
    assert check_frames(engine) == []
    # Owned (RDIL) and external (HDIL) leaves: plant a frame of the right
    # shape over the right bytes whose last key is one child too deep.
    for kind in ("rdil", "hdil"):
        disk = engine.index(kind).disk
        leaves = [
            kept for kept in disk.pooled_frames()
            if isinstance(kept[3], LeafFrame) and kept[3].keys
        ]
        assert leaves, kind
        page_id, decode, data, frame = leaves[0]
        wrong = frame._replace(keys=frame.keys[:-1] + [frame.keys[-1] + (0,)])
        assert wrong.entries()[:-1] == frame.entries()[:-1]
        try:
            disk.pool.keep(page_id, decode, data, wrong)
            violations = check_frames(engine)
            assert [v.location for v in violations] == [f"{kind} page {page_id}"]
        finally:
            disk.pool.keep(page_id, decode, data, frame)
        assert check_frames(engine) == []


def test_single_kind_engine_skips_agreement():
    single = XRankEngine()
    single.add_xml(DOCS[0][1], uri="a.xml")
    single.build(kinds=("dil",))
    assert check_index_agreement(single) == []


# -- ElemRank -----------------------------------------------------------------------


def test_converged_elemrank_passes(engine):
    assert check_elemrank(engine) == []


def test_unconverged_elemrank_detected(engine):
    original = engine.builder.elemrank_result
    try:
        engine.builder.elemrank_result = dataclasses.replace(
            original, converged=False
        )
        violations = check_elemrank(engine)
        assert any("converge" in v.message for v in violations)
    finally:
        engine.builder.elemrank_result = original


def test_nan_score_detected(engine):
    dewey = next(iter(engine.builder.elemranks))
    original = engine.builder.elemranks[dewey]
    try:
        engine.builder.elemranks[dewey] = float("nan")
        violations = check_elemrank(engine)
        assert any("score" in v.message for v in violations)
    finally:
        engine.builder.elemranks[dewey] = original


# -- incremental adds: graph table and delta lists -----------------------------------


@pytest.fixture()
def added_engine():
    from repro.analysis.check import build_check_engine

    return build_check_engine()


def test_check_engine_clean_after_incremental_adds(added_engine):
    assert added_engine.index("dil-incremental").delta_size > 0
    assert check_engine(added_engine) == []


def test_graph_table_drift_detected(added_engine):
    graph = added_engine.graph
    graph.hyperlink_edges.pop()
    graph.out_hyperlink_count[-1] += 1
    names = {v.location for v in check_graph(added_engine)}
    assert names == {"hyperlink_edges", "out_hyperlink_count"}


def test_delta_list_drift_detected(added_engine):
    index = added_engine.index("dil-incremental")
    keyword = max(index._delta_records, key=lambda k: len(index._delta_records[k]))
    index._delta_records[keyword] = index._delta_records[keyword][:-1]
    violations = check_posting_lists(added_engine)
    assert any(
        v.location == f"dil-incremental delta list {keyword!r}"
        for v in violations
    )


# -- orchestration ------------------------------------------------------------------


def test_check_engine_clean_on_real_corpus(engine):
    assert check_engine(engine) == []


def test_violation_formatting():
    violation = InvariantViolation("btree", "rdil 'xql'", "keys out of order")
    assert violation.format() == "[btree] rdil 'xql': keys out of order"
